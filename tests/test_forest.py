"""Link-cut forest vs the naive mirror, plus pinned small examples."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dynorient.errors import (CycleError, MissingEdgeError, NotConnectedError,
                              WeightRangeError)
from dynorient.forest import LinkCutForest, edge_key
from dynorient.oracles import NaiveWeightedForest


def test_link_singletons_weight_three():
    f = LinkCutForest(gamma=8)
    f.link(0, 1, 3)
    assert f.min_weight(0, 1) == 3
    assert f.max_weight(0, 1) == 3
    assert f.edge_weight(0, 1) == 3
    assert f.edge_weight(1, 0) == 5


def test_link_weight_at_gamma_cap():
    f = LinkCutForest(gamma=8)
    f.link(0, 1, 8)
    assert f.min_weight(0, 1) == 8
    with pytest.raises(WeightRangeError):
        f.link(2, 3, 9)


def test_duplicate_link_rejected():
    f = LinkCutForest(gamma=8)
    f.link(0, 1, 4)
    with pytest.raises(CycleError):
        f.link(0, 1, 4)
    with pytest.raises(CycleError):
        f.link(1, 0, 2)
    f.link(1, 2, 4)
    with pytest.raises(CycleError):
        f.link(0, 2, 4)  # already connected through 1


def _abc_path(gamma=8):
    # a-b-c with numerators 3 at a (edge ab) and 5 at b (edge bc)
    f = LinkCutForest(gamma=gamma)
    f.link(0, 1, 3)
    f.link(1, 2, 5)
    return f


def test_path_weights_direction_sensitivity():
    f = _abc_path()
    assert f.min_weight(0, 2) == 3
    assert f.max_weight(0, 2) == 5
    # read the other way every weight complements
    assert f.min_weight(2, 0) == 3
    assert f.max_weight(2, 0) == 5


def test_add_weight_toward_c():
    f = _abc_path()
    f.add_weight(0, 2, 2)
    assert f.min_weight(0, 2) == 5
    assert f.max_weight(0, 2) == 7
    assert f.edge_weight(0, 1) == 5
    assert f.edge_weight(1, 2) == 7


def test_add_weight_zero_is_identity():
    f = _abc_path()
    f.add_weight(0, 2, 0)
    assert f.edge_weight(0, 1) == 3
    assert f.edge_weight(1, 2) == 5


def test_add_weight_reverse_direction():
    f = _abc_path()
    f.add_weight(2, 0, 2)
    assert f.edge_weight(0, 1) == 1
    assert f.edge_weight(1, 2) == 3


def test_add_weight_antisymmetry():
    f = _abc_path()
    f.add_weight(0, 2, 2)
    f.add_weight(2, 0, 2)
    assert f.edge_weight(0, 1) == 3
    assert f.edge_weight(1, 2) == 5


def test_add_weight_range_checked_and_untouched_on_failure():
    f = _abc_path()
    with pytest.raises(WeightRangeError):
        f.add_weight(0, 2, 4)  # 5+4 exceeds 8
    assert f.edge_weight(0, 1) == 3
    assert f.edge_weight(1, 2) == 5


def test_extreme_edge_witnesses():
    f = _abc_path()
    assert f.find_extreme_edge(0, 2, "min") == (0, 1)
    assert f.find_extreme_edge(0, 2, "max") == (1, 2)
    f.add_weight(0, 2, 2)
    assert f.find_extreme_edge(0, 2, "min") == (0, 1)


def test_extreme_tie_breaks_toward_first_endpoint():
    f = LinkCutForest(gamma=8)
    for a, b in ((0, 1), (1, 2), (2, 3)):
        f.link(a, b, 4)
    assert edge_key(*f.find_extreme_edge(0, 3, "min")) == (0, 1)
    assert edge_key(*f.find_extreme_edge(3, 0, "min")) == (2, 3)


def test_roots_through_link_and_cut():
    f = LinkCutForest(gamma=8)
    f.link(0, 1, 4)       # combined tree keeps 1's root
    assert f.find_root(0) == 1
    f.link(1, 2, 4)       # now rooted at 2
    assert f.find_root(0) == 2
    # cut the b-c edge of a-b-c rooted at c: {a,b} rooted at b, {c} keeps c
    f.cut(1, 2)
    assert f.find_root(0) == 1
    assert f.find_root(1) == 1
    assert f.find_root(2) == 2


def test_cut_only_edge_isolates_both():
    f = LinkCutForest(gamma=8)
    f.link(0, 1, 4)
    f.cut(0, 1)
    assert f.find_root(0) == 0
    assert f.find_root(1) == 1
    assert not f.connected(0, 1)
    with pytest.raises(MissingEdgeError):
        f.cut(0, 1)


def test_parities_and_first_edge():
    f = LinkCutForest(gamma=8)
    f.link(0, 1, 4)
    f.link(1, 2, 4)
    assert f.find_root(0) == 2
    assert f.depth_parity(0) == 0
    assert f.depth_parity(1) == 1
    assert f.depth_parity(2) == 0
    assert edge_key(*f.first_edge_on_root_path(0)) == (0, 1)
    assert f.first_edge_on_root_path(2) is None
    f.set_root(0)
    assert f.depth_parity(2) == 0
    assert edge_key(*f.first_edge_on_root_path(2)) == (1, 2)
    assert f.first_edge_on_root_path(0) is None


def test_isolated_vertex_defaults():
    f = LinkCutForest(gamma=8)
    assert f.find_root(7) == 7
    assert f.depth_parity(7) == 0
    assert f.first_edge_on_root_path(7) is None


def test_path_ops_require_connectivity():
    f = LinkCutForest(gamma=8)
    f.link(0, 1, 4)
    with pytest.raises(NotConnectedError):
        f.min_weight(0, 2)
    with pytest.raises(NotConnectedError):
        f.add_weight(0, 0, 1)


# ----------------------------------------------------------------------
# differential driving against the naive mirror


def _drive(seed, n, steps, gamma=16):
    rng = random.Random(seed)
    real = LinkCutForest(gamma)
    mirror = NaiveWeightedForest(gamma)
    edges = []
    for _ in range(steps):
        op = rng.randrange(10)
        u = rng.randrange(n)
        v = rng.randrange(n)
        if op <= 2:
            if u != v and not mirror.connected(u, v):
                w = rng.randint(0, gamma)
                real.link(u, v, w)
                mirror.link(u, v, w)
                edges.append((u, v))
        elif op == 3 and edges:
            a, b = edges.pop(rng.randrange(len(edges)))
            real.cut(a, b)
            mirror.cut(a, b)
        elif op == 4:
            if u != v and mirror.connected(u, v):
                lo = -mirror.min_weight(u, v)
                hi = gamma - mirror.max_weight(u, v)
                if lo <= hi:
                    x = rng.randint(lo, hi)
                    real.add_weight(u, v, x)
                    mirror.add_weight(u, v, x)
        elif op == 5:
            real.set_root(u)
            mirror.set_root(u)
        elif op == 6 and edges:
            a, b = edges[rng.randrange(len(edges))]
            w = rng.randint(0, gamma)
            real.set_edge_weight(a, b, w)
            mirror.set_edge_weight(a, b, w)
        else:
            assert real.connected(u, v) == mirror.connected(u, v)
            if u != v and mirror.connected(u, v):
                assert real.min_weight(u, v) == mirror.min_weight(u, v)
                assert real.max_weight(u, v) == mirror.max_weight(u, v)
                rw = real.find_extreme_edge(u, v, "min")
                mw = mirror.find_extreme_edge(u, v, "min")
                assert edge_key(*rw) == edge_key(*mw)
            assert real.find_root(u) == mirror.find_root(u)
            assert real.depth_parity(u) == mirror.depth_parity(u)
            re_ = real.first_edge_on_root_path(u)
            me = mirror.first_edge_on_root_path(u)
            assert (re_ is None) == (me is None)
            if re_ is not None:
                assert edge_key(*re_) == edge_key(*me)
    # final full audit
    for a, b in edges:
        assert real.edge_weight(a, b) == mirror.edge_weight(a, b)
        assert real.edge_weight(a, b) + real.edge_weight(b, a) == gamma


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_mirror_equivalence_small(seed):
    _drive(seed, n=9, steps=700)


@pytest.mark.parametrize("seed", [11, 12])
def test_mirror_equivalence_medium(seed):
    _drive(seed, n=40, steps=900)


def test_deep_path_no_recursion_trouble():
    n = 3000
    f = LinkCutForest(gamma=4)
    for i in range(n - 1):
        f.link(i + 1, i, 2)   # keeps root at 0, path grows downward
    assert f.find_root(n - 1) == 0
    assert f.depth_parity(n - 1) == (n - 1) & 1
    f.add_weight(n - 1, 0, 1)
    assert f.min_weight(n - 1, 0) == 3
    assert f.max_weight(0, n - 1) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(4, 10))
def test_mirror_equivalence_fuzz(seed, n):
    _drive(seed, n=n, steps=120, gamma=8)
