"""Both link-cut forests vs the naive mirror, plus pinned small examples.

``LinkCutForest`` has no root or connectivity query of its own, so these
tests read a root by walking ``first_edge_on_root_path`` up the tree, read
and shift paths through ``path_update``, and reroot a tree by cutting a
vertex's parent edge and linking it back below the vertex."""

import contextlib
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from dynorient import forest
from dynorient.errors import (ConsistencyError, CycleError, MissingEdgeError,
                              WeightRangeError)
from dynorient.forest import (ChangeStamps, LinkCutForest, ParityForest,
                              edge_key)
from naive_oracles import NaiveWeightedForest


def _weighted(gamma, n=64):
    """H's forest over vertex ids below n, with change stamps of its own."""
    return LinkCutForest(gamma, ChangeStamps(n))


def _lean(n=64):
    """A layer forest over vertex ids below n, with change stamps of its
    own."""
    return ParityForest(ChangeStamps(n))


def _recording(seen, which, shift):
    """A decision that records the (min, max) it is handed."""
    def decide(mn, mx):
        seen.append((mn, mx))
        return which, shift
    return decide


def _range(f, u, v):
    """Least and greatest u..v path numerator from the u side, read by one
    path_update that changes nothing; None when there is no path."""
    seen = []
    if f.path_update(u, v, _recording(seen, None, 0)) is None:
        return None
    return seen[0]


def _shift(f, u, v, x):
    """Add x to every u..v path numerator read from the u side."""
    assert f.path_update(u, v, lambda mn, mx: (None, x)) == (None, x)


def _extreme(f, u, v, which):
    """The u..v path edge nearest u that attains the min or max."""
    return f.path_update(u, v, lambda mn, mx: (which, 0))[0]


def _other(e, v):
    return e[1] if e[0] == v else e[0]


def _root(f, v):
    """v's tree root, reached by walking first_edge_on_root_path."""
    e = f.first_edge_on_root_path(v)
    while e is not None:
        v = _other(e, v)
        e = f.first_edge_on_root_path(v)
    return v


def _reroot(f, u, mirror=None):
    """Make u its tree's root in f, and in the mirror when given: the cut
    of u's parent edge roots u's side at u, and the relink hangs the
    parent's side below u with the edge's weights unchanged."""
    first = f.first_edge_on_root_path(u)
    if first is None:
        return
    p = _other(first, u)
    w = f.edge_weight(p, u)
    for g in (f,) if mirror is None else (f, mirror):
        g.cut(u, p)
        g.link(p, u, w)


def test_link_singletons_weight_three():
    f = _weighted(8)
    f.link(0, 1, 3)
    assert _range(f, 0, 1) == (3, 3)
    assert f.edge_weight(0, 1) == 3
    assert f.edge_weight(1, 0) == 5


def test_link_weight_at_gamma_cap():
    f = _weighted(8)
    f.link(0, 1, 8)
    assert _range(f, 0, 1) == (8, 8)
    with pytest.raises(WeightRangeError):
        f.link(2, 3, 9)


def test_duplicate_link_rejected():
    f = _weighted(8)
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
    f = _weighted(gamma)
    f.link(0, 1, 3)
    f.link(1, 2, 5)
    return f


def test_path_weights_direction_sensitivity():
    f = _abc_path()
    assert _range(f, 0, 2) == (3, 5)
    # read the other way every weight complements
    assert _range(f, 2, 0) == (3, 5)


def test_add_weight_toward_c():
    f = _abc_path()
    _shift(f, 0, 2, 2)
    assert _range(f, 0, 2) == (5, 7)
    assert f.edge_weight(0, 1) == 5
    assert f.edge_weight(1, 2) == 7


def test_add_weight_zero_is_identity():
    f = _abc_path()
    _shift(f, 0, 2, 0)
    assert f.edge_weight(0, 1) == 3
    assert f.edge_weight(1, 2) == 5


def test_add_weight_reverse_direction():
    f = _abc_path()
    _shift(f, 2, 0, 2)
    assert f.edge_weight(0, 1) == 1
    assert f.edge_weight(1, 2) == 3


def test_add_weight_antisymmetry():
    f = _abc_path()
    _shift(f, 0, 2, 2)
    _shift(f, 2, 0, 2)
    assert f.edge_weight(0, 1) == 3
    assert f.edge_weight(1, 2) == 5


def test_add_weight_range_checked_and_untouched_on_failure():
    f = _abc_path()
    with pytest.raises(WeightRangeError):
        f.path_update(0, 2, lambda mn, mx: (None, 4))  # 5+4 exceeds 8
    assert f.edge_weight(0, 1) == 3
    assert f.edge_weight(1, 2) == 5


def test_extreme_edge_witnesses():
    f = _abc_path()
    assert _extreme(f, 0, 2, "min") == (0, 1)
    assert _extreme(f, 0, 2, "max") == (1, 2)
    _shift(f, 0, 2, 2)
    assert _extreme(f, 0, 2, "min") == (0, 1)


def test_extreme_tie_breaks_toward_first_endpoint():
    f = _weighted(8)
    for a, b in ((0, 1), (1, 2), (2, 3)):
        f.link(a, b, 4)
    assert edge_key(*_extreme(f, 0, 3, "min")) == (0, 1)
    assert edge_key(*_extreme(f, 3, 0, "min")) == (2, 3)


def test_roots_through_link_and_cut():
    f = _weighted(8)
    f.link(0, 1, 4)       # combined tree keeps 1's root
    assert _root(f, 0) == 1
    f.link(1, 2, 4)       # now rooted at 2
    assert _root(f, 0) == 2
    # cut the b-c edge of a-b-c rooted at c: {a,b} rooted at b, {c} keeps c
    f.cut(1, 2)
    assert _root(f, 0) == 1
    assert _root(f, 1) == 1
    assert _root(f, 2) == 2
    # cut from the root side, cut(c, b) on a-b-c rooted at c: {c} keeps c,
    # {a,b} is rooted at b
    f.link(1, 2, 4)
    f.cut(2, 1)
    assert _root(f, 0) == 1
    assert _root(f, 1) == 1
    assert _root(f, 2) == 2
    # u is the parent endpoint below the root, cut(b, a): {b,c} is rerooted
    # at b, and the b-c weights keep their sides through that evert
    f.link(1, 2, 3)
    f.cut(1, 0)
    assert _root(f, 0) == 0
    assert _root(f, 1) == 1
    assert _root(f, 2) == 1
    assert f.edge_weight(1, 2) == 3
    assert f.edge_weight(2, 1) == 5


def test_cut_only_edge_isolates_both():
    f = _weighted(8)
    f.link(0, 1, 4)
    f.cut(0, 1)
    assert _root(f, 0) == 0
    assert _root(f, 1) == 1
    assert _range(f, 0, 1) is None
    with pytest.raises(MissingEdgeError):
        f.cut(0, 1)


def test_parities_and_first_edge():
    f = _weighted(8)
    f.link(0, 1, 4)
    f.link(1, 2, 4)
    assert _root(f, 0) == 2
    assert f.depth_parity(0) == 0
    assert f.depth_parity(1) == 1
    assert f.depth_parity(2) == 0
    assert edge_key(*f.first_edge_on_root_path(0)) == (0, 1)
    assert f.first_edge_on_root_path(2) is None
    _reroot(f, 0)
    assert f.depth_parity(2) == 0
    assert edge_key(*f.first_edge_on_root_path(2)) == (1, 2)
    assert f.first_edge_on_root_path(0) is None


def test_isolated_vertex_defaults():
    f = _weighted(8)
    assert _root(f, 7) == 7
    assert f.depth_parity(7) is None
    assert f.first_edge_on_root_path(7) is None


_GAMMA_CHECK = textwrap.dedent("""
    from dynorient.errors import ConfigurationError
    from dynorient.forest import ChangeStamps, LinkCutForest
    for gamma in (0, -3):
        try:
            LinkCutForest(gamma, ChangeStamps(2))
        except ConfigurationError:
            continue
        raise SystemExit(f"LinkCutForest({gamma}) was built")
    LinkCutForest(1, ChangeStamps(2)).link(0, 1, 1)
    print("refused")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_gamma_below_one_is_a_configuration_error(flags):
    """``LinkCutForest`` refuses gamma 0 and -3 with ConfigurationError,
    also under python -O, and builds a forest at gamma 1."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(forest.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", _GAMMA_CHECK],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


def test_reads_of_an_unseen_vertex_create_no_node():
    f = _weighted(8)
    f.link(0, 1, 4)
    assert f.first_edge_on_root_path(7) is None and _range(f, 7, 0) is None
    assert f.depth_parity(7) is None
    p = _lean()
    p.link(0, 1)
    assert p.find_root(5) == 5 and p.depth_parity(5) is None
    assert not p.connected(5, 5)


def test_path_ops_require_connectivity():
    # with no u..v path, path_update answers None without asking decide
    f = _weighted(8)
    f.link(0, 1, 4)
    seen = []
    assert f.path_update(0, 2, _recording(seen, "min", 1)) is None
    assert f.path_update(0, 0, _recording(seen, None, 1)) is None
    assert seen == []
    assert f.edge_weight(0, 1) == 4


# ----------------------------------------------------------------------
# differential driving against the naive mirror


@contextlib.contextmanager
def _accesses():
    """Count calls of both access functions inside the block."""
    counts = [0]
    saved = forest._access, forest._waccess

    def counted(fn):
        def wrapped(x):
            counts[0] += 1
            return fn(x)
        return wrapped
    forest._access, forest._waccess = counted(saved[0]), counted(saved[1])
    try:
        yield counts
    finally:
        forest._access, forest._waccess = saved


def _unmemoised(mirror, u, *new):
    """Vertices whose parity a write to u's tree may leave out of the
    memo: u's tree, and those of ``new`` the forest has never seen, which
    have no entry yet."""
    out = set(mirror._component(u)) if mirror.has_vertex(u) else {u}
    out.update(x for x in new if not mirror.has_vertex(x))
    return out


def _trees(mirror):
    """How many trees of the mirror hold an edge."""
    return sum(1 for ns in mirror.nbrs.values() if ns) - len(mirror.ew)


def _check_parities(f, mirror, n, changed=()):
    """Every vertex's depth parity against the mirror, read twice so the
    second read comes from the memo.  A vertex the mirror has never seen
    reads None and stays unseen by it.  Outside ``changed``, the tree the
    last write changed, every parity was read before that write, so its
    first read comes from the memo too, with no access at all."""
    with _accesses() as spent:
        for x in range(n):
            if x not in changed:
                assert f.depth_parity(x) == mirror.depth_parity(x), x
    assert spent[0] == 0, "a write dropped the memo of another tree"
    for x in range(n):
        want = mirror.depth_parity(x)
        assert f.depth_parity(x) == want, x
        assert f.depth_parity(x) == want, x


def _parent_edges(f, n):
    """Every vertex's parent edge as a key, None at a root: the whole
    rooting of the forest."""
    out = []
    for x in range(n):
        e = f.first_edge_on_root_path(x)
        out.append(None if e is None else edge_key(*e))
    return out


def _weights(forest, edges):
    return [forest.edge_weight(a, b) for a, b in edges]


def _path_update_step(real, mirror, rng, u, v, edges, n, gamma):
    """One path_update on the real forest, checked against the mirror's
    four separate path operations."""
    rooting = _parent_edges(real, n)
    seen = []
    if u == v or not mirror.connected(u, v):
        assert real.path_update(u, v, _recording(seen, None, 0)) is None
        assert seen == []
        assert _parent_edges(real, n) == rooting
        return "none"
    lo = -mirror.min_weight(u, v)
    hi = gamma - mirror.max_weight(u, v)
    which = rng.choice([None, "min", "max"])
    if rng.random() < 0.2:
        shift = rng.choice([lo - 1 - rng.randrange(3), hi + 1 + rng.randrange(3)])
    else:
        shift = rng.randint(lo, hi)
    decide = _recording(seen, which, shift)
    if not lo <= shift <= hi:
        before = _weights(real, edges)
        with pytest.raises(WeightRangeError):
            real.path_update(u, v, decide)
        assert seen == [(mirror.min_weight(u, v), mirror.max_weight(u, v))]
        assert _weights(real, edges) == before == _weights(mirror, edges)
        assert _parent_edges(real, n) == rooting
        return "range"
    wit, applied = real.path_update(u, v, decide)
    assert applied == shift
    assert seen == [(mirror.min_weight(u, v), mirror.max_weight(u, v))]
    if which is None:
        assert wit is None
    else:
        assert edge_key(*wit) == edge_key(*mirror.find_extreme_edge(u, v, which))
    mirror.add_weight(u, v, shift)
    assert _weights(real, edges) == _weights(mirror, edges)
    assert _parent_edges(real, n) == rooting
    return "path"


def _drive(seed, n, steps, gamma=8):
    """Random link/cut/reroot/shift_edge_weight/path_update and reads beside
    the naive mirror, with every depth parity read after every op,
    rejected links included; reads outside the tree an op changed must
    hit the memo.  Returns the path_update outcomes seen and the most
    trees with an edge held at once."""
    rng = random.Random(seed)
    real = _weighted(gamma)
    mirror = NaiveWeightedForest(gamma)
    edges = []
    kinds = set()
    most = 0
    for _ in range(steps):
        op = rng.randrange(10)
        u = rng.randrange(n)
        v = rng.randrange(n)
        changed = ()
        if op <= 2:
            if u != v and not mirror.connected(u, v):
                changed = _unmemoised(mirror, u, v)
                w = rng.randint(0, gamma)
                real.link(u, v, w)
                mirror.link(u, v, w)
                edges.append((u, v))
            else:
                with pytest.raises(CycleError):
                    real.link(u, v, 0)
        elif op == 3 and edges:
            a, b = edges.pop(rng.randrange(len(edges)))
            changed = _unmemoised(mirror, a)
            real.cut(a, b)
            mirror.cut(a, b)
        elif op == 4:
            changed = _unmemoised(mirror, u)
            _reroot(real, u, mirror)
            assert _root(real, u) == u == mirror.find_root(u)
        elif op == 5 and edges:
            a, b = edges[rng.randrange(len(edges))]
            w = rng.randint(0, gamma)
            delta = w - mirror.edge_weight(a, b)
            assert real.shift_edge_weight(a, b, delta) == w
            assert mirror.shift_edge_weight(a, b, delta) == w
            # a shift past either end changes nothing, the memo included
            for past in (gamma + 1 - w, -w - 1):
                with pytest.raises(WeightRangeError):
                    real.shift_edge_weight(b, a, -past)
            assert real.edge_weight(a, b) == w
        elif op <= 7:
            kinds.add(_path_update_step(real, mirror, rng, u, v, edges, n,
                                        gamma))
        else:
            if edges:
                # single-edge reads go through the orientation bit
                a, b = edges[rng.randrange(len(edges))]
                assert real.edge_weight(a, b) == mirror.edge_weight(a, b)
                assert real.edge_weight(b, a) == mirror.edge_weight(b, a)
            assert _root(real, u) == mirror.find_root(u)
            assert real.depth_parity(u) == mirror.depth_parity(u)
            re_ = real.first_edge_on_root_path(u)
            me = mirror.first_edge_on_root_path(u)
            assert (re_ is None) == (me is None)
            if re_ is not None:
                assert edge_key(*re_) == edge_key(*me)
        _check_parities(real, mirror, n, changed)
        most = max(most, _trees(mirror))
    # final full audit
    assert _parent_edges(real, n) == _parent_edges(mirror, n)
    for a, b in edges:
        assert real.edge_weight(a, b) == mirror.edge_weight(a, b)
        assert real.edge_weight(a, b) + real.edge_weight(b, a) == gamma
    return kinds, most


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_mirror_equivalence_small(seed):
    assert _drive(seed, n=9, steps=700, gamma=16)[1] >= 3


@pytest.mark.parametrize("seed", [11, 12])
def test_mirror_equivalence_medium(seed):
    assert _drive(seed, n=40, steps=900, gamma=16)[1] >= 5


def test_deep_path_no_recursion_trouble():
    n = 3000
    f = _weighted(4, n)
    for i in range(n - 1):
        f.link(i + 1, i, 2)   # keeps root at 0, path grows downward
    assert _root(f, n - 1) == 0
    assert f.depth_parity(n - 1) == (n - 1) & 1
    _shift(f, n - 1, 0, 1)
    assert _range(f, n - 1, 0)[0] == 3
    assert _range(f, 0, n - 1)[1] == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(4, 10))
def test_mirror_equivalence_fuzz(seed, n):
    _drive(seed, n=n, steps=120)


# ----------------------------------------------------------------------
# the one-exposure path primitive


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_path_update_matches_mirror_small(seed):
    assert _drive(seed, n=9, steps=600)[0] == {"none", "range", "path"}


@pytest.mark.parametrize("seed", [11, 12])
def test_path_update_matches_mirror_medium(seed):
    assert _drive(seed, n=40, steps=700, gamma=16)[0] == {
        "none", "range", "path"}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(4, 10))
def test_path_update_matches_mirror_fuzz(seed, n):
    _drive(seed, n=n, steps=120, gamma=16)


def test_path_update_pinned_witnesses_and_shift():
    # a-b-c-d rooted at d, numerators 4, 2, 2 from the a side
    f = _weighted(8)
    f.link(0, 1, 4)
    f.link(1, 2, 2)
    f.link(2, 3, 2)
    seen = []
    assert f.path_update(0, 3, _recording(seen, "min", 0)) == ((1, 2), 0)
    assert f.path_update(3, 0, _recording(seen, "min", 0)) == ((0, 1), 0)
    assert f.path_update(3, 0, _recording(seen, "max", -4)) == ((2, 3), -4)
    assert seen == [(2, 4), (4, 6), (4, 6)]
    assert [f.edge_weight(a, a + 1) for a in range(3)] == [8, 6, 6]
    assert [_root(f, x) for x in range(4)] == [3, 3, 3, 3]
    assert f.path_update(0, 4, _recording(seen, "min", 0)) is None
    assert f.path_update(2, 2, _recording(seen, None, 0)) is None
    assert len(seen) == 3


def test_path_update_deep_path():
    n = 3000
    f = _weighted(4, n)
    for i in range(n - 1):
        f.link(i + 1, i, 2)   # keeps root at 0, path grows downward
    assert f.shift_edge_weight(n // 2, n // 2 + 1, -1) == 1
    seen = []
    assert f.path_update(n - 1, 0, _recording(seen, None, 0)) == (None, 0)
    wit, _ = f.path_update(0, n - 1, _recording(seen, "min", 1))
    assert seen == [(2, 3), (1, 2)]
    assert edge_key(*wit) == (n // 2, n // 2 + 1)
    assert f.edge_weight(n // 2, n // 2 + 1) == 2
    assert f.edge_weight(0, 1) == 3
    with pytest.raises(WeightRangeError):
        f.path_update(n - 1, 0, lambda mn, mx: (None, 3))
    assert _root(f, n - 1) == 0
    assert f.edge_weight(n - 1, n - 2) == 1
    assert f.depth_parity(n - 1) == (n - 1) & 1


# ----------------------------------------------------------------------
# the parity-only layer forest


def _child_first(mirror, a, b):
    """Edge (a, b) with its endpoint farther from the root first."""
    first = mirror.first_edge_on_root_path(a)
    if first is not None and edge_key(*first) == edge_key(a, b):
        return a, b
    return b, a


def _compare_parity(lean, mirror, verts):
    for x in verts:
        assert lean.find_root(x) == mirror.find_root(x), x
        assert lean.depth_parity(x) == mirror.depth_parity(x), x
        for y in verts:
            assert lean.connected(x, y) == mirror.connected(x, y), (x, y)
            assert lean.has_edge(x, y) == mirror.has_edge(x, y), (x, y)
    assert len(lean) == len(mirror.ew)
    assert set(lean.edge_keys()) == set(mirror.ew)


def _drive_parity(seed, n, steps):
    """Random link/cut/set_root on the lean forest beside the naive mirror,
    with every depth parity read after every op; reads outside the tree
    an op changed must hit the memo.  Cuts come with either endpoint
    first; the mirror reroots a cut's first side at it, so it gets the
    child first, which leaves every root where the lean forest's cut does.
    Returns the most trees with an edge held at once."""
    rng = random.Random(seed)
    lean = _lean()
    mirror = NaiveWeightedForest(1)
    edges = []
    most = 0
    for _ in range(steps):
        op = rng.randrange(5)
        u = rng.randrange(n)
        v = rng.randrange(n)
        changed = ()
        if op <= 1:
            if u == v or mirror.connected(u, v):
                with pytest.raises(CycleError):
                    lean.link(u, v)
            else:
                changed = _unmemoised(mirror, u, v)
                lean.link(u, v)
                mirror.link(u, v, 0)
                edges.append((u, v))
            touched = (u, v)
        elif op == 2 and edges:
            a, b = edges.pop(rng.randrange(len(edges)))
            if rng.random() < 0.5:
                a, b = b, a
            c, p = _child_first(mirror, a, b)
            changed = _unmemoised(mirror, a)
            root = mirror.find_root(a)
            assert lean.cut(a, b) == root
            mirror.cut(c, p)
            touched = (a, b)
        else:
            changed = _unmemoised(mirror, u)
            lean.set_root(u)
            mirror.set_root(u)
            touched = (u, v)
        _check_parities(lean, mirror, n, changed)
        _compare_parity(lean, mirror, touched)
        most = max(most, _trees(mirror))
    _compare_parity(lean, mirror, range(n))
    return most


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_parity_forest_matches_mirror_small(seed):
    assert _drive_parity(seed, n=9, steps=700) >= 3


@pytest.mark.parametrize("seed", [11, 12])
def test_parity_forest_matches_mirror_medium(seed):
    assert _drive_parity(seed, n=40, steps=900) >= 5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(4, 10))
def test_parity_forest_matches_mirror_fuzz(seed, n):
    _drive_parity(seed, n=n, steps=120)


@pytest.mark.parametrize("child_first", [True, False])
def test_parity_forest_cut_keeps_both_roots(child_first):
    # a-b-c-d rooted at d
    f = _lean()
    f.link(0, 1)
    f.link(1, 2)
    f.link(2, 3)
    assert f.find_root(0) == 3 and f.depth_parity(0) == 1
    # cut b-c: the parent side {c, d} keeps d, the child side is headed by
    # b; the cut reports the parent side's root
    assert f.cut(*((1, 2) if child_first else (2, 1))) == 3
    assert [f.find_root(x) for x in range(4)] == [1, 1, 3, 3]
    assert [f.depth_parity(x) for x in range(4)] == [1, 0, 1, 0]
    assert not f.connected(1, 2) and f.connected(0, 1)
    assert not f.has_edge(1, 2) and len(f) == 2
    with pytest.raises(MissingEdgeError):
        f.cut(1, 2)
    # link everts a non-root u and keeps v's root
    f.link(0, 2)
    assert [f.find_root(x) for x in range(4)] == [3, 3, 3, 3]
    assert [f.depth_parity(x) for x in range(4)] == [0, 1, 1, 0]
    # after set_root the cut rule follows the new rooting
    f.set_root(1)
    assert f.cut(*((2, 0) if child_first else (0, 2))) == 1
    assert [f.find_root(x) for x in range(4)] == [1, 1, 2, 2]
    with pytest.raises(CycleError):
        f.link(0, 1)
    with pytest.raises(CycleError):
        f.link(1, 1)


def test_parity_forest_deep_path_no_recursion_trouble():
    n = 3000
    f = _lean(n)
    for i in range(n - 1):
        f.link(i + 1, i)      # keeps root at 0, path grows downward
    assert f.find_root(n - 1) == 0
    assert f.depth_parity(n - 1) == (n - 1) & 1
    assert f.connected(0, n - 1)
    f.set_root(n - 1)
    assert f.find_root(0) == n - 1
    assert f.depth_parity(0) == (n - 1) & 1
    mid = n // 2
    f.cut(mid, mid + 1)
    assert f.find_root(0) == mid
    assert f.depth_parity(0) == mid & 1
    assert f.find_root(mid + 1) == n - 1
    assert not f.connected(0, n - 1)
    assert len(f) == n - 2


# ----------------------------------------------------------------------
# the depth-parity memo


def _counted_accesses(monkeypatch):
    """Count calls of both access functions from here on."""
    counts = [0]
    for name in ("_access", "_waccess"):
        def counted(x, fn=getattr(forest, name)):
            counts[0] += 1
            return fn(x)
        monkeypatch.setattr(forest, name, counted)
    return counts


def _weighted_path():
    f = _weighted(8)
    for a in range(3):
        f.link(a, a + 1, 4)         # 0-1-2-3 rooted at 3
    return f


def _lean_path():
    f = _lean()
    for a in range(3):
        f.link(a, a + 1)
    return f


@pytest.mark.parametrize("make", [_weighted_path, _lean_path])
def test_parity_read_creates_no_vertex(make):
    f = make()
    nodes = len(f._v)
    assert f.depth_parity(9) is None
    if isinstance(f, ParityForest):
        assert not f.connected(9, 9) and f.find_root(9) == 9
    else:
        assert f.first_edge_on_root_path(9) is None and _range(f, 9, 0) is None
    assert len(f._v) == nodes


def test_weighted_memo_survives_reads_and_rejected_writes(monkeypatch):
    f = _weighted_path()
    mirror = NaiveWeightedForest(8)
    for a in range(3):
        mirror.link(a, a + 1, 4)
    accesses = _counted_accesses(monkeypatch)
    assert [f.depth_parity(x) for x in range(4)] == [1, 0, 1, 0]
    assert accesses[0] == 4
    with pytest.raises(CycleError):
        f.link(0, 3, 4)
    with pytest.raises(WeightRangeError):
        f.link(0, 5, 9)
    with pytest.raises(MissingEdgeError):
        f.cut(0, 2)
    with pytest.raises(WeightRangeError):
        f.path_update(0, 3, lambda mn, mx: (None, 5))
    _shift(f, 0, 3, 2)
    assert f.shift_edge_weight(2, 1, 6) == 8
    with pytest.raises(WeightRangeError):
        f.shift_edge_weight(1, 2, -1)
    assert f.edge_weight(1, 2) == 0
    assert edge_key(*_extreme(f, 3, 0, "min")) == (2, 3)
    assert _root(f, 0) == 3 and _range(f, 0, 3) == (0, 6)
    spent = accesses[0]
    assert [f.depth_parity(x) for x in range(4)] == [1, 0, 1, 0]
    assert accesses[0] == spent, "a read-only or rejected op dropped the memo"
    # the cut shifts the child side {0} by 0's parity and the relink
    # hangs {1, 2, 3} below 0, shifted by one parity: both re-file the
    # entries, so every read is a memo hit
    _reroot(f, 0, mirror)
    spent = accesses[0]
    assert [f.depth_parity(x) for x in range(4)] == [
        mirror.depth_parity(x) for x in range(4)] == [0, 1, 0, 1]
    assert accesses[0] == spent, "the cut and relink dropped the memo"


def test_lean_memo_survives_reads_and_rejected_writes(monkeypatch):
    f = _lean_path()
    accesses = _counted_accesses(monkeypatch)
    assert [f.depth_parity(x) for x in range(4)] == [1, 0, 1, 0]
    assert accesses[0] == 4
    with pytest.raises(CycleError):
        f.link(0, 3)
    with pytest.raises(CycleError):
        f.link(2, 2)
    with pytest.raises(MissingEdgeError):
        f.cut(0, 2)
    assert f.find_root(0) == 3 and f.connected(0, 3)
    spent = accesses[0]
    assert [f.depth_parity(x) for x in range(4)] == [1, 0, 1, 0]
    assert accesses[0] == spent, "a read-only or rejected op dropped the memo"
    f.cut(1, 2)
    assert [f.depth_parity(x) for x in range(4)] == [1, 0, 1, 0]
    f.link(1, 3)
    assert [f.depth_parity(x) for x in range(4)] == [0, 1, 1, 0]


# ----------------------------------------------------------------------
# the memo follows links, cuts and everts


def _memo_snapshot(f, n):
    return ({x: f.memo_get(x) for x in range(n) if f.memo_get(x) is not None},
            [f.stamps.of[x] for x in range(n)], set(f._v))


def _check_memo_moves(f, mirror, n, before):
    """After one op, every memo entry equals the mirror.  A vertex
    memoised before the op has its stamp moved exactly when its parity
    changed or its entry was dropped; any other vertex's stamp moves only
    with its first node.  Returns (kept, flipped, dropped) entries."""
    entries, stamps, nodes = before
    kept = flipped = dropped = 0
    for x in range(n):
        moved = f.stamps.of[x] != stamps[x]
        p = f.memo_get(x)
        if p is not None:
            assert p == mirror.depth_parity(x), x
        if x in entries:
            changed = p is None or p != entries[x]
            assert moved == changed, (x, entries[x], p)
            if p is None:
                dropped += 1
            elif p != entries[x]:
                flipped += 1
            else:
                kept += 1
        else:
            assert moved == (x in f._v and x not in nodes), x
    f.verify()
    return kept, flipped, dropped


def _fill(f, rng, n):
    """Read every vertex's parity, or now and then empty the memo and
    read a random fifth, so that ops find their endpoints memoised or
    not and trees with fewer entries than vertices."""
    share = rng.choice((1.0, 1.0, 0.2))
    if share < 1:
        for g in list(f._tree.values()):
            f._forget(g)
    for x in range(n):
        if rng.random() < share:
            f.depth_parity(x)


def _tally(total, got):
    return [a + b for a, b in zip(total, got)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weighted_memo_follows_links_cuts_and_path_updates(seed):
    """Random links, cuts with either endpoint first and path_updates on
    H's forest beside the naive mirror, checked by _check_memo_moves."""
    rng = random.Random(seed)
    n, gamma = 24, 8
    real = _weighted(gamma)
    mirror = NaiveWeightedForest(gamma)
    edges = []
    total = [0, 0, 0]
    for _ in range(600):
        _fill(real, rng, n)
        before = _memo_snapshot(real, n)
        u, v = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(4)
        if op <= 1 and u != v and not mirror.connected(u, v):
            w = rng.randint(0, gamma)
            real.link(u, v, w)
            mirror.link(u, v, w)
            edges.append((u, v))
        elif op == 2 and edges:
            a, b = edges.pop(rng.randrange(len(edges)))
            if rng.random() < 0.5:
                a, b = b, a
            real.cut(a, b)
            mirror.cut(a, b)
        elif edges:
            a, b = edges[rng.randrange(len(edges))]
            _path_update_step(real, mirror, rng, a, b, edges, n, gamma)
        total = _tally(total, _check_memo_moves(real, mirror, n, before))
    kept, flipped, dropped = total
    assert kept > 2000 and flipped > 300 and dropped > 20, total


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lean_memo_follows_links_cuts_and_set_root(seed):
    """Random links, cuts with either endpoint first and set_roots on the
    layer forest beside the naive mirror, checked by _check_memo_moves."""
    rng = random.Random(seed)
    n = 24
    lean = _lean()
    mirror = NaiveWeightedForest(1)
    edges = []
    total = [0, 0, 0]
    for _ in range(600):
        _fill(lean, rng, n)
        before = _memo_snapshot(lean, n)
        u, v = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(4)
        if op <= 1 and u != v and not mirror.connected(u, v):
            lean.link(u, v)
            mirror.link(u, v, 0)
            edges.append((u, v))
        elif op == 2 and edges:
            a, b = edges.pop(rng.randrange(len(edges)))
            if rng.random() < 0.5:
                a, b = b, a
            assert lean.cut(a, b) == mirror.find_root(a)
            mirror.cut(*_child_first(mirror, a, b))
        else:
            lean.set_root(u)
            mirror.set_root(u)
        total = _tally(total, _check_memo_moves(lean, mirror, n, before))
    kept, flipped, dropped = total
    assert kept > 2000 and flipped > 300 and dropped > 20, total


@pytest.mark.parametrize("make", [_weighted_path, _lean_path])
def test_a_cut_whose_child_side_outgrows_the_memo_drops_it(make):
    """On 0-1-2-3 rooted at 3, a cut walks its child side over the
    neighbour lists only while the walk has passed no more vertices than the
    tree has memo entries; past that it drops the tree's entries."""
    def memoised(*xs):
        f = make()
        for x in xs:
            f.depth_parity(x)
        return f, [f.stamps.of[x] for x in range(4)]

    # child side {0}, one vertex, against the entries {0, 3}: both kept,
    # and 0's parity shifts by its old one
    f, stamps = memoised(0, 3)
    f.cut(0, 1)
    assert (f.memo_get(0), f.memo_get(3)) == (0, 0)
    assert [f.stamps.of[x] - stamps[x] for x in range(4)] == [1, 0, 0, 0]
    f.verify()
    # child side {0, 1} against the entries {0, 1, 3}: kept, and the
    # child 1's parity is even, so no entry flips and no stamp moves
    f, stamps = memoised(0, 1, 3)
    f.cut(1, 2)
    assert [f.memo_get(x) for x in (0, 1, 3)] == [1, 0, 0]
    assert [f.stamps.of[x] for x in range(4)] == stamps
    f.verify()
    # child side {0, 1, 2}, more vertices than the entries {0, 3}: the
    # walk stops and both entries are dropped, each stamped
    f, stamps = memoised(0, 3)
    f.cut(3, 2)
    assert (f.memo_get(0), f.memo_get(3)) == (None, None)
    assert [f.stamps.of[x] - stamps[x] for x in range(4)] == [1, 0, 0, 1]
    assert [f.depth_parity(x) for x in range(4)] == [0, 1, 0, 0]
    f.verify()


@pytest.mark.parametrize("make", [_weighted_path, _lean_path])
def test_verify_catches_a_stale_entry_a_misfiled_group_and_a_stray_edge(make):
    for corrupt in ("entry", "group", "neighbours"):
        f = make()
        for x in range(4):
            f.depth_parity(x)
        f.verify()
        if corrupt == "entry":
            f._parity[2] ^= 1
        elif corrupt == "group":
            g = f._tree.pop(3)
            g.root = 0
            f._tree[0] = g
        else:
            f._v[0].nbrs.append(f._v[2])
            f._v[2].nbrs.append(f._v[0])
        with pytest.raises(ConsistencyError):
            f.verify()
