import os
import random
import subprocess
import sys
import textwrap

import pytest

from dynorient import forest
from dynorient.colouring import ColourCode, ProductColouring
from dynorient.decompose import ArboricityDecomposer
from dynorient.errors import (ColourCodeError, ConfigurationError,
                              DynOrientError, VertexRangeError)
from dynorient.forest import edge_key
from dynorient.oracles import is_proper
from dynorient.params import Params


def decomposer(n=10, gamma=8, paranoid=True):
    p = Params(n_cap=n, gamma=gamma, epsilon=1.0)
    return ArboricityDecomposer(p, paranoid=paranoid)


def stage(d, batch):
    """Install bundles with hand-picked counts, then let the decomposer
    place them.  Entries are (u, v, cu); the v side gets gamma - cu."""
    g = d.g
    gamma = d.params.gamma
    for u, v, cu in batch:
        g.add_bundle(u, v)
        g.set_counts_raw(u, v, cu, gamma - cu)
    for u, v, cu in batch:
        if cu:
            g.bump_load(u, cu)
        if gamma - cu:
            g.bump_load(v, gamma - cu)
    d._apply_diffs([edge_key(u, v) for u, v, _ in batch])
    d._drain_queue()


# oriented 0 -> 1 -> 2 -> 0; the closing edge (1, 2) gets designated
TRIANGLE = [(0, 1, 7), (1, 2, 7), (0, 2, 1)]


def codes(col, n):
    return [col.colour(v).code for v in range(n)]


def test_code_packing_is_little_endian():
    c = ColourCode([1, 0, 2], [2, 2, 3])
    assert c.code == 1 + 0 * 2 + 2 * 4 == 9
    assert int(c) == 9
    assert c == ColourCode((1, 0, 2), (2, 2, 3))
    assert c != ColourCode([1, 0], [2, 3])
    assert len({c, ColourCode((1, 0, 2), (2, 2, 3))}) == 1


@pytest.mark.parametrize("digits, radices", [([1, 2], [2, 2]),
                                             ([0, -1], [2, 3]),
                                             ([0, 1], [2]),
                                             ([0], [2, 3])])
def test_code_rejects_a_digit_outside_its_radix_or_a_length_mismatch(
        digits, radices):
    with pytest.raises(ColourCodeError):
        ColourCode(digits, radices)
    assert issubclass(ColourCodeError, DynOrientError)


_CODE_UNDER_O = textwrap.dedent("""
    from dynorient import ColourCode
    from dynorient.errors import ColourCodeError
    for digits, radices in (([1, 2], [2, 2]), ([0, 1], [2])):
        try:
            ColourCode(digits, radices)
        except ColourCodeError:
            continue
        raise SystemExit(f"accepted {digits} over {radices}")
    print("rejected")
""")


def test_code_checks_its_digits_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(forest.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", _CODE_UNDER_O],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        ProductColouring(decomposer(), mode="rainbow")


@pytest.mark.parametrize("mode", ["forest-decomposition", "pseudoforest"])
def test_empty_graph_needs_one_colour(mode):
    col = ProductColouring(decomposer(), mode=mode)
    assert col.mode() == mode
    assert col.colour_count() == 1
    assert col.colour(3).digits == ()
    assert col.colour(3).code == 0


def test_fresh_edge_colours_through_the_ambiguous_factor():
    d = decomposer()
    d.insert_edge(0, 1)
    for mode in ("forest-decomposition", "pseudoforest"):
        col = ProductColouring(d, mode=mode)
        # the lone bundle sits at an even split, so the only factor is
        # the ambiguous forest: radix 2 regardless of mode
        assert col.colour_count() == 2
        assert {col.colour(0).code, col.colour(1).code} == {0, 1}
        assert col.colour(7).code == 0


def test_cycle_root_takes_the_reserved_digit():
    d = decomposer()
    stage(d, TRIANGLE)
    assert d.m_tail[0] == {1: (1, 2)}
    col = ProductColouring(d, mode="pseudoforest")
    assert col.colour_count() == 3
    assert col.colour(1).digits == (2,)
    assert col.colour(0).digits == (1,)
    assert col.colour(2).digits == (0,)
    assert is_proper(d.g.bundles, lambda v: col.colour(v).code)


def test_forest_mode_splits_the_cycle_edge_off():
    d = decomposer()
    stage(d, TRIANGLE)
    col = ProductColouring(d, mode="forest-decomposition")
    # two parts: the tree layer and the pooled cycle edge
    assert col.colour_count() == 2 ** len(d.forests()) == 4
    assert codes(col, 3) == [1, 0, 2]
    assert is_proper(d.g.bundles, lambda v: col.colour(v).code)


def test_radix_product_counts_every_active_factor():
    d = decomposer()
    stage(d, TRIANGLE)
    d.insert_edge(3, 4)
    # layer plus cycle edge plus ambiguous forest
    forest = ProductColouring(d, mode="forest-decomposition")
    pseudo = ProductColouring(d, mode="pseudoforest")
    assert forest.colour_count() == 8
    assert pseudo.colour_count() == 2 * 3
    for col in (forest, pseudo):
        h_digits = {col.colour(3).digits[-1], col.colour(4).digits[-1]}
        assert h_digits == {0, 1}
        assert is_proper(d.g.bundles, lambda v: col.colour(v).code)


def test_queries_are_cheap_and_repeatable():
    d = decomposer()
    stage(d, TRIANGLE)
    d.insert_edge(3, 4)
    col = ProductColouring(d, mode="pseudoforest")
    for v in range(5):
        before = col.forest_queries
        first = col.colour(v)
        spent = col.forest_queries - before
        assert spent <= 2 * len(first.digits)
        assert col.colour(v) == first


@pytest.mark.parametrize("mode", ["forest-decomposition", "pseudoforest"])
def test_out_of_range_vertex_is_rejected_before_any_read(mode, monkeypatch):
    d = decomposer()
    stage(d, TRIANGLE)
    d.insert_edge(3, 4)
    col = ProductColouring(d, mode=mode)
    accesses = []
    for name in ("_access", "_waccess"):
        def counted(x, fn=getattr(forest, name)):
            accesses.append(x)
            return fn(x)
        monkeypatch.setattr(forest, name, counted)
    for bad in (-1, d.params.n_cap):
        with pytest.raises(VertexRangeError):
            col.colour(bad)
    assert col.forest_queries == 0
    assert accesses == []
    assert col.colour(d.params.n_cap - 1).radices


_REJECT_UNDER_O = textwrap.dedent("""
    from dynorient import ArboricityDecomposer, Params, ProductColouring
    from dynorient.errors import VertexRangeError
    d = ArboricityDecomposer(Params(n_cap=6, gamma=8, epsilon=1.0))
    d.insert_edge(0, 1)
    for mode in ("forest-decomposition", "pseudoforest"):
        col = ProductColouring(d, mode=mode)
        for bad in (-1, 6):
            try:
                col.colour(bad)
            except VertexRangeError:
                continue
            raise SystemExit(f"{mode} answered vertex {bad}")
    print("rejected")
""")


def test_out_of_range_vertex_is_rejected_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(forest.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", _REJECT_UNDER_O],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


@pytest.mark.parametrize("mode", ["forest-decomposition", "pseudoforest"])
@pytest.mark.parametrize("seed", [5, 21])
def test_properness_survives_churn(mode, seed):
    rng = random.Random(seed)
    n = 10
    d = decomposer(n=n, paranoid=False)
    col = ProductColouring(d, mode=mode)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set()
    for _ in range(110):
        if edges and (rng.random() < 0.35 or len(edges) > 30):
            u, v = rng.choice(sorted(edges))
            d.delete_edge(u, v)
            edges.discard((u, v))
        else:
            u, v = rng.choice(pairs)
            if (u, v) in edges:
                continue
            d.insert_edge(u, v)
            edges.add((u, v))
        assert is_proper(edges, lambda v: col.colour(v).code)
        for v in range(n):
            # colour() packs its code unchecked; the checked constructor
            # must agree on every field
            got = col.colour(v)
            want = ColourCode(got.digits, got.radices)
            assert got == want and got.code == want.code
            assert type(got.digits) is type(got.radices) is tuple
        if mode == "forest-decomposition":
            assert col.colour_count() == 2 ** len(d.forests())
        else:
            layers = sum(1 for i in range(len(d.F)) if len(d.F[i]) or d.m[i])
            h = 2 if d.refine.in_h else 1
            assert col.colour_count() == h * 3 ** layers
    d.verify()
    for u, v in sorted(edges):
        d.delete_edge(u, v)
    assert col.colour_count() == 1
