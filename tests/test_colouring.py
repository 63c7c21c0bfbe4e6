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


# ----------------------------------------------------------------------
# the per-vertex memo and its change stamps

MODES = ("forest-decomposition", "pseudoforest")


def block_churn(d, rng, blocks, size, steps, dense=0.8):
    """Churn disjoint blocks of ``size`` vertices, as the read-mix
    benchmark does: each update picks a uniform block, which gains a
    free pair while at most ``dense`` of its pairs are live and otherwise
    gains or loses one with equal odds.  Yields after every update."""
    free = [[(b * size + i, b * size + j)
             for i in range(size) for j in range(i + 1, size)]
            for b in range(blocks)]
    live = [[] for _ in range(blocks)]
    full = len(free[0])
    for _ in range(steps):
        b = rng.randrange(blocks)
        grow = len(live[b]) <= dense * full or rng.random() < 0.5
        src, dst = (free[b], live[b]) if grow and free[b] else (live[b], free[b])
        key = src.pop(rng.randrange(len(src)))
        dst.append(key)
        (d.insert_edge if src is free[b] else d.delete_edge)(*key)
        yield


def assert_matches_fresh(d, col, v):
    """col's answer for v equals a colouring built now, field by field,
    and so does the forest_queries count it charges."""
    fresh = ProductColouring(d, mode=col.mode())
    before = col.forest_queries
    got = col.colour(v)
    want = fresh.colour(v)
    assert (got.digits, got.radices, got.code) == (
        want.digits, want.radices, want.code), (v, got, want)
    assert col.forest_queries - before == fresh.forest_queries, v
    return got


@pytest.mark.parametrize("seed", [3, 4])
def test_memoised_colours_match_a_fresh_colouring_after_every_update(seed):
    """After every update of a dense block churn, every vertex is asked
    in a shuffled order in both modes; each answer equals a colouring
    built at that point.  A hit hands back the code object it memoised,
    a miss makes a new one, and the replay takes each path often and
    inverts some layer cycles."""
    rng = random.Random(seed)
    order = random.Random(seed + 1)
    n = 24
    d = decomposer(n=n, paranoid=False)
    cols = [ProductColouring(d, mode=m) for m in MODES]
    last = [{} for _ in cols]
    hits = misses = 0
    for _ in block_churn(d, rng, 2, 12, 400):
        vs = list(range(n))
        order.shuffle(vs)
        for col, seen in zip(cols, last):
            for v in vs:
                got = assert_matches_fresh(d, col, v)
                if seen.get(v) is got:
                    hits += 1
                else:
                    misses += 1
                seen[v] = got
    assert hits > 50 and misses > 50, (hits, misses)
    assert d.inversions > 0 and d.incidence


def test_a_never_seen_vertex_linked_into_a_layer_is_asked_again():
    # vertex 3 has no node in layer 0 until its edge hangs it from the
    # root 1; only the stamp bumped with its new node says so
    d = decomposer()
    stage(d, TRIANGLE)
    col = ProductColouring(d, mode="forest-decomposition")
    old = col.colour(3)
    assert old.digits == (0, 0)
    stage(d, [(3, 1, 7)])
    assert d.F[0].has_edge(3, 1) and not d.m_tail[0].get(3)
    new = assert_matches_fresh(d, col, 3)
    assert new.digits == (1, 0) != old.digits


def test_an_inversion_moves_the_reserved_digit():
    # the designated tail 1 slides to 2; in pseudoforest mode 1's
    # reserved digit is read off the tails, not a forest
    d = decomposer()
    stage(d, TRIANGLE)
    col = ProductColouring(d, mode="pseudoforest")
    old = [col.colour(v).digits for v in range(3)]
    assert old[1] == (2,)
    d._invert(0, (1, 2))
    assert d.m_tail[0] == {2: (1, 2)}
    new = [assert_matches_fresh(d, col, v).digits for v in range(3)]
    assert new[2] == (2,) and new[1] != (2,)


def test_pool_edits_restamp_the_pooled_parities_and_the_pool_factor():
    # pooled parities count from each component's smallest vertex: joining
    # {3, 4} to {1, 2} by (1, 3) measures 3 and 4 from 1 instead of 3,
    # and taking (1, 3) out again measures them from 3.  The pool's own
    # edits are driven directly beside the tree path 0 -> 1 -> 2, and
    # vertex 5, never pooled, sees the pooled factor turn on and off.
    d = decomposer()
    stage(d, TRIANGLE[:2])
    col = ProductColouring(d, mode="forest-decomposition")

    def pooled_digits():
        return [assert_matches_fresh(d, col, v).digits[1:] for v in range(6)]

    assert pooled_digits() == [()] * 6
    d._pool_add((3, 4))
    d._pool_add((1, 2))
    apart = pooled_digits()
    assert apart == [(0,), (0,), (1,), (0,), (1,), (0,)]
    d._pool_add((1, 3))
    assert pooled_digits() == [(0,), (0,), (1,), (1,), (0,), (0,)]
    d._pool_discard((1, 3))
    assert pooled_digits() == apart
    d._pool_discard((1, 2))
    d._pool_discard((3, 4))
    assert pooled_digits() == [()] * 6


def test_h_turning_non_empty_and_empty_again_moves_every_colour():
    d = decomposer()
    cols = [ProductColouring(d, mode=m) for m in MODES]
    for col in cols:
        assert col.colour(5).digits == ()
    d.insert_edge(0, 1)
    assert d.refine.in_h
    for col in cols:
        # 5 is no endpoint: the epoch alone says its radices grew
        assert assert_matches_fresh(d, col, 5).digits == (0,)
    d.delete_edge(0, 1)
    assert not d.refine.in_h
    for col in cols:
        assert assert_matches_fresh(d, col, 5).digits == ()


def test_a_closed_cycle_gives_its_root_the_reserved_digit():
    # 2 roots the path 0 -> 1 -> 2 until (0, 2) closes the cycle at tail
    # 2.  The failed link drops no parity and the pool is already on, by
    # a cycle on 5, 6 and 7, so only the pooled component's stamps say
    # that 2 took the reserved digit.
    d = decomposer()
    stage(d, [(u + 5, v + 5, cu) for u, v, cu in TRIANGLE] + TRIANGLE[:2])
    assert d.m_tail[0] == {6: (6, 7)}
    col = ProductColouring(d, mode="pseudoforest")
    assert col.colour(2).digits == (0,)
    stage(d, TRIANGLE[2:])
    assert d.m_tail[0] == {2: (0, 2), 6: (6, 7)}
    assert assert_matches_fresh(d, col, 2).digits == (2,)


def test_a_layer_turning_empty_drops_its_digit_from_every_colour():
    d = decomposer()
    stage(d, [(0, 1, 7)])
    assert len(d.F[0]) == 1 and not d.refine.in_h
    cols = [ProductColouring(d, mode=m) for m in MODES]
    for col in cols:
        assert col.colour(5).digits == (0,)
    d.delete_edge(0, 1)
    assert not len(d.F[0])
    for col in cols:
        assert assert_matches_fresh(d, col, 5).digits == ()


@pytest.mark.parametrize("mode", MODES)
def test_a_repeated_query_is_a_memo_hit_with_no_forest_read(
        mode, monkeypatch):
    d = decomposer()
    stage(d, TRIANGLE)
    d.insert_edge(3, 4)
    col = ProductColouring(d, mode=mode)
    first = [col.colour(v) for v in range(d.params.n_cap)]
    reads = col.forest_queries
    calls = []
    for name in ("_access", "_waccess"):
        def counted(x, fn=getattr(forest, name), name=name):
            calls.append(name)
            return fn(x)
        monkeypatch.setattr(forest, name, counted)
    for cls in (forest.ParityForest, forest.LinkCutForest):
        def counted(self, v, fn=cls.depth_parity):
            calls.append("depth_parity")
            return fn(self, v)
        monkeypatch.setattr(cls, "depth_parity", counted)

    def counted_pass(self, v, fn=ProductColouring._pass):
        calls.append("_pass")
        return fn(self, v)
    monkeypatch.setattr(ProductColouring, "_pass", counted_pass)
    again = [col.colour(v) for v in range(d.params.n_cap)]
    assert calls == []
    assert all(a is b for a, b in zip(again, first))
    # a hit charges the reads its pass counted
    assert col.forest_queries == 2 * reads
    # every vertex is memoised, and neither -1 nor n_cap may alias one
    for bad in (-1, d.params.n_cap):
        with pytest.raises(VertexRangeError):
            col.colour(bad)
    assert calls == ["_pass", "_pass"]
    assert col.forest_queries == 2 * reads


_MEMO_UNDER_O = textwrap.dedent("""
    import random
    from dynorient import ArboricityDecomposer, Params, ProductColouring
    modes = ("forest-decomposition", "pseudoforest")
    rng = random.Random(5)
    size, blocks = 8, 3
    n = size * blocks
    d = ArboricityDecomposer(Params(n_cap=n, gamma=8, epsilon=1.0))
    cols = [ProductColouring(d, mode=m) for m in modes]
    free = [(b * size + i, b * size + j) for b in range(blocks)
            for i in range(size) for j in range(i + 1, size)]
    live = []
    last = {}
    hits = asked = 0
    for step in range(160):
        if len(live) > 0.8 * len(free + live) and rng.random() < 0.5:
            key = live.pop(rng.randrange(len(live)))
            free.append(key)
            d.delete_edge(*key)
        else:
            key = free.pop(rng.randrange(len(free)))
            live.append(key)
            d.insert_edge(*key)
        col = cols[step % 2]
        for _ in range(40):
            v = rng.randrange(n)
            before = col.forest_queries
            got = col.colour(v)
            fresh = ProductColouring(d, mode=col.mode())
            want = fresh.colour(v)
            if (got.digits, got.radices, got.code,
                    col.forest_queries - before) != (
                    want.digits, want.radices, want.code,
                    fresh.forest_queries):
                raise SystemExit(f"step {step}: {v} {got} != {want}")
            hits += last.get((col.mode(), v)) is got
            last[col.mode(), v] = got
            asked += 1
    assert False, "-O strips this assert, so only a run without -O fails"
    print(asked, hits)
""")


def test_memoised_colours_match_fresh_ones_under_python_O():
    """A read-mix-shaped churn, one colouring mode per update and 40
    queries after each, checked against fresh colourings with ``-O``:
    the memo's exactness must not rest on an assert."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(forest.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", _MEMO_UNDER_O],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    asked, hits = map(int, proc.stdout.split())
    assert asked == 160 * 40 and 50 < hits < asked - 50, (asked, hits)
