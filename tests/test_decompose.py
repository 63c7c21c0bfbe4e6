import itertools
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest

from dynorient import decompose
from dynorient.decompose import ArboricityDecomposer
from dynorient.errors import (ConfigurationError, ConsistencyError,
                              DuplicateEdgeError, MissingEdgeError,
                              VertexRangeError)
from dynorient.forest import edge_key
from dynorient.oracles import exact_arboricity, is_forest
from dynorient.params import Params


def decomposer(n=10, gamma=8, paranoid=True, **kw):
    p = Params(n_cap=n, gamma=gamma, epsilon=kw.pop("epsilon", 1.0))
    return ArboricityDecomposer(p, paranoid=paranoid)


def stage(d, *batches):
    """Install full bundles with hand-picked counts and consistent loads,
    then let the decomposer slot and place them.  Slot choice depends on
    what earlier batches already occupy, so arrival order is part of the
    fixture.  Entries are (u, v, cu); the v side gets gamma - cu copies.
    """
    g = d.g
    gamma = d.params.gamma
    for batch in batches:
        touched = []
        for u, v, cu in batch:
            g.add_bundle(u, v)
            g.set_counts_raw(u, v, cu, gamma - cu)
            touched.append(edge_key(u, v))
        for u, v, cu in batch:
            if cu:
                g.bump_load(u, cu)
            if gamma - cu:
                g.bump_load(v, gamma - cu)
        d._apply_diffs(touched)
        d._drain_queue()


# oriented 0 -> 1 -> 2 -> 0, every count at a boundary, all loads equal
TRIANGLE = [(0, 1, 7), (1, 2, 7), (0, 2, 1)]


def test_rejects_a_gamma_too_small_for_the_low_cutoff():
    # the low cutoff 2 must stay strictly below gamma // 2
    for gamma in (4, 5):
        with pytest.raises(ConfigurationError):
            ArboricityDecomposer(Params(n_cap=4, gamma=gamma))
    ArboricityDecomposer(Params(n_cap=4, gamma=6))


def test_single_edge_stays_out_of_the_layers():
    d = decomposer()
    d.insert_edge(0, 1)
    assert d.forests() == [[(0, 1)]]
    assert not d.split.where and not d.placed
    d.verify(alpha=1)


def test_duplicate_and_missing_raise():
    d = decomposer()
    d.insert_edge(0, 1)
    with pytest.raises(DuplicateEdgeError):
        d.insert_edge(1, 0)
    with pytest.raises(MissingEdgeError):
        d.delete_edge(0, 2)


def test_staged_cycle_designates_the_closing_edge():
    d = decomposer()
    stage(d, TRIANGLE)
    assert d.placed == {(0, 1): ("F", 0), (0, 2): ("F", 0), (1, 2): ("M", 0)}
    assert d.m_tail[0] == {1: (1, 2)}
    assert d.F[0].find_root(0) == 1
    assert d.forests() == [[(0, 1), (0, 2)], [(1, 2)]]
    d.verify(alpha=exact_arboricity(sorted(d.g.bundles)))


def test_cycle_inversion_shifts_counts_and_slides_the_root():
    d = decomposer()
    stage(d, TRIANGLE)
    loads = list(d.g.loads)
    d._invert(0, (1, 2))
    # every rounding on the loop flips, loads stay put, no repairs needed
    assert d.g.loads == loads
    assert d.g.counts(0, 1) == (1, 7)
    assert d.g.counts(0, 2) == (7, 1)
    assert d.g.counts(1, 2) == (1, 7)
    assert d.split.where == {(0, 1): (1, 0), (0, 2): (0, 0), (1, 2): (2, 0)}
    assert d.m_tail[0] == {2: (1, 2)}
    assert d.F[0].find_root(0) == 2
    assert d.inversions == 1 and d.repair_pairs == 0
    d.verify()
    # a second inversion walks the loop back to where it started
    d._invert(0, (1, 2))
    assert d.g.counts(0, 1) == (7, 1)
    assert d.g.counts(0, 2) == (1, 7)
    assert d.g.counts(1, 2) == (7, 1)
    assert d.m_tail[0] == {1: (1, 2)}
    assert d.F[0].find_root(0) == 1
    d.verify()


def test_cutting_the_tree_demotes_the_designated_edge():
    d = decomposer()
    stage(d, TRIANGLE)
    assert (1, 2) in d.m[0]
    d.delete_edge(0, 1)
    # the two survivors cannot close a cycle, so no designation remains
    assert all(not ms for ms in d.m)
    assert set(d.placed) | set(d.refine.in_h) == {(0, 2), (1, 2)}
    d.verify()


def test_repair_rebalances_an_invalid_direction():
    d = decomposer(n=2)
    stage(d, [(0, 1, 7)])
    assert d.placed == {(0, 1): ("F", 0)}
    assert d.g.loads == [7, 1]
    d._repair([(0, 1)])
    d._drain_queue()
    # five copies come off 0 -> 1 before the gap closes; reinsertion
    # alternates ends and parks the bundle in the ambiguous middle
    assert d.repair_pairs == 5
    assert d.g.counts(0, 1) == (4, 4)
    assert d.g.loads == [4, 4]
    assert (0, 1) in d.refine.in_h
    assert not d.placed and not d.split.where
    d.verify(alpha=1)


def test_label_clash_switch_relayers_two_designated_edges():
    # Three slot-0 triangles, then a five-cycle and a four-cycle in slot 1.
    # The four-cycle's designated edge (2, 6) lands between the layer-0
    # designated edges (1, 2) and (6, 9) in the pool: a label clash.  The
    # restoring switch inverts both loops at the shared vertex 6 and swaps
    # the two edges' layers, after which both re-enter as tree edges.
    d = decomposer()
    stage(
        d,
        [(0, 1, 7), (1, 2, 7), (0, 2, 1),
         (3, 6, 1), (3, 9, 7), (6, 9, 1),
         (5, 7, 7), (7, 8, 7), (5, 8, 1)],
        [(0, 8, 1), (3, 7, 7), (7, 9, 7), (8, 9, 1)],
        [(0, 3, 7)],
        [(1, 5, 7), (1, 6, 1), (2, 5, 1), (2, 6, 7)],
    )
    assert d.inversions == 2 and d.surplus_ops == 1 and d.repair_pairs == 0
    assert d.placed[(2, 6)] == ("F", 0)
    assert d.placed[(6, 9)] == ("F", 1)
    assert d.m == [{(1, 2), (7, 8)}, {(0, 3)}]
    assert d.split.where[(2, 6)] == (6, 0)
    assert d.split.where[(6, 9)] == (6, 1)
    assert d.g.counts(2, 6) == (1, 7)
    assert d.g.counts(3, 6) == (7, 1)
    assert d.g.counts(6, 9) == (7, 1)
    assert all(l == 16 for v, l in enumerate(d.g.loads) if v != 4)
    assert d.forests() == [
        [(0, 1), (0, 2), (2, 6), (3, 6), (3, 9), (5, 7), (5, 8)],
        [(0, 8), (1, 5), (1, 6), (2, 5), (3, 7), (6, 9), (7, 9), (8, 9)],
        [(0, 3), (1, 2), (7, 8)],
    ]
    d.verify(alpha=exact_arboricity(sorted(d.g.bundles)))


def dense_churn(d, rng, n, steps, dense_at, sparse_odds):
    """Churn a near-complete graph on n vertices: delete with odds 0.5
    above ``dense_at`` edges and ``sparse_odds`` at or below it, else
    insert a free pair.  Yields after every update."""
    edges = set()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(steps):
        dense = len(edges) > dense_at
        if edges and rng.random() < (0.5 if dense else sparse_odds):
            key = rng.choice(sorted(edges))
            d.delete_edge(*key)
            edges.discard(key)
        else:
            free = [k for k in pairs if k not in edges]
            if not free:
                continue
            key = rng.choice(free)
            d.insert_edge(*key)
            edges.add(key)
        yield


@pytest.mark.parametrize("seed", [2, 45, 92, 134])
def test_dense_churn_exercises_inversion_repairs(seed):
    # near-complete graphs churned under per-operation audits; these seeds
    # historically drove a rounding up a load gap after an inversion
    rng = random.Random(seed)
    n = rng.choice([8, 10, 12, 14])
    gamma = rng.choice([8, 16])
    p = Params(n_cap=n, gamma=gamma, epsilon=0.5)
    d = ArboricityDecomposer(p, paranoid=True)
    for _ in dense_churn(d, rng, n, 150, n * (n - 1) // 2 * 0.8, 0.1):
        pass
    assert d.inversions >= 1 and d.repair_pairs >= 1


def test_paranoid_update_audits_the_refinement_once(monkeypatch):
    """A paranoid decomposer runs ``RefinementEngine.verify`` once per
    update, from its own ``verify``, and not again inside the update."""
    from dynorient.refine import RefinementEngine
    audits = []
    inner = RefinementEngine.verify

    def counted(self, *args, **kw):
        audits.append(self)
        return inner(self, *args, **kw)

    monkeypatch.setattr(RefinementEngine, "verify", counted)
    rng = random.Random(2)
    d = decomposer(n=10)
    updates = 0
    for _ in dense_churn(d, rng, 10, 200, 36, 0.1):
        updates += 1
    assert updates == 200 and d.inversions >= 1
    assert len(audits) == updates and set(audits) == {d.refine}


@pytest.mark.parametrize("seed", [2, 45])
def test_out_degree_matches_the_h_root_path_definition(seed):
    # out_degree reads whether v has an H parent off the table H's
    # orienter writes; the reference is the link-cut forest's own root path
    rng = random.Random(seed)
    n = 12
    d = decomposer(n=n, paranoid=False, epsilon=0.5)
    h = d.refine.H
    h_parents = 0
    for _ in dense_churn(d, rng, n, 150, n * (n - 1) // 2 * 0.8, 0.1):
        for v in range(n):
            up = h.first_edge_on_root_path(v) is not None
            h_parents += up
            assert d.out_degree(v) == d.split.out_degree(v) + up, v
    assert h_parents > 0


@pytest.mark.parametrize("seed", [2, 92])
def test_rounded_out_edges_match_a_scan_of_every_bundle(seed):
    # rounded_out_edges walks v's out-neighbour set; the reference scans
    # every bundle, rounding non-H ones by their true counts (ties point
    # away from the smaller id) and taking v's H edge from the link-cut
    # forest's own root path; the count is out_degree's
    rng = random.Random(seed)
    n = 12
    d = decomposer(n=n, paranoid=False, epsilon=0.5)
    in_h = d.refine.in_h
    h = d.refine.H
    h_edges = 0
    for _ in dense_churn(d, rng, n, 150, n * (n - 1) // 2 * 0.8, 0.1):
        want = {v: set() for v in range(n)}
        for key in d.g.bundles:
            if key in in_h:
                continue
            a, b = key
            ca, cb = d.store.true_counts(a, b)
            want[a if ca >= cb else b].add(key)
        for v in range(n):
            fe = h.first_edge_on_root_path(v)
            if fe is not None:
                want[v].add(edge_key(*fe))
        h_edges += len(in_h)
        for v in range(n):
            got = d.refine.rounded_out_edges(v)
            assert len(got) == len(set(got)), v
            assert all(t == v for t, _ in got), v
            assert {edge_key(*e) for e in got} == want[v], v
            assert len(got) == d.out_degree(v), v
    assert h_edges > 0


def test_link_cut_accesses_per_update_stay_in_budget(monkeypatch):
    """Link-cut accesses per dense-churn update, counted by wrapping the
    forest module's two access functions: ``_waccess`` (H) and ``_access``
    (the layer trees).  Seed 1, n=12, gamma=8, 500 generator steps; the
    first 100 updates warm up and the remaining 388 are counted (the
    generator yields nothing on a step that finds the graph complete).
    With four H path exposures per cycle rotation and a ``connected``
    test per S-edge, H made 15.13 accesses per update and the layers 12.35
    (with ``connected`` on the designated edge in ``_unplace``); one
    exposure per S-edge and one root read there give 5.71 and 11.48.
    ``_place`` calling ``link`` alone, with no root read before it, and
    taking its ``CycleError`` as the designated-edge case gives 9.85 for
    the layers, and ``_unplace`` taking the old root from the layer
    ``cut`` instead of a ``find_root`` before it gives 7.83.  Root walks
    down an accessed path (``_wfirst`` on H, ``_first`` on the layers)
    are pinned too: H made 0.9485 per update, all in ``path_update``,
    while a parent-pointer mirror beside it reversed root paths; an H
    ``link`` and ``cut`` that report the roots they move walk once when an
    evert moves a root, 1.8711 in all, and the layers walk 2.8892."""
    from dynorient import forest
    counts = {"H": 0, "layers": 0, "H walks": 0, "layer walks": 0}

    def counted(fn, name):
        def wrapped(x):
            counts[name] += 1
            return fn(x)
        return wrapped

    monkeypatch.setattr(forest, "_waccess", counted(forest._waccess, "H"))
    monkeypatch.setattr(forest, "_access", counted(forest._access, "layers"))
    monkeypatch.setattr(forest, "_wfirst",
                        counted(forest._wfirst, "H walks"))
    monkeypatch.setattr(forest, "_first", counted(forest._first, "layer walks"))
    rng = random.Random(1)
    n = 12
    d = decomposer(n=n, paranoid=False)
    for step, _ in enumerate(dense_churn(d, rng, n, 500,
                                         n * (n - 1) // 2 * 0.8, 0.1)):
        if step == 99:
            counts.update(dict.fromkeys(counts, 0))
    updates = step + 1 - 100
    assert updates == 388
    assert counts["H"] / updates <= 5.71, counts
    assert counts["layers"] / updates <= 7.83, counts
    assert counts["H walks"] / updates <= 1.88, counts
    assert counts["layer walks"] / updates <= 2.89, counts
    assert d.refine.inversions > 50, "too few rotations to weigh"


def test_in_neighbour_heap_work_per_update_stays_in_budget(monkeypatch):
    """Heap calls per dense-churn update in ``graph.py``, counted on the
    replay of the link-cut budget test above (seed 1, n=12, 388 counted
    updates).  Every load raise pushes into each out-neighbour's heap;
    reads drop dead entries and refresh stale tops, and a heap that
    outgrows 2·|in-neighbours| + 4 is rebuilt.  With a heap read that
    popped and re-pushed every stale top and never stopped early, an
    update made 59.58 pushes, 22.99 pops and 2.66 rebuilds.  A read
    that answers None once the top's recorded load is below the
    threshold, and refreshes a stale top in place, makes 37.88 pushes
    (all of them raises and gained in-neighbours), 1.22 pops, 15.88
    in-place refreshes and 2.66 rebuilds."""
    from dynorient import graph
    counts = dict.fromkeys(("heappush", "heappop", "heapreplace",
                            "heapify"), 0)

    def counted(name):
        fn = getattr(graph, name)

        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(graph, name, counted(name))
    rng = random.Random(1)
    n = 12
    d = decomposer(n=n, paranoid=False)
    for step, _ in enumerate(dense_churn(d, rng, n, 500,
                                         n * (n - 1) // 2 * 0.8, 0.1)):
        if step == 99:
            counts.update(dict.fromkeys(counts, 0))
    updates = step + 1 - 100
    assert updates == 388
    per = {k: c / updates for k, c in counts.items()}
    assert per["heappush"] <= 37.88, per
    assert per["heappop"] <= 1.22, per
    assert per["heapreplace"] <= 15.89, per
    assert per["heapify"] <= 2.66, per


@pytest.mark.parametrize("mode, budget", [("forest-decomposition", 1.77),
                                          ("pseudoforest", 1.70)])
def test_colour_query_accesses_stay_in_budget(monkeypatch, mode, budget):
    """Link-cut accesses per colour query, counted like the update budget
    above, on the same seed-1 dense-churn replay (488 updates) with a
    query for every vertex after every update.  With a fresh splay access
    for every depth-parity read, a query made 5.55 accesses in forest
    mode and 5.28 in pseudoforest mode; a parity memo dropped whole on
    every link, cut and evert gave 2.52 and 2.44, and one that drops only
    the changed tree's entries gives 1.762 and 1.696.  All 12 vertices
    share one dense block here, so most writes reach most of them.  Every
    answer's radix product must equal ``colour_count()``, so the one-pass
    query and the factor count agree on the active factors."""
    from dynorient import forest
    from dynorient.colouring import ProductColouring
    accesses = [0]
    for name in ("_access", "_waccess"):
        def counted(x, fn=getattr(forest, name)):
            accesses[0] += 1
            return fn(x)
        monkeypatch.setattr(forest, name, counted)
    rng = random.Random(1)
    n = 12
    d = decomposer(n=n, paranoid=False)
    col = ProductColouring(d, mode=mode)
    spent = queries = 0
    for _ in dense_churn(d, rng, n, 500, n * (n - 1) // 2 * 0.8, 0.1):
        total = col.colour_count()
        before = accesses[0]
        for v in range(n):
            assert math.prod(col.colour(v).radices) == total
        spent += accesses[0] - before
        queries += n
    assert queries == 488 * n
    assert spent / queries <= budget, spent / queries


def test_update_work_with_colour_queries_on_stays_in_budget(monkeypatch):
    """Link-cut work per update on the replay of the update budget test
    above, with a query for every vertex in both colouring modes after
    every update, counted apart from the queries.  A non-empty parity memo
    makes each link, cut and set_root find the memo group of the tree it
    changes and re-file its entries.  The group is found through a
    memoised endpoint, or else by its root, read by a walk down the path
    the operation's own access exposed (``_wfirst`` on H, ``_first`` on the
    layers), never by another access.  So the accesses stay at the 5.71 H
    and 7.83 layer accesses per update of the query-free replay.  A memo
    that dropped the changed tree's entries, and so found every group by
    its root, made 1.992 and 4.116 root walks per update; found through a
    memoised endpoint, they fall to 0.9485 and 2.9227.  An H write that
    everts names the root it moves from the memo group it finds anyway,
    so the H walks stay below the 1.8711 of the query-free replay, whose
    empty memo makes a write walk for that root."""
    from dynorient import forest
    from dynorient.colouring import ProductColouring
    counts = dict.fromkeys(("_waccess", "_access", "_wfirst", "_first"), 0)
    for name in counts:
        def counted(x, fn=getattr(forest, name), name=name):
            counts[name] += 1
            return fn(x)
        monkeypatch.setattr(forest, name, counted)
    rng = random.Random(1)
    n = 12
    d = decomposer(n=n, paranoid=False)
    cols = [ProductColouring(d, mode=m)
            for m in ("forest-decomposition", "pseudoforest")]
    spent = dict.fromkeys(counts, 0)
    updates = 0
    churn = dense_churn(d, rng, n, 500, n * (n - 1) // 2 * 0.8, 0.1)
    for step in itertools.count():
        before = dict(counts)
        if next(churn, StopIteration) is StopIteration:
            break
        if step >= 100:
            updates += 1
            for name in counts:
                spent[name] += counts[name] - before[name]
        for col in cols:
            for v in range(n):
                col.colour(v)
    assert updates == 388
    per = {name: spent[name] / updates for name in spent}
    assert per["_waccess"] <= 5.71, per
    assert per["_access"] <= 7.83, per
    assert per["_wfirst"] <= 0.95, per
    assert per["_first"] <= 2.93, per


def _fresh_pool_parity(d, n):
    """Per vertex, the parity of its distance to the smallest vertex of
    its component among the pooled cycle edges, by a fresh walk from
    each component's smallest vertex; 0 off the pool."""
    adj = {}
    for tails in d.m_tail:
        for a, b in tails.values():
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    out = [0] * n
    seen = set()
    for s in sorted(adj):
        if s in seen:
            continue
        seen.add(s)
        frontier, depth = [s], 0
        while frontier:
            nxt = []
            for x in frontier:
                out[x] = depth & 1
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier, depth = nxt, depth + 1
    return out


@pytest.mark.parametrize("seed", [1, 7])
def test_cached_pool_parity_matches_a_fresh_walk_after_every_update(seed):
    """The decomposer files pooled-cycle parities in ``pool_parity`` at
    each pool edit.  After every update of a dense churn the table holds
    exactly the pooled vertices, each at the parity a fresh walk finds,
    and in a shuffled vertex order so does the pooled digit of a
    forest-mode colour; the pool is non-empty after many updates."""
    from dynorient.colouring import ProductColouring
    rng = random.Random(seed)
    order = random.Random(seed + 1)
    n = 12
    d = decomposer(n=n, paranoid=False)
    col = ProductColouring(d, mode="forest-decomposition")
    pooled = 0
    for _ in dense_churn(d, rng, n, 400, n * (n - 1) // 2 * 0.8, 0.1):
        want = _fresh_pool_parity(d, n)
        assert d.pool_parity.keys() == d.incidence.keys()
        assert [d.pool_parity.get(v, 0) for v in range(n)] == want
        if not d.pool_parity:
            continue
        pooled += 1
        layers = sum(1 for f in d.F if len(f))
        vs = list(range(n))
        order.shuffle(vs)
        for v in vs:
            assert col.colour(v).digits[layers] == want[v], v
    assert pooled > 300, pooled


def test_verify_rejects_a_flipped_pooled_parity():
    # the triangle's cycle edge (1, 2) pools 1 and 2, at parities 0 and 1
    d = decomposer()
    stage(d, TRIANGLE)
    assert d.m_tail == [{1: (1, 2)}] and d.pool_parity == {1: 0, 2: 1}
    d.verify()
    for corrupt in ({1: 0, 2: 0}, {1: 1, 2: 0}, {1: 0, 2: 1, 5: 0}):
        # one end flipped, the whole component swapped so that its
        # smallest vertex reads 1, and an entry off the pool
        d.pool_parity = corrupt
        with pytest.raises(ConsistencyError, match="pooled parity"):
            d.verify()
    d.pool_parity = {1: 0, 2: 1}
    d.verify()


def test_verify_rejects_a_slotted_key_that_is_no_bundle():
    # the slot diffs skip keys that are no bundle outside H, so a stray
    # slot would never leave the table
    d = decomposer()
    stage(d, TRIANGLE)
    d.verify()
    d.split.insert((3, 4), 3)
    with pytest.raises(ConsistencyError, match="no bundle outside H"):
        d.verify()


def test_out_of_range_vertex_is_rejected_and_changes_nothing():
    n = 6
    d = decomposer(n=n)
    for u, v in ((0, 1), (1, 2), (0, 2), (3, 4)):
        d.insert_edge(u, v)
    bundles = {k: list(c) for k, c in d.g.bundles.items()}
    loads = list(d.g.loads)
    for bad in (-1, n):
        with pytest.raises(VertexRangeError):
            d.insert_edge(0, bad)
        assert d.g.bundles == bundles
        assert d.g.loads == loads
    d.verify()


_QUERY_RANGE = textwrap.dedent("""
    from dynorient import ArboricityDecomposer, Params
    from dynorient.acyclic import BFOrienter
    from dynorient.errors import VertexRangeError
    n = 4
    d = ArboricityDecomposer(Params(n_cap=n, gamma=8, epsilon=1.0))
    for u, v in ((0, 1), (1, 2), (0, 2), (2, 3)):
        d.insert_edge(u, v)
    b = BFOrienter(n, alpha_max=1)
    b.bf_insert(0, 3)          # vertex 3's out-list is [0]

    def state():
        return (sorted(d.g.bundles.items()), list(d.g.loads),
                sorted(d.placed.items()), list(d.out_deg),
                [list(lst) for lst in b.out])

    before = state()
    for query in (d.out_degree, d.refine.rounded_out_edges, b.bf_out_edges):
        for bad in (-1, n):
            try:
                query(bad)
            except VertexRangeError:
                continue
            raise SystemExit(f"{query.__qualname__} answered vertex {bad}")
    if state() != before:
        raise SystemExit("a rejected query changed the engine")
    if sum(map(d.out_degree, range(n))) != 4 or b.bf_out_edges(3) != [0]:
        raise SystemExit("an in-range query answered wrong")
    print("rejected")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_out_of_range_queries_raise_in_both_engines(flags):
    """``out_degree`` and ``rounded_out_edges`` of the decomposer and
    ``bf_out_edges`` of the sink-flip engine raise VertexRangeError for
    -1 and n_cap, change nothing, and keep doing so under python -O."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        decompose.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", _QUERY_RANGE],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


_NON_INT_IDS = textwrap.dedent("""
    from dynorient import ArboricityDecomposer, Params, ProductColouring
    from dynorient.errors import VertexRangeError
    d = ArboricityDecomposer(Params(n_cap=6, gamma=8, epsilon=1.0))
    d.insert_edge(0, 1)
    cols = [ProductColouring(d, mode=m)
            for m in ("forest-decomposition", "pseudoforest")]
    queries = [d.out_degree, d.refine.rounded_out_edges]
    queries += [col.colour for col in cols]
    for memoised in (False, True):
        # a float equal to a memoised vertex takes the memo-hit path
        if memoised:
            for col in cols:
                col.colour(1)
        for query in queries:
            for bad in (1.0, 1.5, "1", None, [1]):
                try:
                    query(bad)
                except VertexRangeError:
                    continue
                raise SystemExit(f"{query.__qualname__} answered {bad!r}")
    # a bool is an int: True is vertex 1
    for query in queries:
        if query(True) != query(1):
            raise SystemExit(f"{query.__qualname__} read True apart from 1")
    print("rejected")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_vertex_ids_that_are_not_ints_are_rejected(flags):
    """``out_degree``, ``rounded_out_edges`` and ``colour`` raise
    VertexRangeError for a float, a string, None or a list, also where a
    dict lookup would take 1.0 for vertex 1, and keep doing so under
    python -O; a bool is accepted as the int it is."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        decompose.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", _NON_INT_IDS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "rejected"


def test_pooled_cycle_break_hands_designation_to_a_tree_edge():
    hits = {"cycle": 0, "redesignate": 0}

    class Probe(ArboricityDecomposer):
        def _break_cycle_step(self, cycle, comp_keys, comp_verts):
            hits["cycle"] += 1
            return super()._break_cycle_step(cycle, comp_keys, comp_verts)

        def _redesignate(self, key, v, i):
            hits["redesignate"] += 1
            return super()._redesignate(key, v, i)

    rng = random.Random(3004)
    n = 12
    p = Params(n_cap=n, gamma=8, epsilon=0.5)
    d = Probe(p, paranoid=True)
    for _ in dense_churn(d, rng, n, 170, 38, 0.12):
        pass
    assert hits["cycle"] >= 1 and hits["redesignate"] >= 1


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_trace_partitions_into_few_forests(seed):
    rng = random.Random(seed)
    n = 9
    d = decomposer(n=n, paranoid=(seed == 0))
    present = set()
    for _ in range(120):
        if present and rng.random() < 0.3:
            key = rng.choice(sorted(present))
            present.discard(key)
            d.delete_edge(*key)
        else:
            u, v = rng.sample(range(n), 2)
            if edge_key(u, v) in present:
                continue
            present.add(edge_key(u, v))
            d.insert_edge(u, v)
        parts = d.forests()
        assert sorted(k for part in parts for k in part) == sorted(present)
        for part in parts:
            assert is_forest(part)
        d.verify(alpha=max(1, exact_arboricity(sorted(present))))


def test_deleting_everything_leaves_a_clean_slate():
    d = decomposer(n=6)
    keys = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    for u, v in keys:
        d.insert_edge(u, v)
    assert len(d.g.bundles) == 15
    for u, v in keys:
        d.delete_edge(u, v)
    assert not d.g.bundles and not d.placed and not d.split.where
    assert all(not ms for ms in d.m) and not d.refine.in_h
    assert all(l == 0 for l in d.g.loads)
    assert d.forests() == []


def _block_churn_ops(seed, n=12, steps=200):
    """The ``dense_churn`` pattern as ops: a near-complete graph on n
    vertices, deleting with odds 0.5 above 80% of the pairs."""
    rng = random.Random(seed)
    edges = set()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    ops = []
    for _ in range(steps):
        if edges and rng.random() < (0.5 if len(edges) > len(pairs) * 0.8
                                     else 0.1):
            key = rng.choice(sorted(edges))
            edges.discard(key)
            ops.append(("d",) + key)
        else:
            key = rng.choice([k for k in pairs if k not in edges])
            edges.add(key)
            ops.append(("a",) + key)
    return ops


@pytest.mark.parametrize("kind", ["uniform-sparse", "alpha-dense",
                                  "dense-block"])
def test_out_degree_table_matches_the_slots_and_h_after_every_op(kind):
    """``out_degree`` reads the table the slot table and H's orienter
    keep; after every op it must equal the scan of ``rounded_out_edges``
    and the slot count plus 1 if H's root path leaves v.  Deletes name
    their endpoints in random order, so H cuts come from either endpoint,
    and the cuts made at the parent endpoint evert a side and move a
    root."""
    from dynorient import traces
    if kind == "dense-block":
        n, ops = 12, _block_churn_ops(5, steps=300)
    else:
        n = 14
        ops = traces.generate(kind, n, 300, seed=3,
                              alpha_max=3 if kind == "alpha-dense" else None)
    d = decomposer(n=n, paranoid=False, epsilon=0.5)
    hl = d.refine.hl
    cuts = {"at the child": 0, "at the root": 0, "moving a root": 0}

    def cut(u, child, root, fn=hl.cut):
        if root is None:
            cuts["at the child"] += 1
        else:
            cuts["at the root" if root == u else "moving a root"] += 1
        fn(u, child, root)

    hl.cut = cut
    rng = random.Random(kind)
    for op in ops:
        if op[0] == "a":
            d.insert_edge(op[1], op[2])
        elif op[0] == "d":
            u, v = op[1:]
            d.delete_edge(*((v, u) if rng.random() < 0.5 else (u, v)))
        for v in range(n):
            deg = d.out_degree(v)
            assert deg == len(d.refine.rounded_out_edges(v)), (op, v)
            up = d.refine.H.first_edge_on_root_path(v) is not None
            assert deg == d.split.out_degree(v) + up, (op, v)
    d.verify()
    assert all(cuts.values()), cuts


def test_verify_checks_every_out_degree_entry():
    d = decomposer(n=6)
    for u, v in ((0, 1), (1, 2), (0, 2), (2, 3)):
        d.insert_edge(u, v)
    d.verify()
    for v in (0, 5):
        d.out_deg[v] += 1
        with pytest.raises(ConsistencyError):
            d.verify()
        d.out_deg[v] -= 1
    d.verify()


_BAD_UPDATE_IDS = textwrap.dedent("""
    import argparse
    from dynorient import cli
    from dynorient.errors import VertexRangeError
    from dynorient.params import Params
    from dynorient.refine import RefinementEngine
    sess = cli._Session(argparse.Namespace(
        mode="arb", n=6, gamma=8, epsilon=1.0, alpha_max=None, paranoid=False))
    eng = RefinementEngine(Params(n_cap=6, gamma=8))
    for u, v in ((0, 1), (1, 2), (2, 0), (2, 3)):
        sess.apply(("a", u, v))
        eng.insert_edge(u, v)

    def engine_state():
        return (sorted(eng.g.bundles.items()), list(eng.g.loads),
                sorted(eng.in_h), sorted(eng.hl.out_deg.items()))

    before = (sess.state_hash(), engine_state())
    for target in (sess.d, eng):
        # an insert's free end and a delete's other end: (1, 4) is no
        # edge, (1, 2) is one, so 1.0 would alias a live key
        for op, other in ((target.insert_edge, 4), (target.delete_edge, 2)):
            for bad in (1.0, 1.5, "1", None, -1, 6, 7):
                for u, v in ((bad, other), (other, bad)):
                    try:
                        op(u, v)
                    except VertexRangeError:
                        pass
                    else:
                        raise SystemExit(f"{op.__qualname__} took {u!r}, {v!r}")
                    target.verify()
                    if (sess.state_hash(), engine_state()) != before:
                        raise SystemExit(
                            f"{op.__qualname__}({u!r}, {v!r}) changed state")
    print("rejected")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_updates_reject_bad_vertex_ids_before_any_write(flags):
    """``insert_edge`` and ``delete_edge`` of the decomposer and of the
    refinement engine raise VertexRangeError for a float, a string, None,
    a negative id and ids of n_cap and up, in either endpoint, before any
    write: ``verify`` passes and the CLI state hash is unchanged after
    each refused op, also under python -O."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        decompose.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", _BAD_UPDATE_IDS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "rejected"
