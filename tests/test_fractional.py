import random

import pytest

from dynorient.errors import MissingEdgeError, SelfLoopError, DuplicateEdgeError
from dynorient.forest import LinkCutForest, edge_key
from dynorient.fractional import EdgeStore, FractionalOrienter, dedup_keep_last
from dynorient.graph import GraphState
from dynorient.oracles import check_eta_valid
from dynorient.params import Params


def make(gamma, n=8, **kw):
    p = Params(gamma=gamma, n_cap=n, **kw)
    g = GraphState(p)
    # the tree has no edges, so every key goes to the raw tables
    return g, FractionalOrienter(g, EdgeStore(g, LinkCutForest(gamma)))


def stage_chain(g, triples):
    """Install bundles with given directed counts and matching loads."""
    for u, v, cu, cv in triples:
        g.add_bundle(u, v)
        g.set_counts_raw(u, v, cu, cv)
    for v in range(g.params.n_cap):
        out = sum(g.count(v, w) for w in g.out_nbrs[v])
        if out:
            g.bump_load(v, out)


def test_dedup_keeps_last_occurrence():
    keys = [(0, 1), (1, 2), (0, 1), (2, 3), (1, 2)]
    assert dedup_keep_last(keys) == [(0, 1), (2, 3), (1, 2)]


def test_single_copy_gamma_one():
    g, fo = make(gamma=1, n=2)
    log = []
    fo.insert_copy(0, 1, log)
    assert g.counts(0, 1) == (1, 0)
    assert g.loads[:2] == [1, 0]
    assert log == [(0, 1)]
    fo.delete_copy(0, 1, log)
    assert g.counts(0, 1) == (0, 0)
    assert g.loads[:2] == [0, 0]


def test_tie_orients_away_from_first_argument():
    g, fo = make(gamma=4, n=4)
    fo.insert_copy(2, 1, [])
    # equal loads: the copy leaves the first-listed endpoint
    assert g.count(2, 1) == 1
    assert g.loads[2] == 1


def test_self_loop_rejected():
    _, fo = make(gamma=4)
    with pytest.raises(SelfLoopError):
        fo.insert_copy(3, 3, [])


def test_gamma_insert_splits_evenly_on_pair():
    g, fo = make(gamma=4, n=2)
    fo.gamma_insert(0, 1)
    assert g.counts(0, 1) == (2, 2)
    assert g.loads[:2] == [2, 2]


def test_gamma_delete_restores_empty():
    g, fo = make(gamma=4, n=2)
    fo.gamma_insert(0, 1)
    fo.gamma_delete(0, 1)
    assert not g.has_edge(0, 1)
    assert g.loads[:2] == [0, 0]
    with pytest.raises(MissingEdgeError):
        fo.gamma_delete(0, 1)
    fo.gamma_insert(0, 1)
    with pytest.raises(DuplicateEdgeError):
        fo.gamma_insert(0, 1)


def test_insert_flips_whole_tight_chain():
    # loads (3,2,1,0) along tight out-copies 0->1->2->3
    g, fo = make(gamma=8, n=4)
    stage_chain(g, [(0, 1, 3, 0), (1, 2, 2, 0), (2, 3, 1, 0)])
    assert g.loads[:4] == [3, 2, 1, 0]
    log = []
    fo.insert_copy(0, 1, log)
    assert g.loads[:4] == [3, 2, 1, 1]
    assert g.counts(0, 1) == (3, 1)
    assert g.counts(1, 2) == (1, 1)
    assert g.counts(2, 3) == (0, 1)
    assert check_eta_valid(g.loads, g.bundles) == []
    assert log == [(0, 1), (1, 2), (2, 3)]


def test_delete_pulls_chain_and_decrements_far_end():
    # loads (0,1,2,3): copies 1->0, 2->1 (x2), 3->2 (x3)
    g, fo = make(gamma=8, n=4)
    stage_chain(g, [(0, 1, 0, 1), (1, 2, 0, 2), (2, 3, 0, 3)])
    assert g.loads[:4] == [0, 1, 2, 3]
    fo.delete_copy(0, 1, [])
    assert g.loads[:4] == [0, 1, 2, 2]
    assert g.counts(0, 1) == (0, 0)
    assert g.counts(1, 2) == (1, 1)
    assert g.counts(2, 3) == (1, 2)
    assert check_eta_valid(g.loads, g.bundles) == []


def test_delete_direction_prefers_first_argument():
    g, fo = make(gamma=4, n=2)
    g.add_bundle(0, 1)
    g.set_counts_raw(0, 1, 1, 1)
    g.bump_load(0, 1)
    g.bump_load(1, 1)
    fo.delete_copy(0, 1, [])
    assert g.counts(0, 1) == (0, 1)
    assert g.loads[:2] == [0, 1]


def test_triangle_two_copies_each_balances():
    g, fo = make(gamma=2, n=3)
    for u, v in [(0, 1), (1, 2), (2, 0)]:
        fo.gamma_insert(u, v)
    assert max(g.loads) == 2
    assert sorted(g.loads[:3]) == [2, 2, 2]
    assert check_eta_valid(g.loads, g.bundles) == []


def test_tight_in_nbr_threshold():
    g, fo = make(gamma=8, n=3)
    stage_chain(g, [(0, 1, 0, 1)])
    # in-neighbour exactly one unit heavier: returned
    assert g.loads[:2] == [0, 1]
    assert fo.tight_in_nbr(0) == 1
    # equal load: absent
    g.bump_load(0, 1)
    assert fo.tight_in_nbr(0) is None
    assert g.tight_out_nbr(0) is None
    g.bump_load(0, 1)
    assert g.tight_out_nbr(1) is None   # 1's out-nbr 0 is now heavier
    assert g.tight_out_nbr(0) is None   # no out-copy from 0 at all


def test_update_nbrs_without_provider_is_noop():
    g, fo = make(gamma=4, n=3)
    fo.gamma_insert(0, 1)
    before = (list(g.loads), dict(g.bundles))
    fo.update_nbrs(0)
    assert (list(g.loads), dict(g.bundles)) == before


def test_chain_flips_route_through_resident_edges():
    # full bundles only: a resident edge's counts always sum to gamma
    g, _ = make(gamma=4, n=4)
    forest = LinkCutForest(4)
    fo = FractionalOrienter(g, EdgeStore(g, forest))
    stage_chain(g, [(0, 3, 4, 0), (1, 2, 3, 1)])
    assert g.loads[:4] == [4, 3, 1, 0]
    forest.link(1, 2, g.count(1, 2))   # the link alone makes it resident
    assert (1, 2) in fo.store.in_tree
    fo.insert_copy(0, 1, [])   # lands at 1, sheds through the resident edge
    assert g.loads[:4] == [4, 3, 2, 0]
    assert fo.store.true_counts(1, 2) == (2, 2)
    assert forest.edge_weight(1, 2) == 2
    assert g.counts(1, 2) == (2, 2)    # mirror kept in step
    fo.store.sync_bundle(1, 2)
    forest.cut(1, 2)
    assert not fo.store.in_tree
    assert fo.store.true_counts(1, 2) == (2, 2)


def test_load_conservation_and_validity_random_mix():
    rng = random.Random(0xF0)
    g, fo = make(gamma=4, n=50)
    live = {}
    copies = 0
    for step in range(1000):
        if live and rng.random() < 0.4:
            key = rng.choice(sorted(live))
            fo.delete_copy(*key, [])
            copies -= 1
            live[key] -= 1
            if live[key] == 0:
                del live[key]
                g.drop_bundle(*key)
        else:
            u, v = rng.sample(range(50), 2)
            key = edge_key(u, v)
            if live.get(key, 0) == 4:
                continue
            fo.insert_copy(u, v, [])
            copies += 1
            live[key] = live.get(key, 0) + 1
        if step % 50 == 0:
            assert check_eta_valid(g.loads, g.bundles) == []
        assert sum(g.loads) == copies
    assert check_eta_valid(g.loads, g.bundles) == []


def test_heap_agrees_with_scan_oracle():
    rng = random.Random(7)
    g, fo = make(gamma=3, n=12)
    live = {}
    for _ in range(400):
        if live and rng.random() < 0.35:
            key = rng.choice(sorted(live))
            fo.delete_copy(*key, [])
            live[key] -= 1
            if live[key] == 0:
                del live[key]
                g.drop_bundle(*key)
        else:
            u, v = rng.sample(range(12), 2)
            key = edge_key(u, v)
            if live.get(key, 0) == 3:
                continue
            fo.insert_copy(u, v, [])
            live[key] = live.get(key, 0) + 1
        v = rng.randrange(12)
        got = fo.tight_in_nbr(v)
        want = None
        for x in range(12):
            if x != v and g.has_edge(x, v) and g.count(x, v) > 0 \
                    and g.loads[x] >= g.loads[v] + 1:
                if want is None or g.loads[x] > g.loads[want]:
                    want = x
        assert got == want, (v, got, want)


def test_load_bound_against_exact_arboricity():
    import math
    from dynorient.oracles import exact_arboricity
    rng = random.Random(21)
    for trial in range(6):
        g, fo = make(gamma=8, n=9)
        edges = set()
        for _ in range(14):
            u, v = rng.sample(range(9), 2)
            if edge_key(u, v) in edges:
                continue
            edges.add(edge_key(u, v))
            fo.gamma_insert(u, v)
        alpha = exact_arboricity(edges)
        bound = 2 * alpha * 8 + math.log(9, 2)   # (1+eps)·alpha·gamma + log
        assert max(g.loads) <= bound


def test_in_neighbour_heaps_stay_bounded_under_dense_churn():
    # every load increase pushes an entry into each out-neighbour's heap;
    # on a dense block those pushes must not pile up as stale entries
    rng = random.Random(4)
    n = 12
    g, fo = make(gamma=8, n=n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    live = set()
    for _ in range(600):
        if len(live) > 0.8 * len(pairs):
            key = rng.choice(sorted(live))
            fo.gamma_delete(*key)
            live.discard(key)
        else:
            key = rng.choice([k for k in pairs if k not in live])
            fo.gamma_insert(*key)
            live.add(key)
        for w in range(n):
            assert len(g.in_heap[w]) <= 2 * len(g.in_set[w]) + 4, w
            want = min(g.in_set[w], key=lambda x: (-g.loads[x], x),
                       default=None)
            assert g.max_load_in_nbr(w) == want, w
    assert check_eta_valid(g.loads, g.bundles) == []


@pytest.mark.parametrize("seed", [5, 6])
def test_gamma_walks_share_one_log(seed):
    # gamma_insert/gamma_delete append every copy's walk to one log and
    # deduplicate it once; the reference composes gamma public per-copy
    # calls, each deduplicating its own walk, and deduplicates the
    # concatenation
    rng = random.Random(seed)
    n = 12
    gamma = 8
    ga, fa = make(gamma=gamma, n=n)
    gb, fb = make(gamma=gamma, n=n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    live = set()
    longest = merged = 0
    for _ in range(400):
        if live and (len(live) > 0.8 * len(pairs) or rng.random() < 0.1):
            key = rng.choice(sorted(live))
            u, v = key if rng.random() < 0.5 else key[::-1]
            got = fa.gamma_delete(u, v)
            logs = []
            for _ in range(gamma):
                walk = []
                fb.delete_copy(u, v, walk)
                logs.extend(dedup_keep_last(walk))
            gb.drop_bundle(u, v)
            live.discard(key)
        else:
            key = rng.choice([k for k in pairs if k not in live])
            u, v = key if rng.random() < 0.5 else key[::-1]
            got = fa.gamma_insert(u, v)
            logs = []
            for _ in range(gamma):
                walk = []
                fb.insert_copy(u, v, walk)
                logs.extend(dedup_keep_last(walk))
            live.add(key)
        assert got == dedup_keep_last(logs)
        assert all(a < b and ((a, b) in ga.bundles or (a, b) == key)
                   for a, b in got), got
        longest = max(longest, len(got))
        merged += len(got) < len(logs)
        assert ga.loads == gb.loads
        assert ga.bundles == gb.bundles
        assert ga.out_nbrs == gb.out_nbrs
        assert ga.in_set == gb.in_set
        for w in range(n):
            assert ga.max_load_in_nbr(w) == gb.max_load_in_nbr(w), w
    assert longest > 1, "no walk ever left the inserted bundle"
    assert merged, "no two copies' walks ever shared a key"
