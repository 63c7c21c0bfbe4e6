import os
import random
import subprocess
import sys
import textwrap

import pytest

import dynorient
from dynorient.errors import MissingEdgeError, SelfLoopError, DuplicateEdgeError
from dynorient.forest import LinkCutForest, edge_key
from dynorient.fractional import EdgeStore, FractionalOrienter
from dynorient.graph import GraphState
from dynorient.oracles import check_eta_valid
from dynorient.params import Params
from dynorient.refine import RefinementEngine
from naive_oracles import NaiveCopyWalk


def make(gamma, n=8, **kw):
    p = Params(gamma=gamma, n_cap=n, **kw)
    g = GraphState(p)
    # the tree has no edges, so every key goes to the raw tables
    return g, FractionalOrienter(g, EdgeStore(g, LinkCutForest(gamma)))


def in_nbrs(g, v):
    """v's in-neighbours, derived from the out-neighbour sets."""
    return {x for x in range(g.n_cap) if v in g.out_nbrs[x]}


def stage_chain(g, triples):
    """Install bundles with given directed counts and matching loads."""
    for u, v, cu, cv in triples:
        g.add_bundle(u, v)
        g.set_counts_raw(u, v, cu, cv)
    for v in range(g.params.n_cap):
        out = sum(g.count(v, w) for w in g.out_nbrs[v])
        if out:
            g.bump_load(v, out)


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
    assert (0, 1) not in g.bundles
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
    assert g.tight_in_nbr(0) == 1
    # equal load: absent
    g.bump_load(0, 1)
    assert g.tight_in_nbr(0) is None
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
        got = g.tight_in_nbr(v)
        want = None
        for x in range(12):
            if (x != v and edge_key(x, v) in g.bundles and g.count(x, v) > 0
                    and g.loads[x] >= g.loads[v] + 1):
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
            ins = in_nbrs(g, w)
            assert g.in_deg[w] == len(ins), w
            assert len(g.in_heap[w]) <= 2 * len(ins) + 4, w
            want = min(ins, key=lambda x: (-g.loads[x], x), default=None)
            if want is not None and g.loads[want] <= g.loads[w]:
                want = None
            assert g.tight_in_nbr(w) == want, w
    assert check_eta_valid(g.loads, g.bundles) == []


@pytest.mark.parametrize("seed", [5, 6])
def test_gamma_walks_share_one_log(seed):
    # gamma_insert/gamma_delete append every copy's walk to one log and
    # return it raw; the reference composes gamma public per-copy calls,
    # each with its own log, and concatenates them
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
                logs.extend(walk)
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
                logs.extend(walk)
            live.add(key)
        assert got == logs
        assert all(a < b and ((a, b) in ga.bundles or (a, b) == key)
                   for a, b in got), got
        longest = max(longest, len(set(got)))
        merged += len(set(got)) < len(got)
        assert ga.loads == gb.loads
        assert ga.bundles == gb.bundles
        assert ga.out_nbrs == gb.out_nbrs
        assert ga.in_deg == gb.in_deg
        for w in range(n):
            assert ga.tight_in_nbr(w) == gb.tight_in_nbr(w), w
    assert longest > 1, "no walk ever left the inserted bundle"
    assert merged, "no two copies' walks ever shared a key"


def _reference_of(eng):
    """A reference walk over the engine's true counts and loads."""
    g = eng.g
    return NaiveCopyWalk(g.gamma, g.loads,
                         {k: eng.store.true_counts(*k) for k in g.bundles})


def _assert_matches_reference(eng, ref):
    g = eng.g
    assert g.loads == ref.loads
    assert {k: list(eng.store.true_counts(*k)) for k in g.bundles} \
        == ref.counts
    for v in range(len(g.loads)):
        assert g.out_nbrs[v] == ref.out_nbrs(v), v
        assert in_nbrs(g, v) == ref.in_nbrs(v), v
        assert g.in_deg[v] == len(ref.in_nbrs(v)), v
        assert g.tight_in_nbr(v) == ref.tight_in_nbr(v), v


@pytest.mark.parametrize("seed", [3, 8])
def test_walks_match_the_reference_walk(seed):
    # seeded dense churn on a RefinementEngine, so walks flip through
    # bundles whose counts live in H: each update runs gamma_insert,
    # gamma_delete, or a repair-style run of single delete_copy calls
    # and as many insert_copy calls on one direction, beside the naive
    # reference walk; the engine then drains the walk log, and the
    # reference restarts from the engine's true counts
    rng = random.Random(seed)
    n = 10
    gamma = 8
    eng = RefinementEngine(Params(n_cap=n, gamma=gamma, epsilon=1.0))
    fo, in_h = eng.frac, eng.in_h
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    live = set()
    singles = through_h = 0
    for _ in range(260):
        ref = _reference_of(eng)
        raw = sorted(k for k in live if k not in in_h)
        roll = rng.random()
        if raw and roll < 0.3:
            key = rng.choice(raw)
            s, t = key if rng.random() < 0.5 else key[::-1]
            k = rng.randint(1, gamma)
            log = []
            for name in ["delete_copy"] * k + ["insert_copy"] * k:
                mine, theirs = [], []
                getattr(fo, name)(s, t, mine)
                getattr(ref, name)(s, t, theirs)
                assert mine == theirs, name
                _assert_matches_reference(eng, ref)
                singles += 1
                through_h += any(x in in_h for x in mine)
                log += mine
        elif raw and (len(live) > 0.8 * len(pairs) or roll < 0.4):
            key = rng.choice(raw)
            u, v = key if rng.random() < 0.5 else key[::-1]
            log = fo.gamma_delete(u, v)
            assert log == ref.gamma_delete(u, v)
            _assert_matches_reference(eng, ref)
            live.discard(key)
        else:
            key = rng.choice([p for p in pairs if p not in live])
            u, v = key if rng.random() < 0.5 else key[::-1]
            log = fo.gamma_insert(u, v)
            assert log == ref.gamma_insert(u, v)
            _assert_matches_reference(eng, ref)
            through_h += any(x in in_h for x in log)
            live.add(key)
        eng.absorb(log)
    eng.verify()
    assert singles > 500, singles
    assert through_h > 100, "too few walks flipped an H-resident bundle"


def _last_of_each(log):
    """The reference dedup: each key at its last occurrence, in order."""
    return [k for i, k in enumerate(log) if k not in log[i + 1:]]


@pytest.mark.parametrize("seed", [1, 2])
def test_drain_of_a_raw_log_decides_as_its_deduplicated_log(seed):
    # twin engines take the same updates; one drains the raw walk logs,
    # the other the same logs reduced to each key's last occurrence, and
    # both must unhook, rotate and enroll alike, in the same order
    rng = random.Random(seed)
    n = 10
    p = Params(n_cap=n, gamma=8, epsilon=1.0)
    ea, eb = RefinementEngine(p), RefinementEngine(p)
    repeats = [0]

    def counted(walk):
        def raw(u, v):
            log = walk(u, v)
            repeats[0] += len(set(log)) < len(log)
            return log
        return raw

    def reduced(walk):
        return lambda u, v: _last_of_each(walk(u, v))

    decisions = []
    for eng, wrap in ((ea, counted), (eb, reduced)):
        eng.frac.gamma_insert = wrap(eng.frac.gamma_insert)
        eng.frac.gamma_delete = wrap(eng.frac.gamma_delete)
        seen = []
        for name in ("handle_s_edge", "_unhook"):
            def recorded(a, b, _fn=getattr(eng, name), _name=name, _seen=seen):
                _seen.append((_name, a, b))
                return _fn(a, b)
            setattr(eng, name, recorded)
        decisions.append(seen)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    live = set()
    for _ in range(300):
        if len(live) > 0.8 * len(pairs) or (live and rng.random() < 0.3):
            key = rng.choice(sorted(live))
            got = [e.delete_edge(*key) for e in (ea, eb)]
            live.discard(key)
        else:
            key = rng.choice([k for k in pairs if k not in live])
            got = [e.insert_edge(*key) for e in (ea, eb)]
            live.add(key)
        assert got[0] == got[1]
        assert decisions[0] == decisions[1]
        assert sorted(ea.in_h) == sorted(eb.in_h)
        assert ea.g.loads == eb.g.loads
        assert {k: ea.store.true_counts(*k) for k in ea.g.bundles} \
            == {k: eb.store.true_counts(*k) for k in eb.g.bundles}
    ea.verify()
    assert repeats[0] > 50, repeats[0]
    assert sum(name == "handle_s_edge" for name, *_ in decisions[0]) > 20


_WALK_PAST_ITS_BOUND = textwrap.dedent("""
    from dynorient.errors import ConsistencyError
    from dynorient.forest import LinkCutForest
    from dynorient.fractional import EdgeStore, FractionalOrienter
    from dynorient.graph import GraphState
    from dynorient.params import Params

    def make():
        g = GraphState(Params(n_cap=6, gamma=8))
        return g, FractionalOrienter(g, EdgeStore(g, LinkCutForest(8)))

    def any_in_nbr(self, v):
        # the heaviest in-neighbour, whatever its load
        ins = [x for x in range(self.n_cap) if v in self.out_nbrs[x]]
        return min(ins, key=lambda x: (-self.loads[x], x), default=None)

    def any_out_nbr(self, u):
        return min(self.out_nbrs[u], default=None)

    def expect_fault(walk):
        try:
            walk()
        except ConsistencyError as e:
            return str(e)
        raise SystemExit("the walk ended without a fault")

    # a delete walk pulls from an in-neighbour that is not heavier: the
    # copies between 0 and 1 would swap back and forth forever
    g, fo = make()
    fo.gamma_insert(0, 1)
    real_in = GraphState.tight_in_nbr
    GraphState.tight_in_nbr = any_in_nbr
    print(expect_fault(lambda: fo.gamma_delete(0, 1)))
    GraphState.tight_in_nbr = real_in

    # an insert walk sheds onto an out-neighbour that is not lighter
    g, fo = make()
    GraphState.tight_out_nbr = any_out_nbr
    print(expect_fault(lambda: fo.insert_copy(0, 1, [])))

    # one pull from a lighter in-neighbour ends the delete walk below a
    # load of its flip count
    g, fo = make()
    g.add_bundle(0, 1)
    g.set_counts_raw(0, 1, 1, 1)
    g.bump_load(0, 1)
    answers = [1]

    def lighter_once(self, v):
        return answers.pop() if answers else None

    GraphState.tight_in_nbr = lighter_once
    print(expect_fault(lambda: fo.delete_copy(0, 1, [])))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_walk_past_its_bound_raises_instead_of_looping(flags):
    # a tight-neighbour read that keeps answering must end the walk with
    # a typed error, also with assertions stripped; the timeout turns a
    # walk that loops into a failure instead of a hang
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        dynorient.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", _WALK_PAST_ITS_BOUND],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    assert lines == ["('delete walk passed its bound', 0, 1, 1)",
                     "('insert walk passed its bound', 0, 1, 0)",
                     "('delete walk ended too light', 0, 1, 1)"]
