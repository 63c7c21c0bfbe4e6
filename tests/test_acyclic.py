import contextlib
import os
import random
import signal
import subprocess
import sys
import textwrap

import pytest

from dynorient import acyclic
from dynorient.acyclic import BFOrienter
from dynorient.errors import (ConfigurationError, ConsistencyError,
                              DuplicateEdgeError, DynOrientError,
                              MissingEdgeError, PromiseViolation,
                              SelfLoopError, VertexRangeError)
from dynorient.forest import edge_key
from dynorient.oracles import exact_arboricity, is_acyclic, is_forest
from dynorient.traces import generate
from naive_oracles import reverse_replay_reorientations


def test_config_validation():
    with pytest.raises(ConfigurationError):
        BFOrienter(4)
    with pytest.raises(ConfigurationError):
        BFOrienter(4, alpha_max=0)
    assert BFOrienter(4, alpha_max=3).d == 8


def test_first_insert_turns_the_named_endpoint_into_a_sink():
    b = BFOrienter(4, alpha_max=1)
    stats = b.bf_insert(0, 1)
    assert stats == (1, 1)
    assert b.bf_out_edges(0) == []
    assert b.bf_out_edges(1) == [0]
    b.verify()


def test_verify_rejects_a_directed_cycle():
    # a 3-cycle fits every cap, list and count check; only the peeling
    # finds it
    b = BFOrienter(3, alpha_max=1)
    for u, v in ((0, 1), (1, 2)):
        b.bf_insert(u, v)
    b.verify()
    b.out = [[1], [2], [0]]
    b.edge_count = 3
    with pytest.raises(ConsistencyError, match="directed cycle"):
        b.verify()


def test_triangle_insertion_stays_acyclic_without_cascades():
    b = BFOrienter(3, alpha_max=1)      # d = 4, degrees never reach it
    for u, v in [(0, 1), (1, 2), (2, 0)]:
        flipped, _ = b.bf_insert(u, v)
        assert flipped == 1             # only the named endpoint flips
        assert b.bf_out_edges(u) == []
        assert is_acyclic(3, b.out)
        b.verify()
    assert b.out == [[1, 2], [2], []]


def test_duplicate_and_missing_raise():
    b = BFOrienter(4, alpha_max=1)
    b.bf_insert(0, 1)
    with pytest.raises(DuplicateEdgeError):
        b.bf_insert(0, 1)
    with pytest.raises(DuplicateEdgeError):
        b.bf_insert(1, 0)
    with pytest.raises(MissingEdgeError):
        b.bf_delete(2, 3)


def test_out_of_range_vertex_is_rejected_and_changes_nothing():
    # -1 would alias the last vertex and n_cap would index past the lists
    n = 4
    b = BFOrienter(n, alpha_max=1)
    for u, v in ((0, 1), (1, 3), (2, 3)):
        b.bf_insert(u, v)
    lists, count = [b.bf_out_edges(x) for x in range(n)], b.edge_count
    for u, v in ((0, -1), (-1, 1), (0, n), (n, 1)):
        with pytest.raises(VertexRangeError):
            b.bf_insert(u, v)
        with pytest.raises(VertexRangeError):
            b.bf_delete(u, v)
        assert [b.bf_out_edges(x) for x in range(n)] == lists
        assert b.edge_count == count
    b.verify()


def test_delete_searches_both_lists_and_never_reorients():
    b = BFOrienter(4, alpha_max=1)
    b.bf_insert(0, 1)                   # lands in out(1)
    moves = b.reorientations
    b.bf_delete(0, 1)
    assert b.reorientations == moves
    assert [b.bf_out_edges(x) for x in range(4)] == [[], [], [], []]
    b.verify()


def test_overflow_flips_the_whole_list_at_once():
    # leaf-side star inserts pile edges onto the centre until it overflows
    b = BFOrienter(8, alpha_max=1)      # d = 4
    for leaf in (1, 2, 3, 4):
        assert b.bf_insert(leaf, 0) == (1, 1)
    assert b.bf_out_edges(0) == [1, 2, 3, 4]
    stats = b.bf_insert(5, 0)           # pushes out(0) to 5 > d
    assert stats == (2, 6)              # leaf flip + centre flip of 5 edges
    assert b.bf_out_edges(0) == []
    for leaf in (1, 2, 3, 4, 5):
        assert b.bf_out_edges(leaf) == [0]
    b.verify()


def test_flip_on_every_insert_is_what_prevents_cycles():
    # baseline: the flip-only-on-overflow variant orients each new edge
    # away from its named endpoint and leaves it there while degrees fit
    out = [[1], [2]] + [[] for _ in range(1)]
    out[2].append(0)                    # ...which closes 0 -> 1 -> 2 -> 0
    assert not is_acyclic(3, out)
    b = BFOrienter(3, alpha_max=1)
    for u, v in [(0, 1), (1, 2), (2, 0)]:
        b.bf_insert(u, v)
    assert is_acyclic(3, b.out)


def _alpha_preserving_trace(rng, n, alpha_cap, steps, delete_bias=0.35):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set()
    ops = []
    arboricity = {}     # candidate edge set -> its exact arboricity
    for _ in range(steps):
        if edges and rng.random() < delete_bias:
            key = rng.choice(sorted(edges))
            edges.discard(key)
            ops.append(("d",) + key)
            continue
        free = [k for k in pairs if k not in edges]
        rng.shuffle(free)
        for key in free:
            es = frozenset(edges | {key})
            if es not in arboricity:
                arboricity[es] = exact_arboricity(sorted(es))
            if arboricity[es] <= alpha_cap:
                edges.add(key)
                ops.append(("a",) + key)
                break
    return ops


def test_adversarial_trace_meets_the_amortised_flip_budget():
    rng = random.Random(11)
    n = 8
    alpha_cap = 2
    ops = _alpha_preserving_trace(rng, n, alpha_cap, 240)
    b = BFOrienter(n, alpha_max=alpha_cap)          # d = 6
    inserts = 0
    for kind, u, v in ops:
        if kind == "a":
            b.bf_insert(u, v)
            inserts += 1
        else:
            b.bf_delete(u, v)
        assert is_acyclic(n, b.out)
        b.verify()
    delta = alpha_cap + 1
    r = reverse_replay_reorientations(ops, n, delta)
    budget = (delta * inserts + r) * (b.d + 1) // (b.d + 1 - 2 * delta)
    assert b.reorientations <= budget, (b.reorientations, budget)


@pytest.mark.parametrize("seed", [3, 19])
def test_forest_trace_partitions_slice_into_forests(seed):
    rng = random.Random(seed)
    n = 12
    ops = _alpha_preserving_trace(rng, n, 1, 150)
    b = BFOrienter(n, alpha_max=1)
    live = set()
    for kind, u, v in ops:
        if kind == "a":
            b.bf_insert(u, v)
            live.add(edge_key(u, v))
        else:
            b.bf_delete(u, v)
            live.discard(edge_key(u, v))
        parts = b.partitions()
        assert len(parts) <= b.d
        assert sorted(k for part in parts for k in part) == sorted(live)
        for part in parts:
            assert is_forest(part)
        b.verify()


class _ReferenceBF(BFOrienter):
    """The two-call sink flip that the one-pass ``bf_insert`` replaced,
    kept verbatim as its reference: no flip budget, so it loops forever
    on a graph whose arboricity exceeds alpha_max."""

    def _flip(self, x):
        """Reverse every edge out of x; returns the old targets."""
        targets = self.out[x]
        self.out[x] = []
        for w in targets:
            self.out[w].append(x)
        self.flip_count += 1
        self.reorientations += len(targets)
        return targets

    def bf_insert(self, u, v):
        """Add the edge oriented away from u, then make u a sink and chase
        any out-degree overflows.  Returns (#vertices flipped, #single-edge
        reorientations) for this update."""
        # a negative id would index from the end of self.out and alias
        # vertex n_cap + id; the list lookups catch ids of n_cap and up
        if u < 0 or v < 0:
            raise VertexRangeError(f"edge ({u}, {v}) leaves [0, {self.n_cap})")
        try:
            lu, lv = self.out[u], self.out[v]
        except IndexError:
            raise VertexRangeError(
                f"edge ({u}, {v}) leaves [0, {self.n_cap})") from None
        if u == v:
            raise SelfLoopError(f"edge {u}->{u}")
        if v in lu or u in lv:
            raise DuplicateEdgeError(f"edge {edge_key(u, v)} already present")
        flips0 = self.flip_count
        moves0 = self.reorientations
        lu.append(v)
        self.edge_count += 1
        stack = [w for w in self._flip(u) if len(self.out[w]) > self.d]
        while stack:
            x = stack.pop()
            if len(self.out[x]) <= self.d:
                continue          # an earlier pop already relieved it
            for w in self._flip(x):
                if len(self.out[w]) > self.d:
                    stack.append(w)
        return (self.flip_count - flips0, self.reorientations - moves0)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test if the block runs longer than ``seconds``: a cascade
    without its budget loops forever on a broken promise, and its
    overflow stack grows all the while."""
    def expire(signum, frame):
        raise TimeoutError
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # a fresh exception: the interrupted frame can lack a line number,
        # which pytest cannot report
        pytest.fail(f"no return within {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _state(b):
    return ([list(lst) for lst in b.out], b.edge_count, b.flip_count,
            b.reorientations)


def _bounded_churn(seed, n, alpha_max, edges, updates):
    """The churn of the benchmark's bf-churn workload, scaled down: each
    edge fills one of its higher-ranked endpoint's alpha_max parent slots
    with a lower-ranked vertex, so the graph is a union of alpha_max
    forests.  Fills to ``edges`` edges, then alternates delete and
    insert for ``updates`` more ops."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: r for r, v in enumerate(order)}
    free = [(v, s) for v in range(n) for s in range(min(rank[v], alpha_max))]
    parents = [set() for _ in range(n)]
    live = []                   # (key, child, parent, slot)
    ops = []

    def pop_random(items):
        i = rng.randrange(len(items))
        items[i], items[-1] = items[-1], items[i]
        return items.pop()

    def insert():
        v, s = pop_random(free)
        while True:
            u = order[rng.randrange(rank[v])]
            if u not in parents[v]:
                break
        parents[v].add(u)
        key = edge_key(u, v)
        live.append((key, v, u, s))
        ops.append(("a",) + key)

    def delete():
        key, v, u, s = pop_random(live)
        parents[v].discard(u)
        free.append((v, s))
        ops.append(("d",) + key)

    for _ in range(edges):
        insert()
    for i in range(updates):
        delete() if i % 2 == 0 else insert()
    return ops


def _dense_ops(rng, n, steps, delete_bias):
    """Random inserts and deletes over a few vertices, each insert named
    from a random side; dense enough to cascade and to break small
    alpha_max.  It may insert a live edge again, and delete an edge the
    engine refused, so both engines must raise alike."""
    live = set()
    ops = []
    for _ in range(steps):
        if live and rng.random() < delete_bias:
            u, v = rng.choice(sorted(live))
            live.discard((u, v))
            ops.append(("d", u, v) if rng.random() < 0.5 else ("d", v, u))
            continue
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            live.add(edge_key(u, v))
            ops.append(("a", u, v))
    return ops


def _differential(n, alpha_max, ops):
    """Replay ops on the one-pass engine and the reference side by side;
    the states must stay equal after every op.  An insert the engine
    refuses as a PromiseViolation is not given to the reference, which
    would loop on it.  Returns the engine, the inserts that cascaded
    and the inserts it refused."""
    new = BFOrienter(n, alpha_max=alpha_max)
    ref = _ReferenceBF(n, alpha_max=alpha_max)
    cascades = refused = 0
    for op in ops:
        method = "bf_insert" if op[0] == "a" else "bf_delete"
        try:
            got = getattr(new, method)(op[1], op[2])
        except PromiseViolation:
            refused += 1
            assert _state(new) == _state(ref), op
            continue
        except DynOrientError as e:
            with pytest.raises(type(e)):
                getattr(ref, method)(op[1], op[2])
        else:
            assert getattr(ref, method)(op[1], op[2]) == got, op
            cascades += op[0] == "a" and got[0] > 1
        assert new.out == ref.out, op
        assert (new.edge_count, new.flip_count, new.reorientations) == (
            ref.edge_count, ref.flip_count, ref.reorientations), op
    return new, cascades, refused


@pytest.mark.parametrize("seed", [1, 2])
def test_one_pass_insert_matches_the_reference_on_bounded_churn(seed):
    ops = _bounded_churn(seed, n=300, alpha_max=3, edges=750, updates=6000)
    b, cascades, refused = _differential(300, 3, ops)
    assert cascades > 100 and refused == 0, (cascades, refused)
    b.verify()


def test_one_pass_insert_matches_the_reference_on_dense_traces():
    cascades = refused = 0
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randrange(4, 13)
        alpha_max = rng.choice((1, 1, 2, 3))
        ops = _dense_ops(rng, n, 80, delete_bias=rng.choice((0.1, 0.3)))
        with _deadline(10):
            b, c, r = _differential(n, alpha_max, ops)
        cascades += c
        refused += r
        b.verify()
    assert cascades > 100 and refused > 10, (cascades, refused)


def test_k12_breaks_alpha_max_and_every_refused_insert_changes_nothing():
    n = 12
    b = BFOrienter(n, alpha_max=1)      # d = 4; K12 has arboricity 6
    refused = []
    for u in range(n):
        for v in range(u + 1, n):
            before, lists = _state(b), list(b.out)
            try:
                with _deadline(10):
                    b.bf_insert(u, v)
            except PromiseViolation:
                refused.append((u, v))
                assert _state(b) == before
                assert all(x is y for x, y in zip(b.out, lists))
            b.verify()
    assert refused
    # the orienter still takes valid ops: empty it, then build a path
    for u in range(n):
        for v in b.bf_out_edges(u):
            b.bf_delete(u, v)
    for v in range(1, n):
        b.bf_insert(v - 1, v)
    assert b.edge_count == n - 1
    b.verify()


@pytest.mark.parametrize("alpha_max", [1, 2, 3])
def test_alpha_dense_traces_at_their_cap_keep_the_promise(alpha_max):
    n = 300
    ops = generate("alpha-dense", n, 3000, seed=alpha_max,
                   alpha_max=alpha_max)
    b = BFOrienter(n, alpha_max=alpha_max)
    for kind, u, v in ops:
        if kind == "a":
            b.bf_insert(u, v)
        else:
            b.bf_delete(u, v)
    assert b.edge_count > 0.9 * alpha_max * (n - 1)
    b.verify()


_NON_INT_IDS = textwrap.dedent("""
    from dynorient.acyclic import BFOrienter
    from dynorient.errors import VertexRangeError
    b = BFOrienter(4, alpha_max=1)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        b.bf_insert(u, v)

    def state():
        return ([list(lst) for lst in b.out], b.edge_count, b.flip_count,
                b.reorientations)

    before = state()
    calls = [b.bf_out_edges]
    for method in (b.bf_insert, b.bf_delete):
        calls.append(lambda bad, m=method: m(bad, 2))
        calls.append(lambda bad, m=method: m(2, bad))
    for call in calls:
        for bad in (1.0, 1.5, "1", None):
            try:
                call(bad)
            except VertexRangeError:
                continue
            raise SystemExit(f"{bad!r} was taken as a vertex")
    if state() != before:
        raise SystemExit("a rejected id changed the engine")
    # a bool is an int: True is vertex 1
    if b.bf_out_edges(True) != b.bf_out_edges(1):
        raise SystemExit("bf_out_edges read True apart from 1")
    b.bf_delete(True, 2)
    b.bf_insert(2, True)
    if b.bf_out_edges(1) != [2] or b.edge_count != 3:
        raise SystemExit("True was not vertex 1")
    print("rejected")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_vertex_ids_that_are_not_ints_are_rejected(flags):
    """``bf_insert``, ``bf_delete`` and ``bf_out_edges`` raise
    VertexRangeError for a float, a string or None in either endpoint,
    change nothing, and keep doing so under python -O; a bool is taken
    as the int it is."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(acyclic.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", _NON_INT_IDS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"
