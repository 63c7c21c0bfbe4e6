import random

import pytest

from dynorient.errors import MissingEdgeError
from dynorient.forest import edge_key
from dynorient.split import SlotTable
from naive_oracles import is_pseudoforest


def layers_of(t):
    """Slot index -> sorted edge keys, read off the one slot index."""
    layers = {}
    for key, (_, i) in t.where.items():
        layers.setdefault(i, []).append(key)
    return {i: sorted(keys) for i, keys in layers.items()}


def test_first_out_edge_takes_slot_zero():
    t = SlotTable([0] * 10)
    assert t.insert((3, 7), 3) == [((3, 7), None, 0)]
    assert t.where[(3, 7)] == (3, 0)
    assert t.out_degree(3) == 1 and t.out_degree(7) == 0
    t.check()


def test_reorient_sole_edge_moves_to_other_endpoint():
    t = SlotTable([0] * 10)
    t.insert((0, 1), 0)
    moves = t.reorient((0, 1), 1)
    assert moves == [((0, 1), 0, 0)]
    assert t.where[(0, 1)] == (1, 0)
    assert t.out_degree(0) == 0
    t.check()


def test_reorient_middle_slot_logs_exactly_two_moves():
    t = SlotTable([0] * 10)
    t.insert((0, 1), 0)
    t.insert((0, 2), 0)
    t.insert((0, 3), 0)
    t.insert((2, 9), 2)    # target tail already has one out-edge
    moves = t.reorient((0, 2), 2)
    assert moves == [((0, 2), 1, 1), ((0, 3), 2, 1)]
    assert t.where[(0, 2)] == (2, 1)
    assert t.where[(0, 3)] == (0, 1)
    t.check()


def test_delete_from_middle_slot_compacts_once():
    t = SlotTable([0] * 10)
    t.insert((0, 1), 0)
    t.insert((0, 2), 0)
    t.insert((0, 3), 0)
    moves = t.remove((0, 2))
    assert moves == [((0, 2), 1, None), ((0, 3), 2, 1)]
    assert t.out_degree(0) == 2
    t.check()


def test_unassigned_edge_raises():
    t = SlotTable([0] * 10)
    with pytest.raises(MissingEdgeError):
        t.remove((1, 2))
    with pytest.raises(MissingEdgeError):
        t.reorient((1, 2), 2)
    assert not t.where and not t.slots


def test_swap_exchanges_two_slots_of_one_vertex():
    t = SlotTable([0] * 10)
    t.insert((1, 4), 4)
    t.insert((2, 4), 4)
    t.swap(4, 0, 1)
    assert t.where[(1, 4)] == (4, 1)
    assert t.where[(2, 4)] == (4, 0)
    t.check()


def test_rotate_shifts_tails_around_a_cycle():
    t = SlotTable([0] * 10)
    t.insert((0, 1), 0)
    t.insert((1, 2), 1)
    t.insert((0, 2), 2)
    t.rotate([((0, 1), 1), ((1, 2), 2), ((0, 2), 0)])
    assert t.where[(0, 1)] == (1, 0)
    assert t.where[(1, 2)] == (2, 0)
    assert t.where[(0, 2)] == (0, 0)
    t.check()


def random_driver(seed, ops, n=20, cap=4):
    rng = random.Random(seed)
    t = SlotTable([0] * n)
    out = {v: set() for v in range(n)}
    for _ in range(ops):
        kind = rng.random()
        if kind < 0.5:
            u, v = rng.sample(range(n), 2)
            if edge_key(u, v) in t.where or len(out[u]) >= cap:
                continue
            moves = t.insert(edge_key(u, v), u)
            out[u].add(edge_key(u, v))
        elif kind < 0.75 and t.where:
            key = rng.choice(sorted(t.where))
            tail, _ = t.where[key]
            head = key[0] if tail == key[1] else key[1]
            if len(out[head]) >= cap:
                continue
            moves = t.reorient(key, head)
            out[tail].discard(key)
            out[head].add(key)
        elif t.where:
            key = rng.choice(sorted(t.where))
            tail = t.where[key][0]
            moves = t.remove(key)
            out[tail].discard(key)
        else:
            continue
        assert len(moves) <= 3
        t.check()
    return t, out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_events_keep_prefix_invariant(seed):
    t, out = random_driver(seed, 1000)
    for v, keys in out.items():
        assert t.out_degree(v) == len(keys)
        assert t.out_deg[v] == len(keys)     # the count kept per event
        assert {t.where[k][0] for k in keys} <= {v}
    layers = layers_of(t)
    assert sorted(layers) == list(range(t.partition_count()))
    assert sum(len(keys) for keys in layers.values()) == len(t.where)


def test_layers_are_pseudoforests_and_bounded_by_degree_cap():
    t, out = random_driver(7, 1500, n=24, cap=3)
    assert t.partition_count() <= 3
    for layer in layers_of(t).values():
        assert is_pseudoforest(layer)
        tails = [t.where[k][0] for k in layer]
        assert len(tails) == len(set(tails))    # one out-edge per vertex


def _model_remove(rows, key):
    """Moves of dropping key from the plain per-vertex lists."""
    row = next(r for r in rows.values() if key in r)
    i = row.index(key)
    last = row.pop()
    if last == key:
        return [(key, i, None)]
    row[i] = last
    return [(key, i, None), (last, len(row), i)]


def _layer_cycle(t, i, start):
    """The slot-i edges of the cycle reached from start, as (tail, key)
    pairs in walk order, or None if the walk stops at a vertex with no
    slot-i edge."""
    seen = []
    x = start
    while x not in seen:
        row = t.slots.get(x, [])
        if len(row) <= i:
            return None
        seen.append(x)
        a, b = row[i]
        x = b if x == a else a
    at = seen.index(x)
    return [(v, t.slots[v][i]) for v in seen[at:]]


@pytest.mark.parametrize("seed", [3, 4])
def test_random_events_match_a_plain_list_model(seed):
    """Every event's move triples, and afterwards ``where``, the rows and
    ``out_deg``, equal those of a plain list per vertex."""
    rng = random.Random(seed)
    n = 8
    t = SlotTable([0] * n)
    rows = {v: [] for v in range(n)}
    kinds = {"insert": 0, "remove": 0, "reorient": 0, "swap": 0, "rotate": 0}
    for _ in range(3000):
        kind = rng.choice(sorted(kinds))
        live = sorted(t.where)
        if kind == "insert":
            u, v = rng.sample(range(n), 2)
            key = edge_key(u, v)
            if key in t.where:
                continue
            moves = t.insert(key, u)
            rows[u].append(key)
            want = [(key, None, len(rows[u]) - 1)]
        elif kind == "remove" and live:
            key = rng.choice(live)
            moves = t.remove(key)
            want = _model_remove(rows, key)
        elif kind == "reorient" and live:
            key = rng.choice(live)
            tail = t.where[key][0]
            head = key[0] if tail == key[1] else key[1]
            moves = t.reorient(key, head)
            want = _model_remove(rows, key)
            rows[head].append(key)
            want[0] = (key, want[0][1], len(rows[head]) - 1)
        elif kind == "swap":
            v = rng.randrange(n)
            if len(rows[v]) < 2:
                continue
            i, j = rng.sample(range(len(rows[v])), 2)
            moves = t.swap(v, i, j)
            rows[v][i], rows[v][j] = rows[v][j], rows[v][i]
            want = None
        elif kind == "rotate" and live:
            starts = [(i, v) for i in range(t.partition_count())
                      for v in range(n)]
            rng.shuffle(starts)
            i, cycle = next(((i, c) for i, v in starts
                             if (c := _layer_cycle(t, i, v))), (0, None))
            if cycle is None:
                continue
            # each cycle edge turns to its head, which takes it in slot i
            turned = [(key, key[0] if v == key[1] else key[1])
                      for v, key in cycle]
            moves = t.rotate(turned)
            for key, head in turned:
                rows[head][i] = key
            want = None
        else:
            continue
        kinds[kind] += 1
        assert moves == want, (kind, moves, want)
        assert t.where == {k: (v, i) for v, row in rows.items()
                           for i, k in enumerate(row)}
        assert {v: row for v, row in t.slots.items() if row} == \
            {v: row for v, row in rows.items() if row}
        assert all(t.out_deg[v] == len(rows[v]) for v in range(n))
        t.check()
    assert min(kinds.values()) >= 20, kinds
