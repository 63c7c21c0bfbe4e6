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
    t = SlotTable()
    assert t.on_insert(3, 7) == [((3, 7), None, 0)]
    assert t.where[(3, 7)] == (3, 0)
    assert t.out_degree(3) == 1 and t.out_degree(7) == 0
    t.check()


def test_reorient_sole_edge_moves_to_other_endpoint():
    t = SlotTable()
    t.on_insert(0, 1)
    moves = t.on_reorient(0, 1)
    assert moves == [((0, 1), 0, 0)]
    assert t.where[(0, 1)] == (1, 0)
    assert t.out_degree(0) == 0
    t.check()


def test_reorient_middle_slot_logs_exactly_two_moves():
    t = SlotTable()
    t.on_insert(0, 1)
    t.on_insert(0, 2)
    t.on_insert(0, 3)
    t.on_insert(2, 9)      # target tail already has one out-edge
    moves = t.on_reorient(0, 2)
    assert moves == [((0, 2), 1, 1), ((0, 3), 2, 1)]
    assert t.where[(0, 2)] == (2, 1)
    assert t.where[(0, 3)] == (0, 1)
    t.check()


def test_delete_from_middle_slot_compacts_once():
    t = SlotTable()
    t.on_insert(0, 1)
    t.on_insert(0, 2)
    t.on_insert(0, 3)
    moves = t.on_delete(0, 2)
    assert moves == [((0, 2), 1, None), ((0, 3), 2, 1)]
    assert t.out_degree(0) == 2
    t.check()


def test_unassigned_edge_raises():
    t = SlotTable()
    with pytest.raises(MissingEdgeError):
        t.on_delete(1, 2)
    with pytest.raises(MissingEdgeError):
        t.on_reorient(1, 2)
    assert not t.where and not t.slots


def test_swap_exchanges_two_slots_of_one_vertex():
    t = SlotTable()
    t.on_insert(4, 1)
    t.on_insert(4, 2)
    t.swap(4, 0, 1)
    assert t.where[(1, 4)] == (4, 1)
    assert t.where[(2, 4)] == (4, 0)
    t.check()


def test_rotate_shifts_tails_around_a_cycle():
    t = SlotTable()
    t.on_insert(0, 1)
    t.on_insert(1, 2)
    t.on_insert(2, 0)
    t.rotate([((0, 1), 1), ((1, 2), 2), ((0, 2), 0)])
    assert t.where[(0, 1)] == (1, 0)
    assert t.where[(1, 2)] == (2, 0)
    assert t.where[(0, 2)] == (0, 0)
    t.check()


def random_driver(seed, ops, n=20, cap=4):
    rng = random.Random(seed)
    t = SlotTable()
    out = {v: set() for v in range(n)}
    for _ in range(ops):
        kind = rng.random()
        if kind < 0.5:
            u, v = rng.sample(range(n), 2)
            if edge_key(u, v) in t.where or len(out[u]) >= cap:
                continue
            moves = t.on_insert(u, v)
            out[u].add(edge_key(u, v))
        elif kind < 0.75 and t.where:
            key = rng.choice(sorted(t.where))
            tail, _ = t.where[key]
            head = key[0] if tail == key[1] else key[1]
            if len(out[head]) >= cap:
                continue
            moves = t.on_reorient(tail, head)
            out[tail].discard(key)
            out[head].add(key)
        elif t.where:
            key = rng.choice(sorted(t.where))
            tail = t.where[key][0]
            moves = t.on_delete(*key)
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
