import random

import pytest

from dynorient.acyclic import BFOrienter
from dynorient.errors import (ConfigurationError, DuplicateEdgeError,
                              MissingEdgeError, VertexRangeError)
from dynorient.forest import edge_key
from dynorient.oracles import (exact_arboricity, is_acyclic, is_forest,
                               reverse_replay_reorientations)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        BFOrienter(4)
    with pytest.raises(ConfigurationError):
        BFOrienter(4, alpha_max=0)
    assert BFOrienter(4, alpha_max=3).d == 8
    assert BFOrienter(4, d=5).d == 5


def test_first_insert_turns_the_named_endpoint_into_a_sink():
    b = BFOrienter(4, alpha_max=1)
    stats = b.bf_insert(0, 1)
    assert stats == (1, 1)
    assert b.bf_out_edges(0) == []
    assert b.bf_out_edges(1) == [0]
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
    edges, count = b.edges(), b.edge_count
    for u, v in ((0, -1), (-1, 1), (0, n), (n, 1)):
        with pytest.raises(VertexRangeError):
            b.bf_insert(u, v)
        with pytest.raises(VertexRangeError):
            b.bf_delete(u, v)
        assert b.edges() == edges and b.edge_count == count
    b.verify()


def test_delete_searches_both_lists_and_never_reorients():
    b = BFOrienter(4, alpha_max=1)
    b.bf_insert(0, 1)                   # lands in out(1)
    moves = b.reorientations
    b.bf_delete(0, 1)
    assert b.reorientations == moves
    assert b.edges() == []
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
    for _ in range(steps):
        if edges and rng.random() < delete_bias:
            key = rng.choice(sorted(edges))
            edges.discard(key)
            ops.append(("d",) + key)
            continue
        free = [k for k in pairs if k not in edges]
        rng.shuffle(free)
        for key in free:
            if exact_arboricity(sorted(edges | {key})) <= alpha_cap:
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
