import random

import pytest

from dynorient.errors import (ConfigurationError, ConsistencyError,
                              DuplicateEdgeError, MissingEdgeError)
from dynorient.forest import edge_key
from dynorient.oracles import exact_arboricity, is_forest
from dynorient.params import Params
from dynorient.refine import RefinementEngine


def engine(n=8, gamma=8, paranoid=True, **kw):
    p = Params(n_cap=n, gamma=gamma, epsilon=kw.pop("epsilon", 1.0))
    return RefinementEngine(p, paranoid=paranoid)


def stage(eng, h_edges=(), raw_edges=()):
    """Install full bundles and consistent loads, then enroll the H part.

    h_edges: (a, b, count_toward_b); raw_edges: (u, v, cu, cv).
    """
    g = eng.g
    gamma = eng.params.gamma
    for a, b, w in h_edges:
        g.add_bundle(a, b)
        g.set_counts_raw(a, b, w, gamma - w)
    for u, v, cu, cv in raw_edges:
        assert cu + cv == gamma
        g.add_bundle(u, v)
        g.set_counts_raw(u, v, cu, cv)
    for v in range(eng.params.n_cap):
        out = sum(g.count(v, w) for w in g.out_nbrs[v])
        if out:
            g.bump_load(v, out)
    for a, b, _ in h_edges:
        eng._enroll(a, b)


def test_single_edge_lands_in_h_with_half_split():
    eng = engine()
    eng.insert_edge(0, 1)
    assert eng.g.counts(0, 1) == (4, 4)
    assert (0, 1) in eng.in_h
    assert eng.H.edge_weight(0, 1) == 4
    assert eng.rounded_out_degree(0) <= 2
    eng.verify(alpha=1)


def test_needs_gamma_above_the_low_cutoff():
    for gamma in (1, 2):
        with pytest.raises(ConfigurationError):
            RefinementEngine(Params(n_cap=4, gamma=gamma))


def test_verify_catches_a_load_moved_between_vertices():
    eng = engine(n=3)
    eng.insert_edge(0, 1)
    eng.verify()
    # the load sum and 1-validity both survive this move
    eng.g.loads[0] -= 1
    eng.g.loads[2] += 1
    with pytest.raises(ConsistencyError):
        eng.verify()


def test_duplicate_and_missing_raise():
    eng = engine()
    eng.insert_edge(0, 1)
    with pytest.raises(DuplicateEdgeError):
        eng.insert_edge(1, 0)
    with pytest.raises(MissingEdgeError):
        eng.delete_edge(2, 3)


def test_triangle_keeps_h_acyclic():
    eng = engine(n=3)
    tri = [(0, 1), (1, 2), (2, 0)]
    for u, v in tri:
        eng.insert_edge(u, v)
        eng.verify(alpha=1)
    in_h = [edge_key(u, v) for u, v in tri if edge_key(u, v) in eng.in_h]
    assert len(in_h) <= 2
    assert is_forest(eng.in_h)
    for u, v in tri:
        if edge_key(u, v) not in eng.in_h:
            cu, _ = eng.store.true_counts(u, v)
            assert not eng.params.in_open_interval(cu)


def test_delete_restores_empty_state():
    eng = engine(n=3)
    tri = [(0, 1), (1, 2), (2, 0)]
    for u, v in tri:
        eng.insert_edge(u, v)
    for u, v in tri:
        eng.delete_edge(u, v)
        eng.verify()
    assert not eng.g.bundles
    assert not eng.in_h
    assert all(s == 0 for s in eng.g.loads)


def test_disconnected_endpoints_link_without_shift():
    eng = engine()
    stage(eng, raw_edges=[(0, 1, 4, 4)])
    eng.handle_s_edge(0, 1)
    assert (0, 1) in eng.in_h
    assert eng.H.edge_weight(0, 1) == 4
    assert eng.inversions == 0 and eng.expulsions == 0


def test_square_cycle_rotation_expels_min_edge():
    # uniform weights gamma/2 on a 3-edge path plus the closing edge:
    # budget l*gamma = mu*gamma + min(4-2, 6-4, ...) = 3
    eng = engine(n=4)
    stage(eng,
          h_edges=[(0, 1, 4), (1, 2, 4), (2, 3, 4)],
          raw_edges=[(0, 3, 4, 4)])
    loads_before = list(eng.g.loads)
    eng.handle_s_edge(0, 3)
    assert eng.g.loads == loads_before
    assert eng.in_h == {(1, 2), (2, 3), (0, 3)}
    # expelled edge written back exactly at the closed-interval boundary
    assert eng.g.counts(0, 1) == (1, 7)
    assert eng.H.edge_weight(1, 2) == 1
    assert eng.H.edge_weight(2, 3) == 1
    assert eng.H.edge_weight(0, 3) == 7
    assert eng.inversions == 1 and eng.expulsions == 1


def test_boundary_edge_on_cycle_is_unhooked_without_rotation():
    # path min already at delta*gamma: remove it, shift nothing
    eng = engine(n=3)
    stage(eng,
          h_edges=[(0, 1, 2), (1, 2, 4)],
          raw_edges=[(0, 2, 4, 4)])
    eng.handle_s_edge(0, 2)
    assert eng.in_h == {(1, 2), (0, 2)}
    assert eng.g.counts(0, 1) == (2, 6)      # untouched
    assert eng.H.edge_weight(1, 2) == 4      # untouched
    assert eng.H.edge_weight(0, 2) == 4
    assert eng.inversions == 0 and eng.expulsions == 1


def test_rotation_low_witness_is_the_new_edge():
    eng = engine(n=3)
    stage(eng,
          h_edges=[(0, 1, 4), (1, 2, 4)],
          raw_edges=[(0, 2, 5, 3)])
    loads_before = list(eng.g.loads)
    eng.handle_s_edge(0, 2)
    assert eng.g.loads == loads_before
    assert eng.in_h == {(0, 1), (1, 2)}      # membership unchanged
    assert eng.g.counts(0, 2) == (7, 1)      # parked at the low boundary
    assert eng.H.edge_weight(0, 1) == 2
    assert eng.H.edge_weight(1, 2) == 2
    assert eng.inversions == 1 and eng.expulsions == 0


def test_rotation_high_witness_on_path():
    eng = engine(n=3)
    stage(eng,
          h_edges=[(0, 1, 5), (1, 2, 5)],
          raw_edges=[(0, 2, 4, 4)])
    eng.handle_s_edge(0, 2)
    assert eng.in_h == {(1, 2), (0, 2)}
    assert eng.g.counts(0, 1) == (7, 1)      # expelled at the high boundary
    assert eng.H.edge_weight(1, 2) == 7
    assert eng.H.edge_weight(0, 2) == 2
    assert eng.inversions == 1 and eng.expulsions == 1


def test_rotation_high_witness_is_the_new_edge():
    eng = engine(n=3)
    stage(eng,
          h_edges=[(0, 1, 4), (1, 2, 4)],
          raw_edges=[(0, 2, 3, 5)])
    eng.handle_s_edge(0, 2)
    assert eng.in_h == {(0, 1), (1, 2)}
    assert eng.g.counts(0, 2) == (1, 7)
    assert eng.H.edge_weight(0, 1) == 6
    assert eng.H.edge_weight(1, 2) == 6
    assert eng.inversions == 1 and eng.expulsions == 0


def test_rounding_points_away_from_heavy_endpoint():
    eng = engine()
    stage(eng, raw_edges=[(0, 1, 7, 1)])
    assert eng.rounded_out_edges(0) == [(0, 1)]
    assert eng.rounded_out_edges(1) == []
    assert eng.rounded_out_degree(2) == 0    # isolated vertex
    # exact tie (transient only): lower id wins
    eng2 = engine()
    stage(eng2, raw_edges=[(2, 5, 4, 4)])
    assert eng2.rounded_out_edges(2) == [(2, 5)]
    assert eng2.rounded_out_edges(5) == []


def test_h_contributes_at_most_two_per_vertex():
    eng = engine(n=6)
    stage(eng, h_edges=[(i, i + 1, 4) for i in range(5)])
    for v in range(6):
        assert eng.rounded_out_degree(v) <= 2


class FifoEngine(RefinementEngine):
    """Queue-draining variant: same invariants must hold either way."""

    def _drain(self, q):
        p = self.params
        pending = []
        seen = set()
        for key in q:
            if key in seen:
                continue
            seen.add(key)
            if not self.g.has_edge(*key):
                continue
            cu, cv = self.store.true_counts(*key)
            if key in self.in_h:
                if not p.in_closed_interval(cu):
                    self._unhook(*key)
            elif p.in_open_interval(cu):
                pending.append(key)
        while pending:
            a, b = pending.pop(0)
            self.handle_s_edge(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drain_order_does_not_affect_invariants(seed):
    rng = random.Random(seed)
    lifo = engine(n=10, paranoid=False)
    fifo = FifoEngine(lifo.params, paranoid=False)
    present = set()
    for _ in range(80):
        if present and rng.random() < 0.35:
            key = rng.choice(sorted(present))
            present.discard(key)
            lifo.delete_edge(*key)
            fifo.delete_edge(*key)
        else:
            u, v = rng.sample(range(10), 2)
            if edge_key(u, v) in present:
                continue
            present.add(edge_key(u, v))
            lifo.insert_edge(u, v)
            fifo.insert_edge(u, v)
        lifo.verify()
        fifo.verify()
    assert sum(lifo.g.loads) == sum(fifo.g.loads)


@pytest.mark.parametrize("seed,gamma", [(3, 8), (4, 16)])
def test_random_trace_meets_rounded_degree_bound(seed, gamma):
    rng = random.Random(seed)
    eng = engine(n=8, gamma=gamma, paranoid=False)
    present = set()
    for _ in range(70):
        if present and rng.random() < 0.3:
            key = rng.choice(sorted(present))
            present.discard(key)
            eng.delete_edge(*key)
        else:
            u, v = rng.sample(range(8), 2)
            if edge_key(u, v) in present:
                continue
            present.add(edge_key(u, v))
            eng.insert_edge(u, v)
        alpha = exact_arboricity(present) if present else 1
        eng.verify(alpha=max(alpha, 1))
