"""Two-phase maintenance of a boundary forest H over the fractional orientation.

H collects exactly the edges whose bundle split is ambiguous: any edge with
both counts strictly inside (delta*gamma, (1-delta)*gamma) must be in H, and
every H edge keeps its counts inside the closed interval widened by mu.  H is
kept acyclic, so rounding is cheap: a non-H edge points away from its
larger-count endpoint, and an H edge points from child to parent, so H
contributes at most 1 per vertex.  The parents are read from
``hl.HeavyLightOrienter``, a parent-pointer mirror of H.

Updates run in two phases.  Phase one lets the fractional engine insert or
delete the gamma copies; every bundle it touches lands on stack Q.  Phase two
drains Q, evicting H edges whose counts drifted out of the closed interval
and collecting non-H edges that violate the open-interval rule onto stack S.
Each S edge either links into H (endpoints disconnected) or closes a cycle;
then the cheapest count rotation around the whole cycle pushes some cycle
edge to a closed-interval boundary, that edge is expelled, and the rotation
leaves every vertex load untouched (each cycle vertex gains on one incident
cycle edge what it loses on the other).  Each S edge costs one exposure of
H's u..v path (``LinkCutForest.path_update``): the one pass reports a
missing path, hands the path's min and max to the rotation plan, finds the
witness to expel and applies the rotation's shift.

The rotation budget l(C) is computed in integer numerators: with dg =
delta*gamma and path numerators read from the u side,

    l = mu*gamma + min(cycmin - dg, (gamma - dg) - cycmax,
                       cu - dg, (gamma - dg) - cv)

where cycmin/cycmax run over the path numerators and cv, the new edge's
count in cycle direction.  A nonpositive minimum means some cycle edge
already sits at or past the open-interval edge, and it can simply be
unhooked without any rotation.  The last two terms can never be the strict
minimum (the cycmax term is never larger), so only the first two choose a
rotation direction; they stay in the formula as written guards.
"""

import logging

from .errors import (ConsistencyError, DuplicateEdgeError, MissingEdgeError)
from .forest import LinkCutForest, edge_key
from .fractional import EdgeStore, FractionalOrienter
from .graph import GraphState
from .hl import HeavyLightOrienter
from .oracles import check_eta_valid, is_forest

log = logging.getLogger(__name__)


class RefinementEngine:

    def __init__(self, params, paranoid: bool = False):
        assert params.delta_num is not None, "refinement needs delta and mu"
        self.params = params
        self.g = GraphState(params)
        self.H = LinkCutForest(params.gamma)
        self.store = EdgeStore(self.g, self.H)
        self.frac = FractionalOrienter(self.g, self.store)
        self.hl = HeavyLightOrienter()
        # H's edge set: the store's resident keys, written only by
        # place/release
        self.in_h = self.store.resident
        self.paranoid = paranoid
        self.inversions = 0
        self.expulsions = 0
        # owners layering structures on top of H can ask to be told right
        # before an edge is pulled into H, and can read back which bundles
        # an update touched
        self.on_pre_enroll = None
        self._touched = set()

    # ------------------------------------------------------------------
    # public updates

    def insert_edge(self, u, v):
        """Insert the bundle; returns every bundle key the update touched."""
        if self.g.has_edge(u, v):
            raise DuplicateEdgeError(f"edge {edge_key(u, v)} present")
        self._touched = {edge_key(u, v)}
        q = self.frac.gamma_insert(u, v)
        self._drain(q)
        if self.paranoid:
            self.verify()
        return set(self._touched)

    def delete_edge(self, u, v):
        if not self.g.has_edge(u, v):
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        self._touched = {edge_key(u, v)}
        if edge_key(u, v) in self.in_h:
            self._unhook(u, v)
        q = self.frac.gamma_delete(u, v)
        self._drain(q)
        if self.paranoid:
            self.verify()
        return set(self._touched)

    def absorb(self, q):
        """Drain a reorientation log produced outside the two public updates
        (the arboricity layer repairs copies through the fractional engine
        directly).  Returns every key the current update has touched so far,
        including whatever the drain itself moved."""
        self._touched.update(q)
        self._drain(q)
        return set(self._touched)

    # ------------------------------------------------------------------
    # H membership plumbing

    def _enroll(self, a, b):
        """Move edge (a, b) into H, weight = current count toward b."""
        if self.on_pre_enroll is not None:
            self.on_pre_enroll(a, b)
        self.H.link(a, b, self.g.count(a, b))
        self.hl.link(a, b)
        self.store.place(a, b)
        self._touched.add(edge_key(a, b))

    def _unhook(self, a, b):
        """Write the tree counts back and drop edge (a, b) from H."""
        self.store.release(a, b)
        self.H.cut(a, b)
        self.hl.cut(a, b)
        self._touched.add(edge_key(a, b))

    # ------------------------------------------------------------------
    # phase two

    def _drain(self, q):
        p = self.params
        pending = []
        seen = set()
        for key in reversed(q):
            if key in seen:
                continue
            seen.add(key)
            self._touched.add(key)
            if not self.g.has_edge(*key):
                continue
            cu, cv = self.store.true_counts(*key)
            if key in self.in_h:
                if not p.in_closed_interval(cu):
                    self._unhook(*key)
            elif p.in_open_interval(cu):
                pending.append(key)
        assert len(pending) <= len(seen)
        while pending:
            a, b = pending.pop()
            self.handle_s_edge(a, b)

    def handle_s_edge(self, u, v):
        """Restore the open-interval rule for the non-H edge (u, v): one
        exposure of H's u..v path either finds no path, and the edge
        enrolls, or plans and applies the cycle's rotation."""
        key = edge_key(u, v)
        assert key not in self.in_h
        cu, cv = self.store.true_counts(u, v)
        assert self.params.in_open_interval(cu), (key, cu, cv)
        if self.paranoid:
            loads_before = list(self.g.loads)
        found = self.H.path_update(
            u, v, lambda mn, mx: self._plan_rotation(mn, mx, cu, cv))
        if found is None:
            self._enroll(u, v)
            return
        wit, shift = found
        if shift:
            self.inversions += 1
            self.store.set_counts_true(u, v, cu - shift, cv + shift)
        if wit is not None:
            # unhook the witness and take its place
            self._unhook(*wit)
            self._enroll(u, v)
            self.expulsions += 1
        if self.paranoid:
            assert self.g.loads == loads_before, "rotation moved a load"

    def _plan_rotation(self, mn, mx, cu, cv):
        """The rotation of the cycle closed by (u, v), from the path's
        u-side numerators: ``(which, shift)``, the path edge to expel
        ("min", "max" or None) and the shift of every path numerator."""
        p = self.params
        gamma, dg = p.gamma, p.low_cut
        a_term = min(mn, cv) - dg
        b_term = (gamma - dg) - max(mx, cv)
        m_star = min(a_term, b_term, cu - dg, (gamma - dg) - cv)

        if m_star <= 0:
            # some path edge already rests at or past the open-interval
            # edge; unhook it and take its place, no rotation needed
            if a_term == m_star:
                assert mn <= dg < cv
                return "min", 0
            assert b_term == m_star and mx >= gamma - dg > cv
            return "max", 0

        x = m_star + p.mu_num
        if a_term == m_star:
            # rotate against the u-side numerators; when the new edge
            # itself lands on the low boundary it stays outside H and
            # nothing is expelled
            return ("min" if mn <= cv else None), -x
        if b_term == m_star:
            return ("max" if mx >= cv else None), x
        # cu-dg and (gamma-dg)-cv are each >= b_term, so neither can be the
        # strict minimum
        raise ConsistencyError("unreachable rotation case")

    # ------------------------------------------------------------------
    # rounding

    def rounded_out_edges(self, v):
        """Explicit out-edges of v: non-H edges point away from the endpoint
        carrying the larger count, and v's H parent edge, if any, points
        out of v, as in ``ArboricityDecomposer.out_degree``.  A non-H edge
        rounded away from v has a positive count out of v, so v's
        out-neighbour set holds every candidate.  Pure: mutates nothing."""
        out = []
        for w in sorted(self.g.out_nbrs[v]):
            key = edge_key(v, w)
            if key in self.in_h:
                continue
            toward_w = self.g.count(v, w)
            toward_v = self.g.count(w, v)
            if toward_w > toward_v:
                out.append((v, w))
            elif toward_w == toward_v and v < w:
                log.debug("rounding tie on %s: pointing away from %d", key, v)
                out.append((v, w))
        par = self.hl.parent.get(v)
        if par is not None:
            out.append((v, par))
        return out

    def rounded_out_degree(self, v):
        return len(self.rounded_out_edges(v))

    # ------------------------------------------------------------------
    # audits

    def true_counts_map(self):
        return {key: self.store.true_counts(*key) for key in self.g.bundles}

    def verify(self, alpha=None):
        """Full-scan invariant audit; raises on any breach."""
        p = self.params
        true = self.true_counts_map()
        for key, (cu, cv) in true.items():
            assert cu + cv == p.gamma, (key, cu, cv)
            if p.in_open_interval(cu):
                assert key in self.in_h, f"interior edge {key} outside H"
            if key in self.in_h:
                assert p.in_closed_interval(cu), f"H edge {key} past boundary"
            u, w = key
            assert (cu > 0) == (w in self.g.out_nbrs[u]), key
            assert (cv > 0) == (u in self.g.out_nbrs[w]), key
        assert check_eta_valid(self.g.loads, true) == []
        assert is_forest(self.in_h)
        assert sum(self.g.loads) == p.gamma * len(self.g.bundles)
        for key in self.in_h:
            assert self.hl.has_edge(*key)
            assert self.H.has_edge(*key)
        assert len(self.H) == len(self.in_h)
        # out-degrees read H's parents off the mirror; it must agree with
        # H edge for edge (so the roots agree too)
        for v, par in self.hl.parent.items():
            fe = self.H.first_edge_on_root_path(v) if self.H.has_vertex(v) else None
            got = None if fe is None else edge_key(*fe)
            assert got == (None if par is None else edge_key(v, par)), (v, par, fe)
        if alpha is not None:
            cap = int((1 + p.epsilon) * alpha) + 2
            for v in range(p.n_cap):
                d = self.rounded_out_degree(v)
                assert d <= cap, (v, d, cap)
