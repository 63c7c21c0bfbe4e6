"""Two-phase maintenance of a boundary forest H over the fractional orientation.

H collects exactly the edges whose bundle split is ambiguous: any edge with
both counts strictly inside (delta*gamma, (1-delta)*gamma) must be in H, and
every H edge keeps its counts inside the closed interval widened by mu.  H is
kept acyclic, so rounding is cheap: a non-H edge points away from its
larger-count endpoint, and an H edge points from child to parent, so H
contributes at most 1 per vertex.  ``hl.HeavyLightOrienter`` adds each
H parent to the rounded out-degree table it is handed, from the roots H's
link and cut report; H's root paths are the reference it is audited
against.

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

    l = mu*gamma + min(cycmin - dg, (gamma - dg) - cycmax)

where cycmin/cycmax run over the path numerators and cv, the new edge's
count in cycle direction.  A nonpositive minimum means some cycle edge
already sits at or past the open-interval edge, and it can simply be
unhooked without any rotation.  H's edge set has one owner, H's own edge
map: ``in_h`` and the EdgeStore's routing read a live view of its keys.
"""

import logging
from collections import Counter

from .errors import ConfigurationError, check_ends, check_vertex, require
from .forest import LinkCutForest, edge_key
from .fractional import EdgeStore, FractionalOrienter
from .graph import GraphState
from .hl import HeavyLightOrienter
from .oracles import check_eta_valid, is_forest
from .params import DELTA_NUM, MU_NUM

log = logging.getLogger(__name__)


class RefinementEngine:

    def __init__(self, params, paranoid: bool = False, stamps=None,
                 out_deg=None):
        if params.gamma <= DELTA_NUM:
            raise ConfigurationError(
                f"gamma must exceed {DELTA_NUM}, got {params.gamma}")
        self.params = params
        self.g = GraphState(params)
        # H bumps the caller's change stamps, or its own when none given
        self.H = LinkCutForest(params.gamma, stamps)
        self.store = EdgeStore(self.g, self.H)
        self.frac = FractionalOrienter(self.g, self.store)
        # H's orienter writes H parents into the caller's rounded
        # out-degree table, or its own when none given
        self.hl = HeavyLightOrienter(out_deg)
        self.in_h = self.H.edge_keys()   # H's edge set, a live view
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
        """Insert the bundle; returns every bundle key the update touched.
        Both ids are checked before any write."""
        check_ends(u, v, self.params.n_cap)
        self._touched = {edge_key(u, v)}
        q = self.frac.gamma_insert(u, v)
        self._drain(q)
        if self.paranoid:
            self.verify()
        return set(self._touched)

    def delete_edge(self, u, v):
        check_ends(u, v, self.params.n_cap)
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
        self._drain(q)
        return set(self._touched)

    # ------------------------------------------------------------------
    # H membership plumbing

    def _enroll(self, a, b):
        """Move edge (a, b) into H, weight = current count toward b."""
        if self.on_pre_enroll is not None:
            self.on_pre_enroll(a, b)
        self.hl.link(a, self.H.link(a, b, self.g.count(a, b)))
        self._touched.add(edge_key(a, b))

    def _unhook(self, a, b):
        """Write the tree counts back and drop edge (a, b) from H."""
        self.store.sync_bundle(a, b)
        self.hl.cut(a, *self.H.cut(a, b))
        self._touched.add(edge_key(a, b))

    # ------------------------------------------------------------------
    # phase two

    def _drain(self, q):
        """Phase two over a raw walk log, deduplicated here alone: each key
        is handled once, in the reverse order of its last occurrences."""
        p = self.params
        pending = []
        seen = set()
        for key in reversed(q):
            if key in seen:
                continue
            seen.add(key)
            self._touched.add(key)
            if key not in self.g.bundles:
                continue
            cu, cv = self.store.true_counts(*key)
            if key in self.in_h:
                if not p.in_closed_interval(cu):
                    self._unhook(*key)
            elif p.in_open_interval(cu):
                pending.append(key)
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
            self.g.set_counts_raw(u, v, cu - shift, cv + shift)
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
        m_star = min(a_term, b_term)

        if m_star <= 0:
            # some path edge already rests at or past the open-interval
            # edge; unhook it and take its place, no rotation needed
            if a_term == m_star:
                assert mn <= dg < cv
                return "min", 0
            assert mx >= gamma - dg > cv
            return "max", 0

        x = m_star + MU_NUM
        if a_term == m_star:
            # rotate against the u-side numerators; when the new edge
            # itself lands on the low boundary it stays outside H and
            # nothing is expelled
            return ("min" if mn <= cv else None), -x
        return ("max" if mx >= cv else None), x

    # ------------------------------------------------------------------
    # rounding

    def rounded_out_edges(self, v):
        """Explicit out-edges of v: non-H edges point away from the endpoint
        carrying the larger count, and v's H parent edge, if any, points
        out of v, as in ``ArboricityDecomposer.out_degree``.  A non-H edge
        rounded away from v has a positive count out of v, so v's
        out-neighbour set holds every candidate.  Changes no engine state
        (H's read may reshape its splay trees); raises VertexRangeError for
        a v that is not an int in [0, n_cap)."""
        check_vertex(v, self.params.n_cap)
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
        fe = self.H.first_edge_on_root_path(v)
        if fe is not None:
            out.append((v, fe[1] if fe[0] == v else fe[0]))
        return out

    # ------------------------------------------------------------------
    # audits

    def verify(self, alpha=None):
        """Full-scan invariant audit; raises ConsistencyError on any breach."""
        p = self.params
        g = self.g
        true = {key: self.store.true_counts(*key) for key in g.bundles}
        out_copies = [0] * p.n_cap
        for key, (cu, cv) in true.items():
            require(cu + cv == p.gamma, key, cu, cv)
            if p.in_open_interval(cu):
                require(key in self.in_h, "interior edge outside H", key)
            if key in self.in_h:
                require(p.in_closed_interval(cu), "H edge past boundary", key)
            u, w = key
            require((cu > 0) == (w in g.out_nbrs[u]), key)
            require((cv > 0) == (u in g.out_nbrs[w]), key)
            out_copies[u] += cu
            out_copies[w] += cv
        require(g.loads == out_copies, "a load is not its out-copy count")
        ins = Counter(w for ws in g.out_nbrs for w in ws)
        require(g.in_deg == [ins[v] for v in range(p.n_cap)],
                "an in-degree is not its in-neighbour count")
        require(check_eta_valid(g.loads, true) == [], "copy breaks 1-validity")
        require(is_forest(self.in_h), "H closed a cycle")
        self.H.verify()
        if alpha is not None:
            cap = int((1 + p.epsilon) * alpha) + 2
            for v in range(p.n_cap):
                d = len(self.rounded_out_edges(v))
                require(d <= cap, v, d, cap)
