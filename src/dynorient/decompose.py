"""Forest decomposition maintained on top of the boundary-forest refinement.

Outside H every bundle rounds toward its majority endpoint, and the slot
table splits those rounded edges into layers with at most one out-edge per
vertex each, so layer i is a functional graph: a pseudoforest P_i.  Each
layer is stored as a forest F_i in a parity-only link-cut tree
(``forest.ParityForest``) plus a set M_i of designated cycle edges, one per
unicycle component, kept raw.  Pooling the M edges of every layer gives a
small graph that is kept acyclic and colourful (no two edges of the same
layer connected inside it), so every piece of the output is a genuine
forest: the F_i, the pooled cycle edges, and H.

Three mechanisms keep the layers aligned with the rounding as counts move:

* slot diffs.  After each refinement update, every touched bundle's true
  tail is compared against its slot entry and the slot table replayed
  (insert / delete / reorient).  Edges knocked out of a slot re-enter
  through a placement queue that re-reads current state, so stale queue
  entries are harmless.

* cycle inversions.  Switching two designated cycle edges at a shared
  vertex needs both to point out of it, and a designated edge reverses by
  shifting every bundle on its loop by gamma minus the low cutoff against
  the current direction.  Counts land inside the low closed interval,
  loads never move (each loop vertex loses on one incident edge what it
  gains on the other), and the component root, the unique vertex with no
  layer out-edge, slides from the edge's old tail to its old head.  This
  needs the cutoff strictly below gamma/2 so the shifted counts round the
  other way with room to spare.

* validity repair.  An inversion can leave a rounded edge pointing up a
  load gap of 2 or more.  Candidates are the loop edges whose endpoint
  loads differ by 2 or more either way (the repair re-checks direction by
  direction).  Each invalid direction is repaired by deleting those copies
  and inserting them back through the fractional engine, whose walks end
  at genuinely light vertices.

Layer bundles keep their counts in the raw tables; the layer trees carry
connectivity, roots and depth parity only, and no weights.  Every non-root
vertex of F_i hangs from its parent by its slot-i edge, so a loop is read
off the slot table by walking slot-i edges up to the component root.  A
layer cut never reroots: the parent side keeps the component root and the
child, the edge's tail, heads its side.  A link hangs a tail that already
roots its tree, so only a cycle inversion (``set_root``) everts one.
"""

from collections import deque

from .errors import ConfigurationError, ConsistencyError, CycleError, require
from .forest import ParityForest, edge_key
from .oracles import is_forest
from .refine import RefinementEngine
from .split import SlotTable


def _other(key, v):
    a, b = key
    return b if v == a else a


class ArboricityDecomposer:
    """Maintains forests whose union is the edge set, at most
    floor((1+eps)*alpha) + 2 of them nonempty on stretches where the
    fractional engine's load bound holds."""

    def __init__(self, params, paranoid: bool = False):
        if params.gamma // 2 <= params.low_cut:
            raise ConfigurationError(
                f"low cutoff {params.low_cut} must stay strictly below gamma/2"
            )
        self.params = params
        self.paranoid = paranoid
        self.refine = RefinementEngine(params, paranoid=paranoid)
        self.refine.on_pre_enroll = self._evict
        self.g = self.refine.g
        self.store = self.refine.store
        self.frac = self.refine.frac
        self.split = SlotTable()
        self.F = []         # layer -> ParityForest of that layer's tree edges
        self.m_tail = []    # layer -> {tail vertex: designated cycle edge key}
        self.placed = {}    # key -> ("F", i) or ("M", i)
        self.incidence = {} # vertex -> pooled cycle edge keys at it
        self.queue = deque()    # evicted or fresh edges awaiting placement
        self._dirty = deque()   # cycle edges whose pooled component needs audit
        self.moves = 0
        self.inversions = 0
        self.repair_pairs = 0
        self.surplus_ops = 0

    @property
    def m(self):
        """Layer -> set of designated cycle edge keys, read off ``m_tail``."""
        return [set(tails.values()) for tails in self.m_tail]

    # ------------------------------------------------------------------
    # public updates

    def insert_edge(self, u, v):
        self._settle(self.refine.insert_edge(u, v))

    def delete_edge(self, u, v):
        key = edge_key(u, v)
        if self.g.has_edge(u, v) and key in self.split.where:
            self._pull(key)
        self._settle(self.refine.delete_edge(u, v))

    def forests(self):
        """The decomposition as sorted edge-key lists: tree layers, then
        the pooled cycle edges, then the ambiguous-count forest."""
        out = []
        for i in range(len(self.F)):
            layer = sorted(k for k, spot in self.placed.items() if spot == ("F", i))
            if layer:
                out.append(layer)
        pooled = sorted(k for ks in self.m for k in ks)
        if pooled:
            out.append(pooled)
        h = sorted(self.refine.in_h)
        if h:
            out.append(h)
        return out

    def out_degree(self, v):
        """v's out-degree once the fractional orientation is rounded.

        Every unambiguous bundle points away from the endpoint holding
        the larger share, which is exactly the slot table's tail, and
        the ambiguous forest contributes v's parent edge if there is
        one, read from the parent-pointer mirror of H.  This is
        ``len(self.refine.rounded_out_edges(v))`` without the scan."""
        deg = self.split.out_degree(v)
        if self.refine.hl.parent.get(v) is not None:
            deg += 1
        return deg

    # ------------------------------------------------------------------
    # layer plumbing

    def _ensure_layer(self, i):
        while len(self.F) <= i:
            self.F.append(ParityForest())
            self.m_tail.append({})

    def _loop_path(self, i, h, t):
        """Layer-i tree path from h up to its component root t.  Every
        non-root vertex of F_i hangs from its parent by its slot-i edge,
        also while the placement queue is non-empty."""
        slots = self.split.slots
        path = [h]
        while path[-1] != t:
            x = path[-1]
            path.append(_other(slots[x][i], x))
        return path

    def _evict(self, a, b):
        # refinement is about to absorb this edge; get it out of the layers
        key = edge_key(a, b)
        if key in self.split.where:
            self._pull(key)

    def _pull(self, key):
        """Remove a slotted edge from the slot table and its layer."""
        t = self.split.where[key][0]
        self._apply_moves(self.split.on_delete(t, _other(key, t)))

    def _apply_moves(self, moves):
        self.moves += len(moves)
        for k, src, _ in moves:
            if src is not None:
                self._unplace(k)
        for k, _, dst in moves:
            if dst is not None:
                self.queue.append(k)

    def _unplace(self, key):
        spot = self.placed.pop(key, None)
        if spot is None:
            return
        kind, i = spot
        a, b = key
        if kind == "M":
            t = a if self.m_tail[i].get(a) == key else b
            assert self.m_tail[i].get(t) == key, (key, i)
            del self.m_tail[i][t]
            self._pool_discard(key)
            return
        f = self.F[i]
        old_root = f.find_root(a)
        f.cut(a, b)
        # the cut may have severed the path that made the component's
        # designated edge close a cycle; the parent side keeps old_root,
        # which is the edge's tail, so its head stayed exactly when its
        # root is still old_root
        me = self.m_tail[i].get(old_root)
        if me is not None and f.find_root(_other(me, old_root)) != old_root:
            self._demote(me, i)

    def _demote(self, key, i):
        a, b = key
        t = a if self.m_tail[i].get(a) == key else b
        del self.m_tail[i][t]
        self._pool_discard(key)
        del self.placed[key]
        self.queue.append(key)

    def _pool_add(self, key):
        for v in key:
            self.incidence.setdefault(v, set()).add(key)

    def _pool_discard(self, key):
        for v in key:
            ks = self.incidence.get(v)
            if ks is not None:
                ks.discard(key)
                if not ks:
                    del self.incidence[v]

    # ------------------------------------------------------------------
    # update pipeline

    def _settle(self, touched):
        self._apply_diffs(touched)
        self._drain_queue()
        if self.paranoid:
            self.verify()

    def _apply_diffs(self, touched):
        """Replay each touched bundle's current rounding into the slot
        table.  Reading the slot entry fresh per key keeps compactions by
        earlier events from going stale."""
        for key in sorted(touched):
            old = self.split.where.get(key)
            new_tail = None
            if key in self.g.bundles and key not in self.refine.in_h:
                ca, cb = self.store.true_counts(*key)
                assert ca != cb, (key, ca)
                new_tail = key[0] if ca > cb else key[1]
            if old is None and new_tail is None:
                continue
            if old is not None and old[0] == new_tail:
                continue
            if new_tail is None:
                self._apply_moves(self.split.on_delete(old[0], _other(key, old[0])))
            elif old is None:
                self._apply_moves(self.split.on_insert(new_tail, _other(key, new_tail)))
            else:
                self._apply_moves(self.split.on_reorient(old[0], new_tail))

    def _drain_queue(self):
        guard = 0
        cap = 1000 + 100 * self.params.gamma * (len(self.g.bundles) + 1)
        while self.queue or self._dirty:
            guard += 1
            if guard > cap:
                raise ConsistencyError("layer placement is not settling")
            if self._dirty:
                self._audit_component(self._dirty.popleft())
                continue
            key = self.queue.popleft()
            if key in self.placed or key not in self.split.where:
                continue
            if key not in self.g.bundles or key in self.refine.in_h:
                continue
            self._place(key)

    def _place(self, key):
        t, i = self.split.where[key]
        h = _other(key, t)
        self._ensure_layer(i)
        try:
            # t's only layer-i out-edge is this one, so t roots its tree;
            # link raises before any write when h lies in that tree too
            self.F[i].link(t, h)
        except CycleError:
            # closes its component's cycle; becomes the designated edge
            assert t not in self.m_tail[i]
            self.m_tail[i][t] = key
            self.placed[key] = ("M", i)
            self._pool_add(key)
            self._dirty.append(key)
            return
        self.placed[key] = ("F", i)

    # ------------------------------------------------------------------
    # pooled-graph restoration

    def _audit_component(self, key):
        """One pass over the pooled component holding this cycle edge:
        perform at most one switch, then requeue until the component is
        colourful and acyclic."""
        if self.placed.get(key, ("", 0))[0] != "M":
            return
        comp_keys, comp_verts = self._component(key)
        by_label = {}
        for k in comp_keys:
            by_label.setdefault(self.placed[k][1], []).append(k)
        clashes = sorted(i for i, ks in by_label.items() if len(ks) > 1)
        if clashes:
            # same-layer cycle edges are never adjacent (each M_i is a
            # matching: one designated edge per component of P_i), so the
            # path has at least one edge of another layer between them
            src, dst = sorted(by_label[clashes[0]])[:2]
            path = self._pool_path(src, lambda k: k == dst)
            assert len(path) >= 3, path
            self._switch(path[-2], path[-1])
            self._dirty.extend(sorted(comp_keys))
            return
        cycle = self._pool_cycle(comp_keys, comp_verts)
        if cycle is not None:
            self._break_cycle_step(cycle, comp_keys, comp_verts)
            self._dirty.extend(sorted(comp_keys))

    def _component(self, start):
        keys = {start}
        verts = set(start)
        frontier = list(start)
        while frontier:
            v = frontier.pop()
            for k in self.incidence.get(v, ()):
                if k in keys:
                    continue
                keys.add(k)
                for w in k:
                    if w not in verts:
                        verts.add(w)
                        frontier.append(w)
        return keys, verts

    def _pool_cycle(self, comp_keys, comp_verts):
        """Some cycle among the pooled edges as (keys, vertices), or None."""
        adj = {}
        for k in sorted(comp_keys):
            a, b = k
            adj.setdefault(a, []).append((b, k))
            adj.setdefault(b, []).append((a, k))
        start = min(comp_verts)
        trail = [(start, None)]
        depth = {start: 0}
        iters = {start: iter(adj[start])}
        while trail:
            v, via = trail[-1]
            for w, k in iters[v]:
                if k == via:
                    continue
                if w in depth:
                    lo = depth[w]
                    verts = [p[0] for p in trail[lo:]]
                    keys = [p[1] for p in trail[lo + 1:]]
                    keys.append(k)
                    return keys, verts
                depth[w] = len(trail)
                iters[w] = iter(adj[w])
                trail.append((w, k))
                break
            else:
                trail.pop()
                del depth[v]
        return None

    def _pool_path(self, src, stop):
        """Shortest pooled edge path from edge src to the first edge that
        satisfies stop, in breadth-first order with each vertex's edges
        visited sorted."""
        parent = {src: None}
        frontier = deque([src])
        target = None
        while frontier:
            k = frontier.popleft()
            if stop(k):
                target = k
                break
            for w in k:
                for nk in sorted(self.incidence.get(w, ())):
                    if nk not in parent:
                        parent[nk] = k
                        frontier.append(nk)
        assert target is not None, src
        path = [target]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def _break_cycle_step(self, cycle, comp_keys, comp_verts):
        """One switch toward breaking a pooled cycle.

        Pick a cycle vertex v and a layer i present in the component with
        no tree edge from v into it; walk the layer-i cycle edge to v and
        switch it with a cycle edge there.  The switched-in edge lands
        either in F_i (the pooled cycle loses an edge) or back on a layer
        cycle, in which case the designation moves to the tree edge at v,
        which leaves the component (its far endpoint is a stranger to it).
        """
        cyc_keys, cyc_verts = cycle
        labels = sorted({self.placed[k][1] for k in comp_keys})
        choice = None
        for v in sorted(cyc_verts):
            for i in labels:
                f = self.F[i]
                if any(f.has_edge(v, x) for x in comp_verts if x != v):
                    continue
                choice = (v, i)
                break
            if choice is not None:
                break
        if choice is None:
            raise ConsistencyError("no switchable layer for a pooled cycle")
        v, i = choice
        e_star = next(k for k in sorted(comp_keys) if self.placed[k][1] == i)
        if v not in e_star:
            path = self._pool_path(e_star, lambda k: v in k)
            self._switch(path[0], path[1])
            return
        e_c = next(k for k in sorted(cyc_keys) if v in k and k != e_star)
        if not self._switch(e_c, e_star):
            return
        if self.placed.get(e_c) == ("M", i):
            self._redesignate(e_c, v, i)

    def _switch(self, p, q):
        """Exchange the layers of two pooled cycle edges sharing a vertex.

        Both loops first reverse so the two edges point out of the shared
        vertex; those reversals can trigger repairs that rip either edge
        out of its layer, in which case the switch is abandoned and the
        caller's next audit starts from current state."""
        common = set(p) & set(q)
        assert len(common) == 1, (p, q)
        v = common.pop()
        ip = self.placed[p][1]
        iq = self.placed[q][1]
        assert ip != iq, (p, q)
        if self.split.where[p][0] != v:
            self._invert(ip, p)
        if self.placed.get(q) == ("M", iq) and self.split.where[q][0] != v:
            self._invert(iq, q)
        if self.placed.get(p) != ("M", ip) or self.placed.get(q) != ("M", iq):
            return False
        if self.split.where[p][0] != v or self.split.where[q][0] != v:
            return False
        self.surplus_ops += 1
        self.split.swap(v, ip, iq)
        self.moves += 2
        for key, i in ((p, ip), (q, iq)):
            del self.m_tail[i][v]
            self._pool_discard(key)
            del self.placed[key]
        self._place(p)
        self._place(q)
        return True

    def _redesignate(self, key, v, i):
        """The switched-in edge closed its layer cycle again: hand the
        designation to the tree edge at v instead.  Slots are untouched
        (both edges keep their tails), only tree and pool membership swap."""
        u = _other(key, v)
        f = self.F[i]
        y = self._loop_path(i, u, v)[-2]
        ykey = edge_key(y, v)
        f.cut(y, v)
        del self.m_tail[i][v]
        self._pool_discard(key)
        f.link(v, u)
        self.placed[key] = ("F", i)
        self.m_tail[i][y] = ykey
        self.placed[ykey] = ("M", i)
        self._pool_add(ykey)
        self.surplus_ops += 1
        self._dirty.append(ykey)
        if self.paranoid:
            assert f.find_root(y) == y, (ykey,)

    # ------------------------------------------------------------------
    # cycle inversion and validity repair

    def _invert(self, i, key):
        """Reverse the unicycle of designated edge ``key`` in layer i.

        Every bundle on the loop shifts by gamma minus the low cutoff
        against its direction, which flips each rounding while loads stay
        put, so validity suspects collected before the shift are exactly
        the suspects after it."""
        p = self.params
        g = self.g
        loads = g.loads
        t = self.split.where[key][0]
        h = _other(key, t)
        path = self._loop_path(i, h, t)
        loop = list(zip(path, path[1:] + [h]))  # h -> ... -> t -> h
        suspects = [edge_key(a, b) for a, b in loop
                    if abs(loads[a] - loads[b]) >= 2]
        if self.paranoid:
            loads_before = list(loads)
        x = p.gamma - p.low_cut
        for a, b in loop:
            ca, cb = g.counts(a, b)
            g.set_counts_raw(a, b, ca - x, cb + x)
        # the component root slides t -> h; every loop vertex keeps one
        # out-edge in this layer, shifted one position around the loop
        self.split.rotate([(edge_key(a, b), b) for a, b in loop])
        self.F[i].set_root(h)
        del self.m_tail[i][t]
        self.m_tail[i][h] = key
        self.inversions += 1
        if self.paranoid:
            assert loads == loads_before, "inversion moved a load"
        if suspects:
            self._repair(suspects)

    def _repair(self, keys):
        """Delete and reinsert every invalid direction among the candidate
        bundles, then let the refinement absorb the walk logs."""
        logs = []
        seen = set()
        acted = False
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            if key not in self.g.bundles or key in self.refine.in_h:
                continue
            for s, d in (key, key[::-1]):
                if self.store.true_counts(s, d)[0] == 0:
                    continue
                if self.g.loads[s] - self.g.loads[d] < 2:
                    continue
                if key in self.split.where:
                    self._pull(key)
                    acted = True
                removed = 0
                limit = self.g.count(s, d)
                while (removed < limit and self.g.count(s, d) > 0
                       and self.g.loads[s] - self.g.loads[d] >= 2):
                    self.frac.delete_copy(s, d, logs)
                    removed += 1
                for _ in range(removed):
                    self.frac.insert_copy(s, d, logs)
                self.repair_pairs += removed
        if logs:
            # the drain may rotate, expel, or enroll well beyond the walk
            # logs themselves; diff everything the update touched
            seen |= self.refine.absorb(logs)
        if acted or logs:
            self._apply_diffs(seen)

    # ------------------------------------------------------------------
    # audit

    def verify(self, alpha=None):
        self.refine.verify()
        self.split.check()
        require(not self.queue and not self._dirty, "placement left pending")
        g = self.g
        m = self.m
        for key in g.bundles:
            a, b = key
            ca, cb = self.store.true_counts(a, b)
            if key in self.refine.in_h:
                require(key not in self.split.where and key not in self.placed, key)
                continue
            require(ca != cb, key, ca)
            t = a if ca > cb else b
            require(self.split.where.get(key, (None, None))[0] == t, key, t)
            kind, i = self.placed[key]
            require(self.split.where[key][1] == i, key, i)
            if kind == "F":
                require(self.F[i].has_edge(a, b), key, i)
            else:
                require(self.m_tail[i].get(t) == key, key, i)
                require(self.F[i].connected(a, b), key, i)
        for key in self.placed:
            require(key in g.bundles and key not in self.refine.in_h, key)
        for i, f in enumerate(self.F):
            in_f = {k for k, spot in self.placed.items() if spot == ("F", i)}
            require(in_f == {edge_key(a, b) for a, b in f.edges()}, i)
            require({k for k, spot in self.placed.items()
                     if spot == ("M", i)} == m[i], i)
            ends = set()
            for k in m[i]:
                for v in k:
                    require(v not in ends, i, k)
                    ends.add(v)
            for t, k in self.m_tail[i].items():
                require(t in k, i, t, k)
                require(f.find_root(t) == t, i, k)
            # a layer root holds no tree out-edge: its slot is either free
            # or the designated cycle edge
            for a, b in f.edges():
                r = f.find_root(a)
                held = self.split.slots.get(r, {}).get(i)
                require(held is None or held in m[i], i, r, held)
        pooled = [k for ks in m for k in ks]
        require(is_forest(pooled), "pooled cycle edges closed a cycle")
        require(set(pooled) == {k for ks in self.incidence.values() for k in ks})
        for v, ks in self.incidence.items():
            for k in ks:
                require(v in k, v, k)
        seen = set()
        width = max(1, self.split.partition_count())
        for k in pooled:
            if k in seen:
                continue
            comp_keys, _ = self._component(k)
            seen |= comp_keys
            labels = [self.placed[ck][1] for ck in comp_keys]
            require(len(labels) == len(set(labels)), "component not colourful")
            require(len(comp_keys) <= width, len(comp_keys), width)
        if alpha is not None:
            cap = int((1 + self.params.epsilon) * alpha) + 2
            require(len(self.forests()) <= cap, len(self.forests()), cap)
