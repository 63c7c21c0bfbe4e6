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
  by edge key (insert / remove / reorient).  Edges knocked out of a slot
  re-enter through a placement queue that re-reads current state, so
  stale queue entries are harmless.

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

Each placement fact has one owner: the slot table holds an edge's layer,
F_i's edge set the tree edges and ``m_tail`` the designated edges by tail.
A move edits the slot table first and a filler may take the vacated slot,
so ``_unplace`` is handed the layer the edge left, and only ``m_tail``
still knows a designated edge's old tail.  ``placed`` and ``m`` are views.

``pool_parity`` holds the pooled forest's colour digit: each pooled
vertex's distance parity to the smallest vertex of its pooled component.
Each pool edit re-files the components it leaves by one walk, the walk
the pool audits use too, and bumps their stamps.

``out_deg`` holds each vertex's rounded out-degree, its slot count plus 1
if it has an H parent, so ``out_degree`` is one list read.  The table and
the change stamps ``stamps`` are the refinement engine's, adopted here
and handed to the slot table and every layer forest.  The table is
written only where one of those two facts changes: the slot table's
``insert``, ``remove`` and ``reorient`` move a slot count, and H's
orienter (``hl.py``) an H parent, on the roots H's link and cut
report.  ``verify`` checks every entry against the slot count and H's
own root path, the definition ``rounded_out_edges`` reads.
"""

from collections import deque

from .errors import (ConfigurationError, ConsistencyError, CycleError,
                     check_ends, check_vertex, require)
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
        self.refine = RefinementEngine(params)
        self.refine.on_pre_enroll = self._pull
        # change stamps of every vertex, bumped by H, the layer forests,
        # the inversions and the pool edits; the colourings read them
        self.stamps = self.refine.stamps
        # rounded out-degree of every vertex, written by the slot table
        # and H's orienter
        self.out_deg = self.refine.out_deg
        self.g = self.refine.g
        self.store = self.refine.store
        self.frac = self.refine.frac
        self.split = SlotTable(self.out_deg)
        self.F = []         # layer -> ParityForest of that layer's tree edges
        self.m_tail = []    # layer -> {tail vertex: designated cycle edge key}
        self.incidence = {} # vertex -> pooled cycle edge keys at it
        # vertex with a pooled edge -> parity of its distance to the
        # smallest vertex of its pooled component: the pooled factor's digit
        self.pool_parity = {}
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

    @property
    def placed(self):
        """Key -> ("F", i) or ("M", i), read off ``F`` and ``m_tail``."""
        out = {}
        for i, (f, tails) in enumerate(zip(self.F, self.m_tail)):
            out.update(dict.fromkeys(f.edge_keys(), ("F", i)))
            out.update(dict.fromkeys(tails.values(), ("M", i)))
        return out

    # ------------------------------------------------------------------
    # public updates

    def insert_edge(self, u, v):
        # the refinement engine checks both ids before any write
        self._settle(self.refine.insert_edge(u, v))

    def delete_edge(self, u, v):
        # before _pull, whose key lookup would take 1.0 for vertex 1
        check_ends(u, v, self.params.n_cap)
        self._pull(edge_key(u, v))
        self._settle(self.refine.delete_edge(u, v))

    def forests(self):
        """The decomposition as sorted edge-key lists: tree layers, then
        the pooled cycle edges, then the ambiguous-count forest."""
        out = [sorted(f.edge_keys()) for f in self.F if len(f)]
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
        one.  Both are kept in ``out_deg`` as they change, so this is
        ``len(self.refine.rounded_out_edges(v))`` read from one list.
        A non-negative int indexes it directly; anything else, and an
        int past the list, needs the VertexRangeError check of v (a bool
        is the int it is), since the list would take -1 for vertex
        n_cap - 1."""
        if v.__class__ is int and v >= 0:
            try:
                return self.out_deg[v]
            except IndexError:
                pass
        check_vertex(v, self.params.n_cap)
        return self.out_deg[v]

    # ------------------------------------------------------------------
    # layer plumbing

    def _ensure_layer(self, i):
        while len(self.F) <= i:
            self.F.append(ParityForest(self.stamps))
            self.m_tail.append({})

    def _spot(self, key):
        """("F", i) while the key is a tree edge of its slot's layer i,
        ("M", i) while it is that layer's designated edge, and None while
        it waits in the placement queue or holds no slot."""
        slot = self.split.where.get(key)
        if slot is None or slot[1] >= len(self.F):
            return None
        t, i = slot
        if self.F[i].has_edge(*key):
            return ("F", i)
        if self.m_tail[i].get(t) == key:
            return ("M", i)
        return None

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

    def _pull(self, key):
        """Take the edge out of the slot table and its layer, if it is
        slotted: it is leaving the layers, for good or for repair."""
        if key in self.split.where:
            self._apply_moves(self.split.remove(key))

    def _apply_moves(self, moves):
        self.moves += len(moves)
        for k, src, _ in moves:
            if src is not None:
                self._unplace(k, src)
        for k, _, dst in moves:
            if dst is not None:
                self.queue.append(k)

    def _unplace(self, key, i):
        """Take the key out of layer i, the layer its slot just left; the
        slot table already holds its new slot, if any."""
        if i >= len(self.F):
            return      # slotted but never placed
        f = self.F[i]
        a, b = key
        if not f.has_edge(a, b):
            # designated at one endpoint (M_i is a matching), or queued
            for t in key:
                if self.m_tail[i].get(t) == key:
                    self._undesignate(i, t)
            return
        old_root = f.cut(a, b)
        # the cut may have severed the path that made the component's
        # designated edge close a cycle; the parent side keeps old_root,
        # which is the edge's tail, so its head stayed exactly when its
        # root is still old_root
        me = self.m_tail[i].get(old_root)
        if me is not None and f.find_root(_other(me, old_root)) != old_root:
            self._undesignate(i, old_root)
            self.queue.append(me)

    def _undesignate(self, i, t):
        """Drop layer i's designated edge at tail t from M_i and the pool."""
        self._pool_discard(self.m_tail[i].pop(t))

    def _pool_add(self, key):
        """Pool a designated edge and re-file its merged component.  The
        epoch moves when the pool turns non-empty.  A layer holding a
        designated edge also holds the tree path the edge closes, so
        ``m_tail`` never turns a colour factor on or off by itself; the
        pool does."""
        if not self.incidence:
            self.stamps.epoch += 1
        for v in key:
            self.incidence.setdefault(v, set()).add(key)
        self._file(key[0])

    def _pool_discard(self, key):
        """Unpool a designated edge and re-file both sides it leaves; an
        end left with no pooled edge loses its entry.  The epoch moves
        when the pool turns empty."""
        for v in key:
            ks = self.incidence[v]
            ks.discard(key)
            if not ks:
                del self.incidence[v]
        a, b = key
        if b not in self._file(a):
            self._file(b)
        if not self.incidence:
            self.stamps.epoch += 1

    def _file(self, v):
        """File the pooled parity of every vertex of v's pooled component
        and bump its stamp: the parities are measured from the smallest
        vertex, which an edit can move.  Returns the component's
        distances from v."""
        keys, dist = self._component(v)
        parity = self.pool_parity
        stamp = self.stamps.of
        # in a forest two distances from v have the parity of the path
        # between their ends, so a vertex's parity is its distance from v
        # plus the smallest vertex's; a pooled cycle the drain closes is
        # re-filed by the discard that opens it
        base = dist[min(dist)]
        for x, k in dist.items():
            parity[x] = (k + base) & 1
            stamp[x] += 1
        if not keys:
            del parity[v]
        return dist

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
            # a key with no tail left the slots on its way out: deleted,
            # enrolled into H or pulled for repair
            if key not in self.g.bundles or key in self.refine.in_h:
                continue
            ca, cb = self.store.true_counts(*key)
            assert ca != cb, (key, ca)
            new_tail = key[0] if ca > cb else key[1]
            old = self.split.where.get(key)
            if old is None:
                self._apply_moves(self.split.insert(key, new_tail))
            elif old[0] != new_tail:
                self._apply_moves(self.split.reorient(key, new_tail))

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
            if (key in self.split.where and self._spot(key) is None
                    and key in self.g.bundles and key not in self.refine.in_h):
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
            self._pool_add(key)
            self._dirty.append(key)

    # ------------------------------------------------------------------
    # pooled-graph restoration

    def _audit_component(self, key):
        """One pass over the pooled component holding this cycle edge:
        perform at most one switch, then requeue until the component is
        colourful and acyclic."""
        spot = self._spot(key)
        if spot is None or spot[0] != "M":
            return
        comp_keys, comp_verts = self._component(key[0])
        where = self.split.where
        by_label = {}
        for k in comp_keys:
            by_label.setdefault(where[k][1], []).append(k)
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

    def _component(self, v):
        """The pooled component of vertex v, by one breadth-first walk:
        its edge keys, and each vertex's distance from v."""
        incidence = self.incidence
        keys = set()
        dist = {v: 0}
        order = [v]
        for x in order:
            for k in incidence.get(x, ()):
                if k not in keys:
                    keys.add(k)
                    y = _other(k, x)
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        order.append(y)
        return keys, dist

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
        where = self.split.where
        labels = sorted({where[k][1] for k in comp_keys})
        choice = next(((v, i) for v in sorted(cyc_verts) for i in labels
                       if not any(self.F[i].has_edge(v, x)
                                  for x in comp_verts if x != v)), None)
        if choice is None:
            raise ConsistencyError("no switchable layer for a pooled cycle")
        v, i = choice
        e_star = next(k for k in sorted(comp_keys) if where[k][1] == i)
        if v not in e_star:
            path = self._pool_path(e_star, lambda k: v in k)
            self._switch(path[0], path[1])
            return
        e_c = next(k for k in sorted(cyc_keys) if v in k and k != e_star)
        if not self._switch(e_c, e_star):
            return
        if self._spot(e_c) == ("M", i):
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
        where = self.split.where
        ip, iq = where[p][1], where[q][1]
        assert ip != iq, (p, q)
        if where[p][0] != v:
            self._invert(ip, p)
        if self._spot(q) == ("M", iq) and where[q][0] != v:
            self._invert(iq, q)
        # a designated edge that kept its spot kept its tail, now v
        if self._spot(p) != ("M", ip) or self._spot(q) != ("M", iq):
            return False
        self.surplus_ops += 1
        self.split.swap(v, ip, iq)
        self.moves += 2
        self._undesignate(ip, v)
        self._undesignate(iq, v)
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
        self._undesignate(i, v)
        f.link(v, u)
        self.m_tail[i][y] = ykey
        self._pool_add(ykey)
        self.surplus_ops += 1
        self._dirty.append(ykey)

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
        # t's reserved digit moves to h.  Both digits are read off m_tail,
        # and set_root stamps only the entries whose parity it flips, so
        # both ends are stamped here
        stamp = self.stamps.of
        stamp[t] += 1
        stamp[h] += 1
        self.inversions += 1
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
        require(len(self.m_tail) == len(self.F), "layer tables out of step")
        g = self.g
        where = self.split.where
        in_h = self.refine.in_h
        require(all(k in g.bundles and k not in in_h for k in where),
                "a slotted key is no bundle outside H")
        for key in g.bundles:
            a, b = key
            ca, cb = self.store.true_counts(a, b)
            if key in in_h:
                require(key not in where, key)
                continue
            require(ca != cb, key, ca)
            t = a if ca > cb else b
            slot = where.get(key)
            require(slot is not None and slot[0] == t
                    and slot[1] < len(self.F), key, t, slot)
            i = slot[1]
            # exactly one of tree edge and designated edge of its layer
            designated = self.m_tail[i].get(t) == key
            require(self.F[i].has_edge(a, b) != designated, key, i)
            if designated:
                require(self.F[i].connected(a, b), key, i)
        for i, f in enumerate(self.F):
            f.verify()
            tails = self.m_tail[i]
            for k in f.edge_keys():
                require(k in g.bundles and k not in in_h
                        and where.get(k, (None, None))[1] == i, i, k)
            ends = set()
            for t, k in tails.items():
                require(t in k and k in g.bundles and k not in in_h
                        and where.get(k) == (t, i), i, t, k)
                require(f.find_root(t) == t, i, k)
                for v in k:
                    require(v not in ends, i, k)
                    ends.add(v)
            # a layer root holds no tree out-edge: its slot is either free
            # or the designated cycle edge
            for a, b in f.edge_keys():
                r = f.find_root(a)
                row = self.split.slots.get(r, ())
                require(len(row) <= i or tails.get(r) == row[i], i, r, row)
        root_edge = self.refine.H.first_edge_on_root_path
        for v, deg in enumerate(self.out_deg):
            require(deg == self.split.out_degree(v)
                    + (root_edge(v) is not None),
                    "rounded out-degree table", v, deg)
        pooled = [k for tails in self.m_tail for k in tails.values()]
        require(is_forest(pooled), "pooled cycle edges closed a cycle")
        require(set(pooled) == {k for ks in self.incidence.values() for k in ks})
        for v, ks in self.incidence.items():
            for k in ks:
                require(v in k, v, k)
        # a 2-colouring of each pooled tree, pinned by its smallest vertex,
        # is the distance parity from that vertex
        parity = self.pool_parity
        require(parity.keys() == self.incidence.keys(), "pooled parity keys")
        for a, b in pooled:
            require(parity[a] != parity[b], "pooled parity", a, b)
        seen = set()
        width = max(1, self.split.partition_count())
        for k in pooled:
            if k in seen:
                continue
            comp_keys, comp_verts = self._component(k[0])
            seen |= comp_keys
            labels = [where[ck][1] for ck in comp_keys]   # slotted, see above
            require(len(labels) == len(set(labels)), "component not colourful")
            require(len(comp_keys) <= width, len(comp_keys), width)
            low = min(comp_verts)
            require(parity[low] == 0, "pooled parity", low)
        if alpha is not None:
            cap = self.params.forest_cap(alpha)
            count = len(self.forests())
            require(count <= cap, count, cap)
