"""Fractional orientation of edge bundles with 1-tight chain reorientation.

Every edge is a bundle of gamma copies; loads count out-copies per vertex.
Inserting a copy places it at the lower-load endpoint and then sheds the
surplus down a chain of tight out-copies (each flip moves one unit of load
to a strictly lighter vertex); deleting pulls a chain of tight in-copies the
other way.  Exactly one load changes per copy update.  A bundle update
runs gamma such walks, one public ``insert_copy``/``delete_copy`` call per
copy; they append to one shared log, deduplicated once at the end, which
equals deduplicating each walk's keys and then their concatenation.

A bundle's counters live in the raw tables of GraphState, or, while the
bundle sits in the refinement forest H, as the weight of its edge in that
LinkCutForest (so path-wide count shifts around H cycles stay logarithmic).
EdgeStore routes by a live view of the tree's edge keys: a key with an edge
in the tree reads and flips through the tree, any other key through the raw
tables, and tree-resident flips are mirrored into the raw tables.  Path-wide
shifts in H skip the raw tables; they keep every H count inside the widened
ambiguity window, away from zero, so neighbour sets never depend on the
stale raw values, and ``sync_bundle`` writes the count back before an edge
leaves the tree.
"""

from .errors import MissingEdgeError, SelfLoopError, DuplicateEdgeError
from .forest import edge_key


def dedup_keep_last(keys):
    """Collapse duplicates keeping each key's final occurrence, in order."""
    seen = set()
    out = []
    for k in reversed(keys):
        if k in seen:
            continue
        seen.add(k)
        out.append(k)
    out.reverse()
    return out


class EdgeStore:
    """Routes bundle-counter access between the raw tables and the tree."""

    def __init__(self, graph, tree):
        self.g = graph
        self.tree = tree
        # keys whose counter is the tree edge weight: a view, not a copy
        self.in_tree = tree.edge_keys()

    def true_counts(self, u, v):
        """Authoritative (count toward v, count toward u) pair."""
        if ((u, v) if u < v else (v, u)) not in self.in_tree:
            return self.g.counts(u, v)
        cu = self.tree.edge_weight(u, v)
        return cu, self.g.params.gamma - cu

    def sync_bundle(self, u, v):
        """Write a resident edge's count back into the raw tables.  Loads
        are untouched: they already account for every copy wherever its
        counter lives."""
        cu = self.tree.edge_weight(u, v)
        self.g.set_counts_raw(u, v, cu, self.g.params.gamma - cu)

    def flip_copy(self, u, v):
        """Reorient one copy from u->v to v->u (no load change)."""
        if ((u, v) if u < v else (v, u)) not in self.in_tree:
            self.g.move_copies(u, v, 1)
            return
        cu = self.tree.edge_weight(u, v)
        assert cu >= 1, f"no copy {u}->{v} to flip"
        self.tree.set_edge_weight(u, v, cu - 1)
        self.g.set_counts_raw(u, v, cu - 1, self.g.params.gamma - cu + 1)

    def add_copy(self, u, v):
        assert edge_key(u, v) not in self.in_tree, \
            "bundles only grow while raw"
        cu, cv = self.g.counts(u, v)
        self.g.set_counts_raw(u, v, cu + 1, cv)

    def remove_copy(self, u, v):
        assert edge_key(u, v) not in self.in_tree, \
            "bundles only shrink while raw"
        cu, cv = self.g.counts(u, v)
        assert cu >= 1, f"no copy {u}->{v} to remove"
        self.g.set_counts_raw(u, v, cu - 1, cv)


class FractionalOrienter:
    """Maintains 1-validity (s(tail) - s(head) <= 1 for every copy) under
    copy and bundle updates."""

    def __init__(self, graph, store):
        self.g = graph
        self.store = store

    def update_nbrs(self, v):
        """Does nothing.  Neighbour sets are always current, so nothing
        calls this; it stays only because the benchmark's traced runs
        look the method up by name."""

    def tight_in_nbr(self, v):
        """A heaviest in-neighbour, provided it is one unit heavier."""
        w = self.g.max_load_in_nbr(v)
        if w is None or self.g.loads[w] < self.g.loads[v] + 1:
            return None
        return w

    # ------------------------------------------------------------------

    def insert_copy(self, u, v, log):
        """Add one copy to the bundle (creating it if needed), then shed the
        load surplus down a maximal tight chain.  Appends the key of every
        bundle whose counters changed to ``log``, undeduplicated."""
        if u == v:
            raise SelfLoopError(f"copy {u}->{u}")
        g = self.g
        if not g.has_edge(u, v):
            g.add_bundle(u, v)
        loads = g.loads
        if loads[u] <= loads[v]:
            w = u
            self.store.add_copy(u, v)
        else:
            w = v
            self.store.add_copy(v, u)
        start = len(log)
        log.append((u, v) if u < v else (v, u))
        top = loads[w]
        tight = g.tight_out_nbr
        flip = self.store.flip_copy
        while True:
            nxt = tight(w)
            if nxt is None:
                break
            flip(w, nxt)
            log.append((w, nxt) if w < nxt else (nxt, w))
            w = nxt
        g.bump_load(w, 1)
        # the raw walk bounds its deduplicated keys
        assert len(log) - start <= 2 * top + 2, (len(log) - start, top)

    def delete_copy(self, u, v, log):
        """Remove one copy from the bundle, direction u->v when it has any
        copies, v->u otherwise; then pull a maximal tight chain toward the
        vacated tail.  Appends to ``log`` as ``insert_copy``."""
        g = self.g
        cu, cv = self.store.true_counts(u, v)
        if cu > 0:
            w = u
            self.store.remove_copy(u, v)
        elif cv > 0:
            w = v
            self.store.remove_copy(v, u)
        else:
            raise MissingEdgeError(f"bundle {edge_key(u, v)} has no copies")
        start = len(log)
        log.append((u, v) if u < v else (v, u))
        tight = self.tight_in_nbr
        flip = self.store.flip_copy
        while True:
            nxt = tight(w)
            if nxt is None:
                break
            flip(nxt, w)
            log.append((w, nxt) if w < nxt else (nxt, w))
            w = nxt
        top = g.loads[w]
        g.bump_load(w, -1)
        assert len(log) - start <= 2 * top + 2, (len(log) - start, top)

    def gamma_insert(self, u, v):
        """Insert a fresh bundle one copy at a time; the copies' walks share
        one log, deduplicated once."""
        if self.g.has_edge(u, v):
            raise DuplicateEdgeError(f"bundle {edge_key(u, v)} exists")
        log = []
        for _ in range(self.g.params.gamma):
            self.insert_copy(u, v, log)
        cu, cv = self.store.true_counts(u, v)
        assert cu + cv == self.g.params.gamma
        return dedup_keep_last(log)

    def gamma_delete(self, u, v):
        """Drain and drop a full raw bundle one copy at a time; the copies'
        walks share one log, deduplicated once."""
        key = edge_key(u, v)
        if not self.g.has_edge(u, v):
            raise MissingEdgeError(f"no bundle {key}")
        assert key not in self.store.in_tree, \
            "resident bundles must leave the tree before deletion"
        log = []
        for _ in range(self.g.params.gamma):
            self.delete_copy(u, v, log)
        self.g.drop_bundle(u, v)
        return dedup_keep_last(log)
