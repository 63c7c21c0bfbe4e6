"""Fractional orientation of edge bundles with 1-tight chain reorientation.

Every edge is a bundle of gamma copies; loads count out-copies per vertex.
Inserting a copy places it at the lower-load endpoint and then sheds the
surplus down a chain of tight out-copies (each flip moves one unit of load
to a strictly lighter vertex); deleting pulls a chain of tight in-copies the
other way.  Exactly one load changes per copy update.  A bundle update
runs gamma such walks, one public ``insert_copy``/``delete_copy`` call per
copy; they append to one shared log, which the refinement drain alone
deduplicates.  The validity repair of ``decompose.py`` calls the same two
walks.

Each walk is one pass over the raw tables.  It adds or removes the copy by
editing the bundle's counters in place (a bundle only grows or shrinks
while raw) and calls GraphState's ``_gain_out``/``_lose_out`` only when a
count crosses zero.  Each step asks GraphState for the next tight
neighbour (``tight_out_nbr`` scans the out-neighbours, ``tight_in_nbr``
reads the in-neighbour heap, whose format only ``graph.py`` knows), and
every flip goes through ``EdgeStore.flip_copy``.  Loads fall strictly
along an insert walk and rise along a delete walk, so an insert walk
makes at most its starting load in flips, and a delete walk at most
n_cap − 1 and at most its final load; past a bound a walk raises
ConsistencyError.  The public names ``insert_copy``, ``delete_copy`` and
``flip_copy`` stay one call per copy and per flip, because the
benchmark's tracer counts walks and flips by them.

A bundle's counters live in the raw tables of GraphState, or, while the
bundle sits in the refinement forest H, as the weight of its edge in that
LinkCutForest (so path-wide count shifts around H cycles stay logarithmic).
EdgeStore routes by a live view of the tree's edge keys: a key with an edge
in the tree reads and flips through the tree, any other key through the raw
tables, and a tree-resident flip (one ``shift_edge_weight``) is mirrored
into the raw tables.  Path-wide shifts in H skip the raw tables; they keep
every H count inside the widened ambiguity window, away from zero, so
neighbour sets never depend on the stale raw values, and ``sync_bundle``
writes the count back before an edge leaves the tree.
"""

from .errors import (ConsistencyError, DuplicateEdgeError, MissingEdgeError,
                     SelfLoopError, require)
from .forest import edge_key


class EdgeStore:
    """Routes bundle-counter access between the raw tables and the tree."""

    def __init__(self, graph, tree):
        self.g = graph
        self.tree = tree
        # keys whose counter is the tree edge weight: a view, not a copy
        self.in_tree = tree.edge_keys()

    def true_counts(self, u, v):
        """Authoritative (count toward v, count toward u) pair."""
        key = (u, v) if u < v else (v, u)
        if key in self.in_tree:
            cu = self.tree.edge_weight(u, v)
            return cu, self.g.gamma - cu
        c = self.g.bundles.get(key)
        if c is None:
            raise MissingEdgeError(f"no edge {key}")
        return (c[0], c[1]) if u < v else (c[1], c[0])

    def sync_bundle(self, u, v):
        """Write a resident edge's count back into the raw tables.  Loads
        are untouched: they already account for every copy wherever its
        counter lives."""
        cu = self.tree.edge_weight(u, v)
        self.g.set_counts_raw(u, v, cu, self.g.gamma - cu)

    def flip_copy(self, u, v):
        """Reorient one copy from u->v to v->u (no load change)."""
        if ((u, v) if u < v else (v, u)) not in self.in_tree:
            self.g.move_copies(u, v, 1)
            return
        cu = self.tree.shift_edge_weight(u, v, -1)
        self.g.set_counts_raw(u, v, cu, self.g.gamma - cu)


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

    # ------------------------------------------------------------------

    def insert_copy(self, u, v, log):
        """Add one copy to the bundle (creating it if needed), then shed the
        load surplus down a maximal tight chain.  Appends the key of every
        bundle whose counters changed to ``log``, undeduplicated."""
        if u == v:
            raise SelfLoopError(f"copy {u}->{u}")
        g = self.g
        key = (u, v) if u < v else (v, u)
        c = g.bundles.get(key)
        if c is None:
            g.add_bundle(u, v)
            c = g.bundles[key]
        assert key not in self.store.in_tree, "bundles only grow while raw"
        assert c[0] + c[1] < g.gamma, f"bundle {key} is full"
        loads = g.loads
        # the new copy leaves the lighter endpoint, u on a tie
        w, x = (u, v) if loads[u] <= loads[v] else (v, u)
        i = 0 if w < x else 1
        c[i] += 1
        if c[i] == 1:
            g._gain_out(w, x)
        log.append(key)
        tight = g.tight_out_nbr
        flip = self.store.flip_copy
        for _ in range(loads[w]):
            nxt = tight(w)
            if nxt is None:
                break
            flip(w, nxt)
            log.append((w, nxt) if w < nxt else (nxt, w))
            w = nxt
        else:
            require(tight(w) is None, "insert walk passed its bound", u, v, w)
        g.bump_load(w, 1)

    def delete_copy(self, u, v, log):
        """Remove one copy from the bundle, direction u->v when it has any
        copies, v->u otherwise; then pull a maximal tight chain toward the
        vacated tail.  Appends to ``log`` as ``insert_copy``."""
        g = self.g
        key = (u, v) if u < v else (v, u)
        c = g.bundles.get(key)
        if c is None:
            raise MissingEdgeError(f"no edge {key}")
        assert key not in self.store.in_tree, "bundles only shrink while raw"
        i = 0 if u < v else 1
        if c[i] > 0:
            w, x = u, v
        elif c[1 - i] > 0:
            w, x = v, u
            i = 1 - i
        else:
            raise MissingEdgeError(f"bundle {key} has no copies")
        c[i] -= 1
        if not c[i]:
            g._lose_out(w, x)
        start = len(log)
        log.append(key)
        tight = g.tight_in_nbr
        flip = self.store.flip_copy
        for _ in range(g.n_cap - 1):
            nxt = tight(w)
            if nxt is None:
                break
            flip(nxt, w)
            log.append((w, nxt) if w < nxt else (nxt, w))
            w = nxt
        else:
            require(tight(w) is None, "delete walk passed its bound", u, v, w)
        if len(log) - start > g.loads[w] + 1:
            raise ConsistencyError("delete walk ended too light", u, v, w)
        g.bump_load(w, -1)

    def gamma_insert(self, u, v):
        """Insert a fresh bundle one copy at a time; returns the log the
        copies' walks share, undeduplicated."""
        key = edge_key(u, v)
        if key in self.g.bundles:
            raise DuplicateEdgeError(f"bundle {key} exists")
        log = []
        for _ in range(self.g.gamma):
            self.insert_copy(u, v, log)
        return log

    def gamma_delete(self, u, v):
        """Drain and drop a full raw bundle one copy at a time; returns the
        log as ``gamma_insert``."""
        key = edge_key(u, v)
        if key not in self.g.bundles:
            raise MissingEdgeError(f"no bundle {key}")
        log = []
        for _ in range(self.g.gamma):
            self.delete_copy(u, v, log)
        self.g.drop_bundle(u, v)
        return log
