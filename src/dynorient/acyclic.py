"""Bounded out-degree acyclic orientation via sink flips.

Every vertex keeps a plain list of out-neighbours.  Inserting (u, v)
appends the edge to out(u) and then reverses u's entire out-list, no
matter how short: u leaves the step as a sink, so the new edge cannot sit
on a directed cycle, and reversing a whole out-list never creates one
(the vertex flipped last always loses).  Reversals can push a neighbour
past the degree cap d, in which case its whole out-list is reversed too,
most recently overloaded first, until every list fits.

Deletion just searches both endpoints' lists, at most d probes each, and
reorients nothing, so it preserves both the cap and acyclicity.

With d = 2 * (alpha_max + 1) the flip cascade terminates on any trace
whose arboricity never exceeds alpha_max, and slicing the out-lists by
position yields at most d forests covering the graph: a slice holds at
most one out-edge per vertex, and a slice cycle would have to be a
directed cycle.
"""

from .errors import (ConfigurationError, DuplicateEdgeError,
                     MissingEdgeError, SelfLoopError, VertexRangeError)
from .forest import edge_key


class BFOrienter:
    """Sink-flip orienter with out-degrees capped at d = 2*(alpha_max+1)."""

    def __init__(self, n_cap: int, alpha_max: int | None = None, d: int | None = None):
        if n_cap < 1:
            raise ConfigurationError(f"n_cap must be >= 1, got {n_cap}")
        if d is None:
            if alpha_max is None:
                raise ConfigurationError("need alpha_max or an explicit degree cap")
            if alpha_max < 1:
                raise ConfigurationError(f"alpha_max must be >= 1, got {alpha_max}")
            d = 2 * (alpha_max + 1)
        if d < 1:
            raise ConfigurationError(f"degree cap must be >= 1, got {d}")
        self.n_cap = n_cap
        self.d = d
        self.out = [[] for _ in range(n_cap)]
        self.edge_count = 0
        self.flip_count = 0
        self.reorientations = 0

    # ------------------------------------------------------------------

    def bf_out_edges(self, v):
        """Current out-neighbours of v, in list order."""
        return list(self.out[v])

    def edges(self):
        return sorted(edge_key(u, v) for u, lst in enumerate(self.out) for v in lst)

    def _flip(self, x):
        """Reverse every edge out of x; returns the old targets."""
        targets = self.out[x]
        self.out[x] = []
        for w in targets:
            self.out[w].append(x)
        self.flip_count += 1
        self.reorientations += len(targets)
        return targets

    def bf_insert(self, u, v):
        """Add the edge oriented away from u, then make u a sink and chase
        any out-degree overflows.  Returns (#vertices flipped, #single-edge
        reorientations) for this update."""
        # a negative id would index from the end of self.out and alias
        # vertex n_cap + id; the list lookups catch ids of n_cap and up
        if u < 0 or v < 0:
            raise VertexRangeError(f"edge ({u}, {v}) leaves [0, {self.n_cap})")
        try:
            lu, lv = self.out[u], self.out[v]
        except IndexError:
            raise VertexRangeError(
                f"edge ({u}, {v}) leaves [0, {self.n_cap})") from None
        if u == v:
            raise SelfLoopError(f"edge {u}->{u}")
        if v in lu or u in lv:
            raise DuplicateEdgeError(f"edge {edge_key(u, v)} already present")
        flips0 = self.flip_count
        moves0 = self.reorientations
        lu.append(v)
        self.edge_count += 1
        stack = [w for w in self._flip(u) if len(self.out[w]) > self.d]
        while stack:
            x = stack.pop()
            if len(self.out[x]) <= self.d:
                continue          # an earlier pop already relieved it
            for w in self._flip(x):
                if len(self.out[w]) > self.d:
                    stack.append(w)
        return (self.flip_count - flips0, self.reorientations - moves0)

    def bf_delete(self, u, v):
        # range checked as in bf_insert
        if u < 0 or v < 0:
            raise VertexRangeError(f"edge ({u}, {v}) leaves [0, {self.n_cap})")
        try:
            lu, lv = self.out[u], self.out[v]
        except IndexError:
            raise VertexRangeError(
                f"edge ({u}, {v}) leaves [0, {self.n_cap})") from None
        if v in lu:
            lu.remove(v)
        elif u in lv:
            lv.remove(u)
        else:
            raise MissingEdgeError(f"edge {edge_key(u, v)} not present")
        self.edge_count -= 1

    # ------------------------------------------------------------------

    def partitions(self):
        """Out-lists sliced by position: slice i holds each vertex's i-th
        out-edge, giving at most d edge-disjoint forests covering the
        graph."""
        parts = []
        for i in range(self.d):
            part = sorted(edge_key(v, lst[i])
                          for v, lst in enumerate(self.out) if len(lst) > i)
            if part:
                parts.append(part)
        return parts

    def verify(self):
        for v, lst in enumerate(self.out):
            assert len(lst) <= self.d, (v, len(lst), self.d)
            assert len(set(lst)) == len(lst), (v, lst)
            assert v not in lst, (v,)
        assert sum(len(lst) for lst in self.out) == self.edge_count
        indeg = [0] * self.n_cap
        for lst in self.out:
            for w in lst:
                indeg[w] += 1
        order = [v for v in range(self.n_cap) if not indeg[v]]
        seen = len(order)
        while order:
            for w in self.out[order.pop()]:
                indeg[w] -= 1
                if not indeg[w]:
                    order.append(w)
                    seen += 1
        assert seen == self.n_cap, "orientation has a directed cycle"
