"""Bounded out-degree acyclic orientation via sink flips.

Every vertex keeps a plain list of out-neighbours.  Inserting (u, v)
appends the edge to out(u) and then reverses u's entire out-list, no
matter how short: u leaves the step as a sink, so the new edge cannot sit
on a directed cycle, and reversing a whole out-list never creates one
(the vertex flipped last always loses).  Reversals can push a neighbour
past the degree cap d, in which case its whole out-list is reversed too,
most recently overloaded first, until every list fits.  ``bf_insert``
does u's flip and the cascade in one pass: each target gets its append
and its overflow test together, and the overflow stack only exists once
some target passes d.

Deletion just searches both endpoints' lists, at most d probes each, and
reorients nothing, so it preserves both the cap and acyclicity.

With d = 2 * (alpha_max + 1) the flip cascade terminates on any trace
whose arboricity never exceeds alpha_max, and slicing the out-lists by
position yields at most d forests covering the graph: a slice holds at
most one out-edge per vertex, and a slice cycle would have to be a
directed cycle.

The cascade has a flip budget.  While the arboricity is at most
alpha_max, the graph with the new edge (m edges) has some orientation
with out-degree at most alpha_max; fix one, and count the edges whose
current direction disagrees with it, at most m after u's flip.  A
cascade flip reverses the more than d out-edges of one vertex x: at
most alpha_max of them agreed and now disagree, the other d + 1 -
alpha_max or more now agree, so the count falls by at least
d + 1 - 2 * alpha_max = 3.  Hence at most m // 3 flips follow u's own,
and needing one more proves the arboricity exceeds alpha_max.  Inserts
are all or nothing: at that point the insert replays its logged flips
backwards, restoring every out-list (the same list objects, in the same
order) and the counters, and raises PromiseViolation.  The log, like the
stack, is only kept once some list overflows.
"""

from .errors import (DuplicateEdgeError, MissingEdgeError, PromiseViolation,
                     SelfLoopError, VertexRangeError, check_size, require)
from .forest import edge_key


class BFOrienter:
    """Sink-flip orienter with out-degrees capped at d = 2*(alpha_max+1)."""

    def __init__(self, n_cap: int, alpha_max: int | None = None):
        check_size("n_cap", n_cap)
        check_size("alpha_max", alpha_max)
        self.n_cap = n_cap
        self.d = 2 * (alpha_max + 1)
        self.out = [[] for _ in range(n_cap)]
        self.edge_count = 0
        self.flip_count = 0
        self.reorientations = 0

    # ------------------------------------------------------------------

    def bf_out_edges(self, v):
        """Current out-neighbours of v, in list order; v outside the ints
        [0, n_cap) raises VertexRangeError, checked as in ``bf_insert``."""
        try:
            if v >= 0:
                return list(self.out[v])
        except (IndexError, TypeError):
            pass
        raise VertexRangeError(f"vertex {v!r} outside [0, {self.n_cap})")

    def edges(self):
        return sorted(edge_key(u, v) for u, lst in enumerate(self.out) for v in lst)

    def bf_insert(self, u, v):
        """Add the edge oriented away from u, then make u a sink and chase
        any out-degree overflows.  Returns (#vertices flipped, #single-edge
        reorientations) for this update.  Raises PromiseViolation, with
        nothing changed, when the cascade outruns its flip budget."""
        out = self.out
        try:
            # a negative id would index from the end of out and alias
            # vertex n_cap + id; the lookups catch ids of n_cap and up,
            # and comparing or indexing with a non-int raises TypeError
            if u < 0 or v < 0:
                raise IndexError
            lu, lv = out[u], out[v]
        except (IndexError, TypeError):
            raise VertexRangeError(
                f"edge ({u!r}, {v!r}) leaves [0, {self.n_cap})") from None
        if u == v:
            raise SelfLoopError(f"edge {u}->{u}")
        if v in lu or u in lv:
            raise DuplicateEdgeError(f"edge {edge_key(u, v)} already present")
        d = self.d
        lu.append(v)
        out[u] = []
        stack = None
        for w in lu:
            lw = out[w]
            lw.append(u)
            if len(lw) > d:
                if stack is None:
                    stack = [w]
                else:
                    stack.append(w)
        if stack is None:
            self.edge_count += 1
            self.flip_count += 1
            self.reorientations += len(lu)
            return 1, len(lu)
        # overflow: each flip is logged so that a spent budget can undo
        # the whole insert; u's own flip is the log's first entry
        budget = (self.edge_count + 1) // 3
        log = [(u, lu)]
        moves = len(lu)
        while stack:
            x = stack.pop()
            targets = out[x]
            if len(targets) <= d:
                continue          # an earlier pop already relieved it
            if len(log) > budget:
                self._undo(log)
                raise PromiseViolation(
                    f"inserting {edge_key(u, v)}: more than {budget} "
                    f"cascade flips, so the arboricity exceeds "
                    f"alpha_max = {d // 2 - 1}")
            out[x] = []
            for w in targets:
                lw = out[w]
                lw.append(x)
                if len(lw) > d:
                    stack.append(w)
            log.append((x, targets))
            moves += len(targets)
        self.edge_count += 1
        self.flip_count += len(log)
        self.reorientations += moves
        return len(log), moves

    def _undo(self, log):
        """Replay logged flips in reverse: every target drops the vertex
        its flip appended, which is the last entry of its list by then,
        and the flipped vertex gets its old list object back; finally the
        inserted edge leaves the first flip's list."""
        out = self.out
        for x, targets in reversed(log):
            for w in targets:
                out[w].pop()
            out[x] = targets
        log[0][1].pop()

    def bf_delete(self, u, v):
        out = self.out
        try:
            # range and type checked as in bf_insert
            if u < 0 or v < 0:
                raise IndexError
            lu, lv = out[u], out[v]
        except (IndexError, TypeError):
            raise VertexRangeError(
                f"edge ({u!r}, {v!r}) leaves [0, {self.n_cap})") from None
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
            require(len(lst) <= self.d, v, len(lst), self.d)
            require(len(set(lst)) == len(lst), v, lst)
            require(v not in lst, v)
        require(sum(map(len, self.out)) == self.edge_count, "edge count")
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
        require(seen == self.n_cap, "orientation has a directed cycle")
