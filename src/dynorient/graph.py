"""Raw shared state for fractional orientations.

Every undirected edge is a bundle of ``gamma`` copies, each oriented toward
one endpoint.  This module owns the flat counters: per-bundle copy counts,
per-vertex integer loads (copies pointing out of the vertex), and the
neighbourhood indexes the reorientation walks need.  It deliberately knows
nothing about the tree structures layered on top; callers that relocate a
bundle's authority elsewhere write counters back through
``set_counts_raw``.

Loads change only through ``bump_load``.  Every increase pushes a fresh
(load, vertex) entry into the in-neighbour heaps of everything the vertex
points at, so ``max_load_in_nbr`` can discard stale heap entries and still
never miss the true maximum: an entry's recorded load is always an upper
bound on the current one.  A heap that grows past 2·|in-neighbours| + 4
entries, by a push or by losing an in-neighbour, is rebuilt from the live
in-neighbours; each rebuild is paid for by the pushes and losses since the
previous one, so the upkeep stays amortised O(1).
"""

import heapq

from .errors import (DuplicateEdgeError, MissingEdgeError, SelfLoopError,
                     VertexRangeError)
from .forest import edge_key


class GraphState:

    def __init__(self, params):
        self.params = params
        self.gamma = params.gamma
        n = params.n_cap
        self.loads = [0] * n
        # (a, b) with a < b  ->  [copies toward b, copies toward a]
        # i.e. slot 0 counts copies oriented a -> b ("a's copies")
        self.bundles = {}
        self.out_nbrs = [set() for _ in range(n)]
        self.in_set = [set() for _ in range(n)]
        self.in_heap = [[] for _ in range(n)]

    # ------------------------------------------------------------------
    # bundles

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.bundles

    def add_bundle(self, u: int, v: int):
        n = self.params.n_cap
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) leaves [0, {n})")
        if u == v:
            raise SelfLoopError(f"self loop at {u}")
        key = edge_key(u, v)
        if key in self.bundles:
            raise DuplicateEdgeError(f"edge {key} already present")
        self.bundles[key] = [0, 0]

    def drop_bundle(self, u: int, v: int):
        key = edge_key(u, v)
        counts = self.bundles.get(key)
        if counts is None:
            raise MissingEdgeError(f"no edge {key}")
        assert counts == [0, 0], "bundle still holds copies"
        del self.bundles[key]

    def count(self, u: int, v: int) -> int:
        """Raw number of copies of edge (u, v) oriented u -> v."""
        key = edge_key(u, v)
        c = self.bundles.get(key)
        if c is None:
            raise MissingEdgeError(f"no edge {key}")
        return c[0] if u == key[0] else c[1]

    def counts(self, u: int, v: int):
        """Raw (copies out of u, copies out of v) for bundle (u, v)."""
        cu = self.count(u, v)
        key = edge_key(u, v)
        c = self.bundles[key]
        return (cu, c[0] + c[1] - cu)

    def _write_count(self, u: int, v: int, new: int):
        key = edge_key(u, v)
        c = self.bundles[key]
        i = 0 if u == key[0] else 1
        old = c[i]
        c[i] = new
        if old == 0 and new > 0:
            self.out_nbrs[u].add(v)
            self.in_set[v].add(u)
            self._push_in(v, (-self.loads[u], u))
        elif old > 0 and new == 0:
            self.out_nbrs[u].discard(v)
            self.in_set[v].discard(u)
            self._bound_heap(v)

    def move_copies(self, u: int, v: int, k: int = 1):
        """Reorient k copies of (u, v) from u -> v to v -> u.  No load change."""
        cu, cv = self.counts(u, v)
        assert cu >= k >= 0, f"only {cu} copies oriented {u}->{v}"
        self._write_count(u, v, cu - k)
        self._write_count(v, u, cv + k)

    def set_counts_raw(self, u: int, v: int, cu: int, cv: int):
        """Overwrite both counters without touching loads.

        Used to sync the flat counters after an edge's authoritative weight
        lived elsewhere, and for staging copies during bundle growth; the
        caller is responsible for load bookkeeping.
        """
        assert cu >= 0 and cv >= 0 and cu + cv <= self.gamma
        self._write_count(u, v, cu)
        self._write_count(v, u, cv)

    # ------------------------------------------------------------------
    # loads

    def bump_load(self, v: int, delta: int):
        self.loads[v] += delta
        assert self.loads[v] >= 0
        if delta > 0:
            entry = (-self.loads[v], v)
            for w in self.out_nbrs[v]:
                self._push_in(w, entry)

    def _push_in(self, w: int, entry):
        heapq.heappush(self.in_heap[w], entry)
        self._bound_heap(w)

    def _bound_heap(self, w: int):
        h = self.in_heap[w]
        ins = self.in_set[w]
        if len(h) > 2 * len(ins) + 4:
            h[:] = [(-self.loads[x], x) for x in ins]
            heapq.heapify(h)

    def max_load_in_nbr(self, w: int):
        """In-neighbour of w with maximum load, or None.  Ties pick lowest id."""
        h = self.in_heap[w]
        ins = self.in_set[w]
        while h:
            negl, x = h[0]
            if x not in ins:
                heapq.heappop(h)
                continue
            lx = self.loads[x]
            if -negl != lx:
                heapq.heappop(h)
                heapq.heappush(h, (-lx, x))
                continue
            return x
        return None

    def tight_out_nbr(self, u: int):
        """First out-neighbour of u (in id order) with load ≤ load(u) − 1.

        Out-neighbour sets stay small (bounded by the load cap), so a sorted
        scan beats maintaining a second heap family.
        """
        cap = self.loads[u] - 1
        for w in sorted(self.out_nbrs[u]):
            if self.loads[w] <= cap:
                return w
        return None
