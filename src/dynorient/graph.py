"""Raw shared state for fractional orientations.

Every undirected edge is a bundle of ``gamma`` copies, each oriented toward
one endpoint.  This module owns the flat counters: per-bundle copy counts,
per-vertex integer loads (copies pointing out of the vertex), and the
neighbourhood indexes the reorientation walks need.  It deliberately knows
nothing about the tree structures layered on top; callers that relocate a
bundle's authority elsewhere write counters back through
``set_counts_raw``.  The copy walks in ``fractional.py`` edit a raw
bundle's counters in place and call ``_gain_out``/``_lose_out`` when a
count crosses zero, the one pair of hooks that keep the indexes in step.

Only the out-neighbour sets say who points where.  For its in-neighbours
each vertex keeps a count and a max-heap by load, as Kopelowitz,
Krauthgamer, Porat and Solomon keep for worst-case orientations.  The
entry format is known here alone: in-neighbour x recorded at load l is the
one int x − l·n_cap, which orders as (−l, x) does and compares faster than
that tuple.  Loads change only through ``bump_load``.  Every increase
pushes a fresh entry into the heaps of everything the vertex points at,
and a gained in-neighbour is pushed at its current load, so each live
in-neighbour has an entry whose recorded load bounds its current one from
above.  ``tight_in_nbr`` therefore answers None as soon as the top's
recorded load is below the threshold, and otherwise drops tops that no
longer point at v and refreshes stale ones in place until the top is
exact.  A heap past 2·in-degree + 4 entries is rebuilt from its ids that
still point at its vertex, every live in-neighbour among them; each
rebuild is paid for by the pushes and losses since the previous one, so
the upkeep stays amortised O(1).  ``_bound_heap`` states that rule and
``bump_load`` inlines it.  A scan of the in-neighbours would skip the
pushes, but each walk step would then cost O(in-degree), which is
unbounded (every leaf of a star keeps copies toward the centre).
"""

from heapq import heapify, heappop, heappush, heapreplace

from .errors import (ConsistencyError, DuplicateEdgeError, MissingEdgeError,
                     SelfLoopError, VertexRangeError, WeightRangeError)
from .forest import edge_key


class GraphState:

    def __init__(self, params):
        self.params = params
        self.gamma = params.gamma
        self.n_cap = n = params.n_cap
        self.loads = [0] * n
        # (a, b) with a < b  ->  [copies toward b, copies toward a]
        # i.e. slot 0 counts copies oriented a -> b ("a's copies")
        self.bundles = {}
        self.out_nbrs = [set() for _ in range(n)]
        self.in_deg = [0] * n
        # in-neighbour x recorded at load l is the entry x - l*n_cap
        self.in_heap = [[] for _ in range(n)]

    # ------------------------------------------------------------------
    # bundles

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
        if counts != [0, 0]:
            raise ConsistencyError(f"bundle {key} still holds copies {counts}")
        del self.bundles[key]

    def count(self, u: int, v: int) -> int:
        """Raw number of copies of edge (u, v) oriented u -> v."""
        c = self.bundles.get((u, v) if u < v else (v, u))
        if c is None:
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        return c[0] if u < v else c[1]

    def counts(self, u: int, v: int):
        """Raw (copies out of u, copies out of v) for bundle (u, v)."""
        if u < v:
            c = self.bundles.get((u, v))
            if c is not None:
                return c[0], c[1]
        else:
            c = self.bundles.get((v, u))
            if c is not None:
                return c[1], c[0]
        raise MissingEdgeError(f"no edge {edge_key(u, v)}")

    def _write_count(self, u: int, v: int, new: int):
        c = self.bundles[(u, v) if u < v else (v, u)]
        i = 0 if u < v else 1
        old = c[i]
        c[i] = new
        if old == 0 and new > 0:
            self._gain_out(u, v)
        elif old > 0 and new == 0:
            self._lose_out(u, v)

    def _gain_out(self, u: int, v: int):
        """u now has copies toward v: u joins v's in-neighbours and heap."""
        self.out_nbrs[u].add(v)
        self.in_deg[v] += 1
        heappush(self.in_heap[v], u - self.loads[u] * self.n_cap)
        self._bound_heap(v)

    def _lose_out(self, u: int, v: int):
        """u no longer has copies toward v."""
        self.out_nbrs[u].discard(v)
        self.in_deg[v] -= 1
        self._bound_heap(v)

    def move_copies(self, u: int, v: int, k: int = 1):
        """Reorient k copies of (u, v) from u -> v to v -> u.  No load
        change; WeightRangeError, with nothing changed, unless
        0 <= k <= the copies oriented u -> v."""
        if u < v:
            c = self.bundles.get((u, v))
            i = 0
        else:
            c = self.bundles.get((v, u))
            i = 1
        if c is None:
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        cu = c[i]
        cv = c[1 - i]
        if not 0 <= k <= cu:
            raise WeightRangeError(
                f"cannot move {k} of the {cu} copies oriented {u}->{v}")
        if not k:
            return
        c[i] = cu - k
        c[1 - i] = cv + k
        if cu == k:
            self._lose_out(u, v)
        if not cv:
            self._gain_out(v, u)

    def set_counts_raw(self, u: int, v: int, cu: int, cv: int):
        """Overwrite both counters without touching loads.

        Used to sync the flat counters after an edge's authoritative weight
        lived elsewhere, and to shift counts that keep every load; the
        caller is responsible for load bookkeeping.  Counts below 0 or
        summing past gamma raise WeightRangeError with nothing changed.
        """
        if cu < 0 or cv < 0 or cu + cv > self.gamma:
            raise WeightRangeError(
                f"counts ({cu}, {cv}) outside [0, {self.gamma}]")
        self._write_count(u, v, cu)
        self._write_count(v, u, cv)

    # ------------------------------------------------------------------
    # loads

    def bump_load(self, v: int, delta: int):
        """Add delta to v's load; ConsistencyError, with nothing changed,
        if the load would drop below 0."""
        loads = self.loads
        load = loads[v] + delta
        if load < 0:
            raise ConsistencyError(f"load of {v} would drop to {load}")
        loads[v] = load
        if delta > 0:
            entry = v - load * self.n_cap
            heaps = self.in_heap
            in_deg = self.in_deg
            for w in self.out_nbrs[v]:
                h = heaps[w]
                heappush(h, entry)
                # _bound_heap's rule, inlined on the hottest path
                if len(h) > 2 * in_deg[w] + 4:
                    self._rebuild_heap(w)

    def _bound_heap(self, w: int):
        """Rebuild w's heap from its live in-neighbours once it outgrows
        them: the amortisation rule, which ``bump_load`` inlines."""
        if len(self.in_heap[w]) > 2 * self.in_deg[w] + 4:
            self._rebuild_heap(w)

    def _rebuild_heap(self, w: int):
        loads = self.loads
        out = self.out_nbrs
        n = self.n_cap
        h = [x - loads[x] * n for x in {e % n for e in self.in_heap[w]}
             if w in out[x]]
        heapify(h)
        self.in_heap[w] = h

    def tight_in_nbr(self, v: int):
        """Heaviest in-neighbour of v, ties to the lowest id, provided its
        load is at least load(v) + 1; otherwise None.

        The top entry's recorded load bounds every live in-neighbour's
        load from above, so a top below the threshold answers None at
        once; stale tops are dropped or refreshed only on the way to an
        answer."""
        h = self.in_heap[v]
        loads = self.loads
        n = self.n_cap
        # an entry records a load below load(v) + 1 exactly when it is at
        # least -load(v)·n
        low = -loads[v] * n
        out = self.out_nbrs
        while h:
            top = h[0]
            if top >= low:
                return None
            x = top % n
            if v not in out[x]:
                heappop(h)
                continue
            exact = x - loads[x] * n
            if top != exact:
                heapreplace(h, exact)
                continue
            return x
        return None

    def tight_out_nbr(self, u: int):
        """Least out-neighbour id of u with load ≤ load(u) − 1, or None.

        Out-neighbour sets stay small (bounded by the load cap), so a scan
        beats maintaining a second heap family.
        """
        loads = self.loads
        cap = loads[u] - 1
        best = None
        for w in self.out_nbrs[u]:
            if loads[w] <= cap and (best is None or w < best):
                best = w
        return best
