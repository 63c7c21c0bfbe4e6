"""Explicit 2-out orientation of a rooted dynamic forest via heavy paths.

A child edge is solid (heavy) when the child's subtree holds a strict
majority of the parent's: 2·size(c) > size(p).  Every vertex then has at most
one solid child edge, so orienting dashed edges child -> parent and leaving
solid directions fixed-but-arbitrary caps every out-degree at 2.

The refinement engine keeps one of these beside its forest H, a
LinkCutForest: link, cut and set_root must be called with identical arguments
on both so the rootings agree.  The orienter has no query API; its readers
use two maps directly.  ``RefinementEngine.rounded_out_edges`` reads
``out_edges``, and ``ArboricityDecomposer.out_degree`` reads a vertex's H
parent from ``parent``, a dict lookup, instead of accessing H.
``RefinementEngine.verify`` checks that ``parent`` matches H's
``first_edge_on_root_path`` at every vertex.  Maintenance is eager,
walking ancestor paths and recomputing heavy children; per-vertex lazy
max-heaps over child sizes make each recheck cheap.
"""

import heapq

from .errors import CycleError, MissingEdgeError
from .forest import edge_key


class HeavyLightOrienter:

    def __init__(self):
        self.parent = {}
        self.children = {}
        self.size = {}
        self.heavy = {}          # v -> heavy child or None
        self.child_heap = {}
        self.dir_tail = {}       # edge key -> stored tail vertex
        self.out_edges = {}      # v -> set of keys oriented out of v

    # ------------------------------------------------------------------
    # bookkeeping helpers

    def _touch(self, v):
        if v not in self.parent:
            self.parent[v] = None
            self.children[v] = set()
            self.size[v] = 1
            self.heavy[v] = None
            self.child_heap[v] = []
            self.out_edges[v] = set()

    def root(self, v):
        self._touch(v)
        while self.parent[v] is not None:
            v = self.parent[v]
        return v

    def _root_path(self, v):
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path

    def has_edge(self, u, v):
        return edge_key(u, v) in self.dir_tail

    def _set_direction(self, tail, head):
        key = edge_key(tail, head)
        old = self.dir_tail.get(key)
        if old == tail:
            return
        if old is not None:
            self.out_edges[old].discard(key)
        self.dir_tail[key] = tail
        self.out_edges[tail].add(key)

    def _push_size(self, c):
        p = self.parent[c]
        if p is not None:
            heapq.heappush(self.child_heap[p], (-self.size[c], c))

    def _recompute_heavy(self, x):
        heap = self.child_heap[x]
        cand = None
        while heap:
            negs, c = heap[0]
            if self.parent.get(c) != x or self.size[c] != -negs:
                heapq.heappop(heap)
                continue
            cand = c
            break
        if cand is not None and 2 * self.size[cand] <= self.size[x]:
            cand = None
        old = self.heavy[x]
        if old == cand:
            return
        if old is not None and self.parent.get(old) == x:
            # demoted solid edge: dashed edges always point child -> parent
            self._set_direction(old, x)
        # a newly solid edge keeps its stored direction
        self.heavy[x] = cand

    # ------------------------------------------------------------------
    # structure updates

    def _reroot(self, r):
        self._touch(r)
        path = self._root_path(r)
        if len(path) == 1:
            return
        n_total = self.size[path[-1]]
        old_sizes = [self.size[p] for p in path]
        for j in range(1, len(path)):
            self.children[path[j]].discard(path[j - 1])
        self.parent[r] = None
        self.size[r] = n_total
        for j in range(1, len(path)):
            self.parent[path[j]] = path[j - 1]
            self.children[path[j - 1]].add(path[j])
            self.size[path[j]] = n_total - old_sizes[j - 1]
            self._push_size(path[j])
        for p in path:
            self._recompute_heavy(p)
        # ancestry flipped along the path; re-point surviving dashed edges
        for j in range(1, len(path)):
            if self.heavy[path[j - 1]] != path[j]:
                self._set_direction(path[j], path[j - 1])

    def set_root(self, r):
        self._reroot(r)

    def link(self, u, v):
        """Join u's tree below v.  v's side keeps its root; the new edge is
        initially directed u -> v."""
        self._touch(u)
        self._touch(v)
        if self.root(u) == self.root(v):
            raise CycleError(f"{u} and {v} already connected")
        self._reroot(u)
        k = self.size[u]
        self.parent[u] = v
        self.children[v].add(u)
        self._push_size(u)
        self._set_direction(u, v)
        x = v
        while x is not None:
            self.size[x] += k
            self._push_size(x)
            self._recompute_heavy(x)
            x = self.parent[x]

    def cut(self, u, v):
        """Remove edge (u, v); u's side ends up rooted at u, v's side keeps
        the old root when it held it (same rule as the shadowed forest)."""
        if self.parent.get(u) == v:
            c, p = u, v
        elif self.parent.get(v) == u:
            c, p = v, u
        else:
            raise MissingEdgeError(f"no tree edge {edge_key(u, v)}")
        key = edge_key(u, v)
        self.children[p].discard(c)
        self.parent[c] = None
        tail = self.dir_tail.pop(key)
        self.out_edges[tail].discard(key)
        k = self.size[c]
        x = p
        while x is not None:
            self.size[x] -= k
            self._push_size(x)
            self._recompute_heavy(x)
            x = self.parent[x]
        if c == v:
            self._reroot(u)
