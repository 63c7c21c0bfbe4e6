"""Prefix slot assignment: a bounded out-degree orientation, one layer per slot.

Each vertex stores its current out-edges in slots 0..d-1 with no holes, one
edge per slot.  Reading slot i across all vertices yields a layer where every
vertex has out-degree at most one, so every layer is a pseudoforest and a
d-bounded orientation splits into exactly d of them.

The three orientation events (new out-edge, dropped out-edge, reversal) each
restore the no-hole property with at most one compaction, so an event moves
at most two edges between layers.  Every move is reported as a
``(key, from_slot, to_slot)`` triple with None at a boundary; a downstream
structure mirrors the moves, applying all removals before any insertion.
"""

from .errors import MissingEdgeError, require
from .forest import edge_key


class SlotTable:

    def __init__(self):
        self.slots = {}      # vertex -> {slot index: edge key}
        self.where = {}      # edge key -> (tail vertex, slot index)

    def _table(self, v):
        return self.slots.setdefault(v, {})

    def _set(self, key, tail, i):
        self.slots[tail][i] = key
        self.where[key] = (tail, i)

    def _clear(self, key):
        tail, i = self.where.pop(key)
        del self.slots[tail][i]
        return tail, i

    # ------------------------------------------------------------------
    # queries

    def out_degree(self, v):
        return len(self.slots.get(v, ()))

    def partition_count(self):
        """Number of nonempty layers = the largest out-degree."""
        return max((len(t) for t in self.slots.values()), default=0)

    # ------------------------------------------------------------------
    # orientation events

    def on_insert(self, v, u):
        """New edge oriented v -> u: it takes v's first free slot."""
        key = edge_key(u, v)
        assert key not in self.where, f"{key} already assigned"
        j = len(self._table(v))
        self._set(key, v, j)
        return [(key, None, j)]

    def _remove(self, key):
        tail, i = self._clear(key)
        moves = [(key, i, None)]
        t = self.slots[tail]
        last = len(t)
        if i != last:
            filler = t[last]
            self._clear(filler)
            self._set(filler, tail, i)
            moves.append((filler, last, i))
        return moves

    def on_delete(self, u, v):
        """Edge (u, v) left the orientation."""
        key = edge_key(u, v)
        if key not in self.where:
            raise MissingEdgeError(f"edge {key} not assigned to any slot")
        return self._remove(key)

    def on_reorient(self, u, v):
        """Edge currently an out-edge of u is now oriented v -> u."""
        key = edge_key(u, v)
        if key not in self.where:
            raise MissingEdgeError(f"edge {key} not assigned to any slot")
        assert self.where[key][0] == u, (key, self.where[key], u)
        moves = self._remove(key)
        j = len(self._table(v))
        self._set(key, v, j)
        removal = moves[0]
        moves[0] = (key, removal[1], j)
        return moves

    # ------------------------------------------------------------------
    # bulk reassignments that stay inside one layer (no moves produced)

    def swap(self, v, i, j):
        """Exchange v's out-edges in slots i and j."""
        t = self.slots[v]
        a, b = t[i], t[j]
        self._clear(a)
        self._clear(b)
        self._set(a, v, j)
        self._set(b, v, i)

    def rotate(self, assignments):
        """Retarget edges to new tails without changing any slot index.

        Used when a full cycle inside one layer reverses: every vertex on the
        cycle keeps exactly one out-edge in that layer, only which edge it is
        shifts by one position.
        """
        staged = []
        for key, new_tail in assignments:
            assert new_tail in key, (key, new_tail)
            _, i = self._clear(key)
            staged.append((key, new_tail, i))
        for key, new_tail, i in staged:
            table = self._table(new_tail)
            assert i not in table, (key, new_tail, i)
            self._set(key, new_tail, i)

    # ------------------------------------------------------------------
    # audit

    def check(self):
        for v, t in self.slots.items():
            require(sorted(t) == list(range(len(t))), v, sorted(t))
            for i, key in t.items():
                require(v in key, v, key)
                require(self.where[key] == (v, i), key, self.where[key])
        for key, (tail, i) in self.where.items():
            require(self.slots[tail][i] == key, key, tail, i)
