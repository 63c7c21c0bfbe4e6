"""Prefix slot assignment: a bounded out-degree orientation, one layer per slot.

Each vertex keeps its current out-edges in a list, its row, where index i
is slot i, so slots 0..d-1 hold one edge each with no holes.  Reading
slot i across all vertices yields a layer where every vertex has
out-degree at most one, so every layer is a pseudoforest and a d-bounded
orientation splits into exactly d of them.

The three orientation events take an edge key: ``insert(key, tail)`` for
a new out-edge, ``remove(key)`` for a dropped one and
``reorient(key, new_tail)`` for a reversal.  A removal fills its hole
with the row's last edge, so an event moves at most two edges between
layers.  Every move is reported as a ``(key, from_slot, to_slot)`` triple
with None at a boundary; a downstream structure mirrors the moves,
applying all removals before any insertion.

Each vertex's out-edge count is also kept in ``out_deg`` as it changes:
``insert`` adds 1 at the tail, ``remove`` takes 1 from it, and
``reorient`` does both; the filler moves, ``swap`` and ``rotate`` leave
every count as it was.
"""

from collections import defaultdict

from .errors import MissingEdgeError, require


class SlotTable:

    def __init__(self, out_deg=None):
        self.slots = {}      # vertex -> row of edge keys, index = slot
        self.where = {}      # edge key -> (tail vertex, slot index)
        # vertex -> out-edge count; a decomposer shares the table with
        # H's orienter, which adds 1 per H parent, and a table built here
        # is a dict that grows on demand
        self.out_deg = defaultdict(int) if out_deg is None else out_deg

    # ------------------------------------------------------------------
    # queries

    def out_degree(self, v):
        return len(self.slots.get(v, ()))

    def partition_count(self):
        """Number of nonempty layers = the largest out-degree."""
        return max(map(len, self.slots.values()), default=0)

    # ------------------------------------------------------------------
    # orientation events

    def _push(self, key, tail):
        """Put the key in tail's first free slot; returns that slot."""
        row = self.slots.setdefault(tail, [])
        self.where[key] = (tail, len(row))
        row.append(key)
        self.out_deg[tail] += 1
        return len(row) - 1

    def insert(self, key, tail):
        """New edge oriented out of tail."""
        assert key not in self.where, f"{key} already assigned"
        return [(key, None, self._push(key, tail))]

    def remove(self, key):
        """Edge left the orientation; the row's last edge fills its slot."""
        if key not in self.where:
            raise MissingEdgeError(f"edge {key} not assigned to any slot")
        tail, i = self.where.pop(key)
        self.out_deg[tail] -= 1
        row = self.slots[tail]
        filler = row.pop()
        if filler == key:
            return [(key, i, None)]
        row[i] = filler
        self.where[filler] = (tail, i)
        return [(key, i, None), (filler, len(row), i)]

    def reorient(self, key, new_tail):
        """Edge now oriented out of new_tail, its other end."""
        moves = self.remove(key)
        moves[0] = (key, moves[0][1], self._push(key, new_tail))
        return moves

    # ------------------------------------------------------------------
    # bulk reassignments that stay inside one layer (no moves produced)

    def swap(self, v, i, j):
        """Exchange v's out-edges in slots i and j."""
        row = self.slots[v]
        row[i], row[j] = row[j], row[i]
        self.where[row[i]] = (v, i)
        self.where[row[j]] = (v, j)

    def rotate(self, assignments):
        """Retarget edges to new tails without changing any slot index.

        Used when a full cycle inside one layer reverses: every vertex on the
        cycle keeps exactly one out-edge in that layer, only which edge it is
        shifts by one position, so each vertex's slot is overwritten once.
        """
        for key, new_tail in assignments:
            assert new_tail in key, (key, new_tail)
            i = self.where[key][1]
            self.slots[new_tail][i] = key
            self.where[key] = (new_tail, i)

    # ------------------------------------------------------------------
    # audit

    def check(self):
        for v, row in self.slots.items():
            for i, key in enumerate(row):
                require(v in key and self.where.get(key) == (v, i), v, i, key)
        require(len(self.where) == sum(map(len, self.slots.values())),
                "slotted keys", len(self.where))
