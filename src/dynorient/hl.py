"""H's share of the rounded out-degree table: 1 for each vertex with an
H parent.

Orienting every H edge child -> parent gives each vertex at most one H
out-edge.  H's ``LinkCutForest`` reports the roots its own ``link`` and
``cut`` move, and the refinement engine hands them on here, so each update
costs O(1).  Each change of whether a vertex has an H parent adds or takes
1 from its entry in ``out_deg``, the rounded out-degree table that
``ArboricityDecomposer.out_degree`` reads; the slot table writes the rest
of each entry.  The table is the one record of who has an H parent: the
decomposer's audit checks each entry against H's
``first_edge_on_root_path``.  The class keeps the name of the heavy-path
orienter it replaced, because the benchmark's tracer
(``perfbench/tracer.py``) imports it by that name.
"""

from collections import defaultdict


class HeavyLightOrienter:

    def __init__(self, out_deg=None):
        # vertex -> 1 per H parent; a decomposer shares the table with
        # its slot table, which adds the slot counts, and a table built
        # here is a dict that grows on demand
        self.out_deg = defaultdict(int) if out_deg is None else out_deg

    def link(self, u, root):
        """H everted u's tree at u and hung u below another vertex: the
        root its tree had, ``root``, now has a parent.  So does u, which
        had one already unless it was that root."""
        self.out_deg[root] += 1

    def cut(self, u, child, root):
        """H cut an edge at u and returned ``(child, root)``: the child lost
        its parent, and a ``root`` means H everted u's side at u, so u lost
        its parent and the old root gained one, unless u was that root."""
        out_deg = self.out_deg
        out_deg[child] -= 1
        if root is not None and root != u:
            out_deg[u] -= 1
            out_deg[root] += 1
