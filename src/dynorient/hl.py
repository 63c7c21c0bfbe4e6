"""Which vertices of the refinement engine's forest H have an H parent.

Orienting every H edge child -> parent gives each vertex at most one H
out-edge.  H's ``LinkCutForest`` reports the roots its own ``link`` and
``cut`` move, and the refinement engine hands them on here, so each update
costs O(1).  Each change of whether a vertex has an H parent adds or takes
1 from its entry in ``out_deg``, the rounded out-degree table that
``ArboricityDecomposer.out_degree`` reads; the slot table writes the rest
of each entry.  ``children``, the set of vertices with an H parent, is
read only by the audits, which check it against H's
``first_edge_on_root_path`` and each table entry against it.  The class
keeps the name of the heavy-path orienter it replaced, because the
benchmark's tracer (``perfbench/tracer.py``) imports it by that name.
"""

from collections import defaultdict


class HeavyLightOrienter:

    def __init__(self, out_deg=None):
        self.children = set()   # the H vertices that have an H parent
        # vertex -> 1 per H parent; a decomposer shares the table with
        # its slot table, which adds the slot counts, and a table built
        # here is a dict that grows on demand
        self.out_deg = defaultdict(int) if out_deg is None else out_deg

    def link(self, u, root):
        """H everted u's tree at u and hung u below another vertex: the
        root its tree had, ``root``, now has a parent.  So does u, which
        had one already unless it was that root."""
        self.children.add(root)
        self.out_deg[root] += 1

    def cut(self, u, child, root):
        """H cut an edge at u and returned ``(child, root)``: the child lost
        its parent, and a ``root`` means H everted u's side at u, so u lost
        its parent and the old root gained one, unless u was that root."""
        children = self.children
        out_deg = self.out_deg
        children.remove(child)
        out_deg[child] -= 1
        if root is not None and root != u:
            children.remove(u)
            children.add(root)
            out_deg[u] -= 1
            out_deg[root] += 1
