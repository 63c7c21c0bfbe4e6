"""Which vertices of the refinement engine's forest H have an H parent.

Orienting every H edge child -> parent gives each vertex at most one H
out-edge, so ``ArboricityDecomposer.out_degree`` asks only whether v is in
``children``.  H's ``LinkCutForest`` reports the roots its own ``link`` and
``cut`` move, and the refinement engine hands them on here, so each update
costs O(1); ``RefinementEngine.verify`` checks ``children`` against H's
``first_edge_on_root_path``.  The class keeps the name of the heavy-path
orienter it replaced, because the benchmark's tracer
(``perfbench/tracer.py``) imports it by that name.
"""


class HeavyLightOrienter:

    def __init__(self):
        self.children = set()   # the H vertices that have an H parent

    def link(self, u, root):
        """H everted u's tree at u and hung u below another vertex: u and
        ``root``, the root its tree had, now have parents."""
        self.children.add(u)
        self.children.add(root)

    def cut(self, u, child, root):
        """H cut an edge at u and returned ``(child, root)``: the child lost
        its parent, and a ``root`` means H everted u's side at u, so u lost
        its parent and the old root gained one, unless u was that root."""
        children = self.children
        children.discard(child)
        if root is not None and u in children:
            children.remove(u)
            children.add(root)
