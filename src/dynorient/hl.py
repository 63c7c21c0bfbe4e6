"""Parent-pointer mirror of the refinement engine's forest H.

The refinement engine keeps one of these beside H, a LinkCutForest: link
and cut are called with identical arguments on both, and follow the same
rooting rules, so ``parent`` names each vertex's H parent.  Orienting every
H edge child -> parent gives each vertex at most one H out-edge, so readers
take a vertex's H out-edge from a dict lookup instead of accessing H:
``ArboricityDecomposer.out_degree`` and
``RefinementEngine.rounded_out_edges`` both do.
``RefinementEngine.verify`` checks ``parent`` against H's
``first_edge_on_root_path`` at every vertex.  Rerooting reverses the
parent pointers along a root path, so it costs the path's length.  The
class keeps the name of the heavy-path orienter it replaced, because the
benchmark's tracer (``perfbench/tracer.py``) imports it by that name.
"""

from .errors import MissingEdgeError
from .forest import edge_key


class HeavyLightOrienter:

    def __init__(self):
        self.parent = {}    # v -> parent vertex, None at a root

    def _evert(self, r):
        """Make r the root of its tree by reversing its root path."""
        par = self.parent
        prev, x = None, r
        while x is not None:
            nxt = par.get(x)
            par[x] = prev
            prev, x = x, nxt

    def has_edge(self, u, v):
        return self.parent.get(u) == v or self.parent.get(v) == u

    def link(self, u, v):
        """Join u's tree below v; v's side keeps its root.  The caller
        makes sure u and v are not connected."""
        self._evert(u)
        self.parent[u] = v
        self.parent.setdefault(v, None)

    def cut(self, u, v):
        """Remove edge (u, v); u's side ends up rooted at u, v's side keeps
        the old root when it held it (same rule as the mirrored forest)."""
        if self.parent.get(u) == v:
            self.parent[u] = None
        elif self.parent.get(v) == u:
            self.parent[v] = None
            self._evert(u)
        else:
            raise MissingEdgeError(f"no tree edge {edge_key(u, v)}")
