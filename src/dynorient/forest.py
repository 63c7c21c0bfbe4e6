"""Weighted dynamic forest with direction-sensitive path aggregates.

Maintains a forest of rooted trees under link/cut.  Each edge carries an
integer weight in [0, gamma], read as the numerator of the fractional load the
edge assigns to one endpoint; the other endpoint implicitly receives
``gamma - w``.  Path operations between u and v interpret each edge's weight
relative to the endpoint nearer u, so reversing the direction of a query
complements every weight.

Implementation: splay-based link-cut trees with edges represented as their own
nodes spliced between vertex nodes.  Preferred-path reversal therefore has to
complement edge values, which is folded into the usual lazy reversal tag
(pending transform: val <- (gamma - val if rev else val) + add).

Each tree also carries a root tag (the semantic root, i.e. the orientation
sink when the forest mirrors an out-orientation).  The invariant is that the
represented head of every preferred-path structure equals the tagged root;
path queries evert internally and restore the tag before returning.
"""

from __future__ import annotations

from .errors import (CycleError, MissingEdgeError, NotConnectedError,
                     WeightRangeError)

_INF = 1 << 60


class _Node:
    __slots__ = ("parent", "left", "right", "vid", "a", "b", "is_edge",
                 "val", "mn", "mx", "n_edges", "rev", "add")

    def __init__(self):
        self.parent = None
        self.left = None
        self.right = None
        self.vid = None
        self.a = None
        self.b = None
        self.is_edge = False
        self.val = 0
        self.mn = _INF
        self.mx = -_INF
        self.n_edges = 0
        self.rev = False
        self.add = 0

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.is_edge:
            return f"<edge {self.a}-{self.b} val={self.val}>"
        return f"<vertex {self.vid}>"


def edge_key(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


class LinkCutForest:
    """Dynamic forest over integer vertex ids.

    Parameters
    ----------
    gamma : int
        Weight ceiling; all edge weights stay in [0, gamma] and reversal
        complements against it.
    """

    def __init__(self, gamma: int):
        assert gamma >= 1
        self.gamma = gamma
        self._v = {}
        self._e = {}

    # ------------------------------------------------------------------
    # node plumbing

    def _vnode(self, v: int) -> _Node:
        n = self._v.get(v)
        if n is None:
            n = _Node()
            n.vid = v
            self._v[v] = n
        return n

    def _apply(self, x: _Node, rev: bool, add: int):
        if x is None or (not rev and add == 0):
            return
        if x.is_edge:
            if rev:
                x.val = self.gamma - x.val
            x.val += add
        if x.n_edges:
            if rev:
                x.mn, x.mx = self.gamma - x.mx, self.gamma - x.mn
            x.mn += add
            x.mx += add
        # compose into pending tags: children still need (old) then (new)
        if rev:
            x.rev = not x.rev
            x.add = add - x.add
        else:
            x.add += add

    def _push(self, x: _Node):
        if x.rev or x.add:
            self._apply(x.left, x.rev, x.add)
            self._apply(x.right, x.rev, x.add)
            if x.rev:
                x.left, x.right = x.right, x.left
            x.rev = False
            x.add = 0

    def _pull(self, x: _Node):
        mn = _INF
        mx = -_INF
        ne = 0
        l, r = x.left, x.right
        if l is not None and l.n_edges:
            ne += l.n_edges
            if l.mn < mn:
                mn = l.mn
            if l.mx > mx:
                mx = l.mx
        if r is not None and r.n_edges:
            ne += r.n_edges
            if r.mn < mn:
                mn = r.mn
            if r.mx > mx:
                mx = r.mx
        if x.is_edge:
            ne += 1
            if x.val < mn:
                mn = x.val
            if x.val > mx:
                mx = x.val
        x.n_edges = ne
        x.mn = mn
        x.mx = mx

    @staticmethod
    def _is_aux_root(x: _Node) -> bool:
        p = x.parent
        return p is None or (p.left is not x and p.right is not x)

    def _rotate(self, x: _Node):
        p = x.parent
        g = p.parent
        p_was_root = self._is_aux_root(p)
        if p.left is x:
            p.left = x.right
            if x.right is not None:
                x.right.parent = p
            x.right = p
        else:
            p.right = x.left
            if x.left is not None:
                x.left.parent = p
            x.left = p
        p.parent = x
        x.parent = g
        if not p_was_root:
            if g.left is p:
                g.left = x
            elif g.right is p:
                g.right = x
        self._pull(p)
        self._pull(x)

    def _splay(self, x: _Node):
        stack = [x]
        n = x
        while not self._is_aux_root(n):
            n = n.parent
            stack.append(n)
        for n in reversed(stack):
            self._push(n)
        while not self._is_aux_root(x):
            p = x.parent
            if self._is_aux_root(p):
                self._rotate(x)
            else:
                g = p.parent
                if (g.left is p) == (p.left is x):
                    self._rotate(p)
                    self._rotate(x)
                else:
                    self._rotate(x)
                    self._rotate(x)

    def _access(self, x: _Node):
        self._splay(x)
        if x.right is not None:
            x.right = None  # old preferred child keeps its parent pointer
            self._pull(x)
        while x.parent is not None:
            y = x.parent
            self._splay(y)
            y.right = x
            self._pull(y)
            self._splay(x)

    def _make_head(self, x: _Node):
        self._access(x)
        self._apply(x, True, 0)

    def _find_head(self, x: _Node) -> _Node:
        self._access(x)
        cur = x
        self._push(cur)
        while cur.left is not None:
            cur = cur.left
            self._push(cur)
        self._splay(cur)
        return cur

    # ------------------------------------------------------------------
    # structure

    def has_vertex(self, v: int) -> bool:
        return v in self._v

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._e

    def edges(self):
        """Iterate over edge keys currently in the forest."""
        return iter(list(self._e.keys()))

    def __len__(self):
        return len(self._e)

    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return u in self._v
        if u not in self._v or v not in self._v:
            return False
        return self._find_head(self._v[u]) is self._find_head(self._v[v])

    def find_root(self, v: int) -> int:
        return self._find_head(self._vnode(v)).vid

    def set_root(self, r: int):
        self._make_head(self._vnode(r))

    def link(self, u: int, v: int, weight_u: int):
        """Join u's tree to v's with an edge weighing ``weight_u`` toward u.

        The combined tree keeps v's root.  Raises CycleError if u and v are
        already connected.
        """
        if u == v:
            raise CycleError(f"self loop at {u}")
        if not 0 <= weight_u <= self.gamma:
            raise WeightRangeError(f"weight {weight_u} outside [0, {self.gamma}]")
        key = edge_key(u, v)
        if key in self._e:
            raise CycleError(f"edge {key} already present")
        nu, nv = self._vnode(u), self._vnode(v)
        if self.connected(u, v):
            raise CycleError(f"{u} and {v} already connected")
        self._make_head(nu)
        e = _Node()
        e.is_edge = True
        e.a, e.b = u, v
        # e's path order places the v side first, so store that numerator
        e.val = self.gamma - weight_u
        self._pull(e)
        nu.parent = e
        e.parent = nv
        self._e[key] = e

    def cut(self, u: int, v: int):
        """Remove edge (u, v).

        u's side is rerooted at u; v's side keeps the old root when it lies
        there (it does whenever the edge was oriented u-toward-root), and
        falls back to v otherwise.
        """
        key = edge_key(u, v)
        e = self._e.get(key)
        if e is None:
            raise MissingEdgeError(f"no edge {key}")
        nu, nv = self._v[u], self._v[v]
        old_root = self.find_root(u)
        self._make_head(nu)
        self._access(nv)
        self._splay(e)
        # path order is [u, e, v]; detach both sides
        lu, rv = e.left, e.right
        assert lu is not None and rv is not None
        lu.parent = None
        rv.parent = None
        e.left = e.right = None
        e.parent = None
        del self._e[key]
        # u's side is already headed by u, v's side by v
        rn = self._v[old_root]
        if self._find_head(rn) is self._find_head(nv):
            self._make_head(rn)

    # ------------------------------------------------------------------
    # path operations

    def _expose(self, u: int, v: int):
        if u == v:
            raise NotConnectedError(f"trivial path at {u}")
        if u not in self._v or v not in self._v or not self.connected(u, v):
            raise NotConnectedError(f"{u} and {v} not connected")
        saved = self.find_root(u)
        nu, nv = self._v[u], self._v[v]
        self._make_head(nu)
        self._access(nv)
        return nv, saved

    def _restore(self, saved: int):
        self._make_head(self._v[saved])

    def min_weight(self, u: int, v: int) -> int:
        top, saved = self._expose(u, v)
        out = top.mn
        self._restore(saved)
        return out

    def max_weight(self, u: int, v: int) -> int:
        top, saved = self._expose(u, v)
        out = top.mx
        self._restore(saved)
        return out

    def add_weight(self, u: int, v: int, x: int):
        """Add x to every path edge's weight as seen from the u side."""
        top, saved = self._expose(u, v)
        if top.mn + x < 0 or top.mx + x > self.gamma:
            self._restore(saved)
            raise WeightRangeError(
                f"shift {x} leaves [{top.mn + x}, {top.mx + x}] outside [0, {self.gamma}]")
        self._apply(top, False, x)
        self._restore(saved)

    def _descend_extreme(self, top: _Node, want_min: bool) -> _Node:
        target = top.mn if want_min else top.mx
        cur = top
        while True:
            self._push(cur)
            l = cur.left
            if l is not None and l.n_edges and (l.mn if want_min else l.mx) == target:
                cur = l
                continue
            if cur.is_edge and cur.val == target:
                return cur
            cur = cur.right
            assert cur is not None, "aggregate witness missing"

    def find_extreme_edge(self, u: int, v: int, which: str = "min"):
        """Edge attaining the path min/max weight; ties pick the one nearest u."""
        assert which in ("min", "max")
        top, saved = self._expose(u, v)
        node = self._descend_extreme(top, which == "min")
        out = (node.a, node.b)
        self._splay(node)
        self._restore(saved)
        return out

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge (u, v) as the numerator at u."""
        if edge_key(u, v) not in self._e:
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        top, saved = self._expose(u, v)
        assert top.mn == top.mx
        out = top.mn
        self._restore(saved)
        return out

    def set_edge_weight(self, u: int, v: int, weight_u: int):
        if not 0 <= weight_u <= self.gamma:
            raise WeightRangeError(f"weight {weight_u} outside [0, {self.gamma}]")
        if edge_key(u, v) not in self._e:
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        top, saved = self._expose(u, v)
        self._apply(top, False, weight_u - top.mn)
        self._restore(saved)

    # ------------------------------------------------------------------
    # root-relative queries (no rerooting)

    def depth_parity(self, v: int) -> int:
        """Parity of the number of edges between v and its tree root."""
        nv = self._vnode(v)
        self._access(nv)
        left = nv.left
        return (left.n_edges & 1) if left is not None else 0

    def first_edge_on_root_path(self, v: int):
        """The edge incident to v on the v-to-root path, or None at the root."""
        nv = self._vnode(v)
        self._access(nv)
        cur = nv.left
        if cur is None:
            return None
        self._push(cur)
        while cur.right is not None:
            cur = cur.right
            self._push(cur)
        assert cur.is_edge
        out = (cur.a, cur.b)
        self._splay(cur)
        return out
