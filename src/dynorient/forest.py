"""Two dynamic forests: a weighted one for H and a parity-only one for layers.

``LinkCutForest`` maintains a forest of rooted trees under link/cut.  Each
edge carries an integer weight in [0, gamma], read as the numerator of the
fractional load the edge assigns to one endpoint; the other endpoint
implicitly receives ``gamma - w``.  Path operations between u and v interpret
each edge's weight relative to the endpoint nearer u, so reversing the
direction of a query complements every weight.

Implementation: splay-based link-cut trees with edges represented as their own
nodes spliced between vertex nodes.  An edge node's value is the numerator at
its parent endpoint, the one nearer the root.  Preferred-path reversal
therefore has to complement edge values, which is folded into the usual lazy
reversal tag (pending transform: val <- (gamma - val if rev else val) + add).
The same reversal toggles each edge node's orientation bit ``flip``: the parent
endpoint is ``b`` (the link's v) while the bit is clear and ``a`` while it is
set.  Once an edge node is splayed, its value and bit are current, so a single
edge is read, written or cut without rerooting.

Each tree also carries a root tag (the semantic root, i.e. the orientation
sink when the forest mirrors an out-orientation).  The invariant is that the
represented head of every preferred-path structure equals the tagged root.
Which operations evert:

* ``set_root`` moves the tag;
* ``link`` everts u's tree at u, unless u already heads it;
* ``cut`` everts only when u is the parent endpoint, so that u's side ends
  up rooted at u;
* the path operations (``min_weight``, ``max_weight``, ``add_weight``,
  ``find_extreme_edge``) evert at u and restore the old root before they
  return, unless u is the root already;
* ``edge_weight``, ``set_edge_weight``, ``connected``, ``find_root``,
  ``depth_parity`` and ``first_edge_on_root_path`` never evert.

``ParityForest`` keeps the layer trees F_i, which read roots, connectivity
and depth parity but never a weight.  It is a vertex-only splay link-cut
forest (Sleator and Tarjan): edges are implicit in the preferred paths, and a
node holds its splay links, a lazy reversal bit and the size of its splay
subtree.  After an access the left subtree of v is v's root path above v, so
v's depth parity is its size modulo 2.  Which operations evert:

* ``set_root`` moves the root;
* ``link`` everts u's tree at u, unless u already heads it;
* ``cut`` never does: the parent side keeps its root and the child side is
  headed by the child, whichever endpoint comes first;
* ``connected``, ``find_root`` and ``depth_parity`` never evert.

Both forests are iterative throughout, so deep paths do not recurse.
"""

from __future__ import annotations

from .errors import (CycleError, MissingEdgeError, NotConnectedError,
                     WeightRangeError)

_INF = 1 << 60


class _Node:
    __slots__ = ("parent", "left", "right", "vid", "a", "b", "is_edge",
                 "flip", "val", "mn", "mx", "n_edges", "rev", "add")

    def __init__(self):
        self.parent = None
        self.left = None
        self.right = None
        self.vid = None
        self.a = None
        self.b = None
        self.is_edge = False
        self.flip = False
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
                x.flip = not x.flip
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
        hu = self._find_head(nu)
        if self._find_head(nv) is hu:
            raise CycleError(f"{u} and {v} already connected")
        if hu is not nu:
            self._make_head(nu)
        e = _Node()
        e.is_edge = True
        e.a, e.b = u, v
        # v is the parent endpoint, so the value is the numerator at v
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
        self._splay(e)
        child = e.b if e.flip else e.a
        self._access(self._v[child])
        # the root path now ends [..., parent, e, child]; detach both sides
        self._splay(e)
        e.left.parent = None
        e.right.parent = None
        e.left = e.right = None
        del self._e[key]
        # the parent side keeps the old root, the child side is headed by
        # the child
        if child != u:
            self._make_head(self._v[u])

    # ------------------------------------------------------------------
    # path operations

    def _expose(self, u: int, v: int):
        """Make u the root and access v, so v's aux tree holds the u..v
        path.  Returns v's node and the old root to restore, or None when
        u was the root already."""
        if u == v:
            raise NotConnectedError(f"trivial path at {u}")
        nu, nv = self._v.get(u), self._v.get(v)
        if nu is None or nv is None:
            raise NotConnectedError(f"{u} and {v} not connected")
        saved = self._find_head(nu)
        if saved is nu:
            saved = None
        else:
            self._make_head(nu)
        self._access(nv)
        # nu headed its own tree's top aux tree; it gained a parent exactly
        # when the access pulled it into v's
        if nu.parent is None:
            self._restore(saved)
            raise NotConnectedError(f"{u} and {v} not connected")
        return nv, saved

    def _restore(self, saved):
        if saved is not None:
            self._make_head(saved)

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

    def _splayed_edge(self, u: int, v: int) -> _Node:
        """Edge node of (u, v), splayed so its value and bit are current."""
        e = self._e.get(edge_key(u, v))
        if e is None:
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        self._splay(e)
        return e

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge (u, v) as the numerator at u."""
        e = self._splayed_edge(u, v)
        if u == (e.a if e.flip else e.b):
            return e.val
        return self.gamma - e.val

    def set_edge_weight(self, u: int, v: int, weight_u: int):
        if not 0 <= weight_u <= self.gamma:
            raise WeightRangeError(f"weight {weight_u} outside [0, {self.gamma}]")
        e = self._splayed_edge(u, v)
        if u == (e.a if e.flip else e.b):
            e.val = weight_u
        else:
            e.val = self.gamma - weight_u
        self._pull(e)

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


class _Vertex:
    __slots__ = ("parent", "left", "right", "rev", "size", "vid")

    def __init__(self, vid):
        self.parent = None
        self.left = None
        self.right = None
        self.rev = False
        self.size = 1
        self.vid = vid

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<vertex {self.vid}>"


def _rotate(x: _Vertex):
    """Lift x over its splay parent; x takes over the parent's subtree
    size, and only the parent's is recounted."""
    p = x.parent
    g = p.parent
    if p.left is x:
        b = x.right
        p.left = b
        x.right = p
    else:
        b = x.left
        p.right = b
        x.left = p
    if b is not None:
        b.parent = p
    p.parent = x
    x.parent = g
    if g is not None:
        if g.left is p:
            g.left = x
        elif g.right is p:
            g.right = x
    x.size = p.size
    size = 1
    if p.left is not None:
        size += p.left.size
    if p.right is not None:
        size += p.right.size
    p.size = size


def _push(x: _Vertex):
    """Apply x's pending reversal: swap its children and pass the bit on."""
    if x.rev:
        x.rev = False
        l, r = x.left, x.right
        x.left, x.right = r, l
        if l is not None:
            l.rev = not l.rev
        if r is not None:
            r.rev = not r.rev


def _splay(x: _Vertex):
    """Make x the root of its splay tree, pushing pending reversals down
    the splay path first."""
    p = x.parent
    if p is None or (p.left is not x and p.right is not x):
        _push(x)
        return
    path = [x]
    n = x
    while p is not None and (p.left is n or p.right is n):
        path.append(p)
        n = p
        p = n.parent
    top = p
    for n in reversed(path):
        _push(n)
    while True:
        p = x.parent
        if p is top:
            return
        g = p.parent
        if g is top:
            _rotate(x)
            return
        if (g.left is p) == (p.left is x):
            _rotate(p)
        else:
            _rotate(x)
        _rotate(x)


def _access(x: _Vertex):
    """Make x's root path the preferred path, with x its splay root and
    last node: afterwards x.left holds exactly x's proper ancestors."""
    last = None
    y = x
    while y is not None:
        _splay(y)
        r = y.right
        size = y.size
        if r is not None:
            size -= r.size
        if last is not None:
            size += last.size
        y.right = last
        y.size = size
        last = y
        y = y.parent
    _splay(x)


def _leftmost(x: _Vertex) -> _Vertex:
    """First node in x's splay subtree, pushing reversals on the way."""
    while True:
        _push(x)
        if x.left is None:
            return x
        x = x.left


class ParityForest:
    """Rooted dynamic forest over integer vertex ids with root, connectivity
    and depth-parity reads and no weights."""

    def __init__(self):
        self._v = {}
        self._e = set()

    def _vnode(self, v: int) -> _Vertex:
        n = self._v.get(v)
        if n is None:
            n = self._v[v] = _Vertex(v)
        return n

    def has_vertex(self, v: int) -> bool:
        return v in self._v

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._e

    def edges(self):
        """Iterate over edge keys currently in the forest."""
        return iter(list(self._e))

    def __len__(self):
        return len(self._e)

    def find_root(self, v: int) -> int:
        x = self._vnode(v)
        _access(x)
        r = _leftmost(x)
        _splay(r)
        return r.vid

    def set_root(self, r: int):
        x = self._vnode(r)
        _access(x)
        x.rev = not x.rev

    def depth_parity(self, v: int) -> int:
        """Parity of the number of edges between v and its tree root."""
        x = self._vnode(v)
        _access(x)
        left = x.left
        return left.size & 1 if left is not None else 0

    def connected(self, u: int, v: int) -> bool:
        if u == v:
            return u in self._v
        nu, nv = self._v.get(u), self._v.get(v)
        if nu is None or nv is None:
            return False
        _access(nu)
        _access(nv)
        # after the second access nv alone tops its tree's splay structure,
        # so nu kept no parent exactly when the access missed its tree
        return nu.parent is not None

    def link(self, u: int, v: int):
        """Join u's tree to v's with edge (u, v).

        The combined tree keeps v's root.  Raises CycleError if u and v are
        already connected.
        """
        if u == v:
            raise CycleError(f"self loop at {u}")
        key = edge_key(u, v)
        if key in self._e:
            raise CycleError(f"edge {key} already present")
        nu, nv = self._vnode(u), self._vnode(v)
        if self.connected(u, v):
            raise CycleError(f"{u} and {v} already connected")
        # connected left nu accessed, and its access of v stayed in v's tree
        if nu.left is not None:
            nu.rev = not nu.rev
        nu.parent = nv
        self._e.add(key)

    def cut(self, u: int, v: int):
        """Remove edge (u, v) without rerooting either side."""
        key = edge_key(u, v)
        if key not in self._e:
            raise MissingEdgeError(f"no edge {key}")
        self._e.remove(key)
        nu, nv = self._v[u], self._v[v]
        _access(nu)
        _splay(nv)
        if nv.parent is nu:
            # v is u's child and heads its own preferred path, hanging
            # from u by the path-parent pointer alone
            nv.parent = None
            return
        # v is u's parent: it now tops u's splay tree with u, the last node
        # of the root path, as its only right descendant
        nv.right = None
        nv.size -= 1
        nu.parent = None
