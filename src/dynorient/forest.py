"""Two dynamic forests: a weighted one for H and a parity-only one for layers.

``LinkCutForest`` maintains a forest of rooted trees under link/cut.  Each
edge carries an integer weight in [0, gamma], read as the numerator of the
fractional load the edge assigns to one endpoint; the other endpoint
implicitly receives ``gamma - w``.  Path operations between u and v interpret
each edge's weight relative to the endpoint nearer u, so reversing the
direction of a query complements every weight.

Implementation: splay-based link-cut trees (Sleator and Tarjan) with edges
represented as their own nodes spliced between vertex nodes.  An edge node's
value is the numerator at its parent endpoint, the one nearer the root,
stored centred as c = 2w - gamma, so complementing a weight is a negation
and the splay core needs no gamma.  Preferred-path reversal negates every
value in the reversed subtree; it and path shifts travel as lazy tags
(pending transform: c <- (-c if rev else c) + add).  The same reversal
toggles each edge node's orientation bit ``flip``: the parent endpoint is
``b`` (the link's v) while the bit is clear and ``a`` while it is set.  Once
an edge node is splayed, its value and bit are current, so a single edge is
read, shifted or cut without rerooting.  Both forests run lean module-level
splay cores (``_wsplay``/``_waccess`` here, ``_splay``/``_access`` for the
layers): a rotation hands the parent's subtree aggregate to the node that
rises and recounts only the parent.

``path_update(u, v, decide)`` is H's one path primitive.  It everts at u
once, accesses v and reports a missing path; otherwise it hands the path's
min and max numerators, read from the u side, to the caller's ``decide``,
finds the min or max witness nearest u when asked, applies the shift with
its range check, and restores the old root once.

Each tree has a root, the orientation sink when the forest mirrors an
out-orientation.  Which operations evert:

* ``link`` everts u's tree at u, unless u already heads it;
* ``cut`` everts only when u is the parent endpoint, so that u's side ends
  up rooted at u;
* ``path_update`` everts at u and restores the old root before it returns,
  unless u is the root already;
* ``edge_weight``, ``shift_edge_weight``, ``depth_parity`` and
  ``first_edge_on_root_path`` never evert.

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

Both forests keep a read-through memo of depth parities, one int per
vertex read since its tree last changed, filed under the root it was read
under.  ``depth_parity`` answers from it; a miss makes the access it would
make anyway, and the walk to the path's head that follows names the root
and, as the path's length, the parity.  A successful ``link``, ``cut`` or
``set_root`` drops only the entries of the tree it changes: for ``link``
u's old tree, since v's side keeps every depth; for ``cut`` and
``set_root`` the whole tree.  The operation's own access exposes that
root, so finding it is a walk down the exposed path, not another access,
and it is paid only while the memo holds something.  A typed error is
raised before any entry is dropped.  Every other operation leaves all
depths as they were (``path_update`` restores the root it moved) and keeps
the memo.  Reads create no node: a vertex the forest has never seen has
depth parity 0 (or the caller's ``default``), is its own root and has no
edge on its root path.

Both forests are iterative throughout, so deep paths do not recurse.
"""

from __future__ import annotations

from .errors import CycleError, MissingEdgeError, WeightRangeError

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


# ----------------------------------------------------------------------
# the weighted splay core of LinkCutForest: values are centred, c = 2w - gamma


def _wapply(x: _Node, rev: bool, add: int):
    """Reverse x's splay subtree when ``rev`` (negating every centred value
    and toggling every orientation bit), then shift it by ``add``: x's own
    fields now, its children through the pending tags."""
    if rev:
        if x.is_edge:
            x.val = add - x.val
            x.flip = not x.flip
        if x.n_edges:
            x.mn, x.mx = add - x.mx, add - x.mn
        x.rev = not x.rev
        x.add = add - x.add
    else:
        if x.is_edge:
            x.val += add
        if x.n_edges:
            x.mn += add
            x.mx += add
        x.add += add


def _wpush(x: _Node):
    """Hand x's pending reversal and shift to its children."""
    rev = x.rev
    add = x.add
    if rev or add:
        l, r = x.left, x.right
        if l is not None:
            _wapply(l, rev, add)
        if r is not None:
            _wapply(r, rev, add)
        if rev:
            x.left, x.right = r, l
            x.rev = False
        x.add = 0


def _wpull(x: _Node):
    """Recount x's edge count and min/max from its children and itself."""
    if x.is_edge:
        ne = 1
        mn = mx = x.val
    else:
        ne = 0
        mn = _INF
        mx = -_INF
    l = x.left
    if l is not None and l.n_edges:
        ne += l.n_edges
        if l.mn < mn:
            mn = l.mn
        if l.mx > mx:
            mx = l.mx
    r = x.right
    if r is not None and r.n_edges:
        ne += r.n_edges
        if r.mn < mn:
            mn = r.mn
        if r.mx > mx:
            mx = r.mx
    x.n_edges = ne
    x.mn = mn
    x.mx = mx


def _wrotate(x: _Node):
    """Lift x over its splay parent; x takes over the parent's aggregates,
    and only the parent's are recounted."""
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
    x.n_edges = p.n_edges
    x.mn = p.mn
    x.mx = p.mx
    _wpull(p)


def _wsplay(x: _Node):
    """Make x the root of its splay tree, pushing pending tags down the
    splay path first."""
    p = x.parent
    if p is None or (p.left is not x and p.right is not x):
        _wpush(x)
        return
    path = [x]
    n = x
    while p is not None and (p.left is n or p.right is n):
        path.append(p)
        n = p
        p = n.parent
    top = p
    for n in reversed(path):
        _wpush(n)
    while True:
        p = x.parent
        if p is top:
            return
        g = p.parent
        if g is top:
            _wrotate(x)
            return
        if (g.left is p) == (p.left is x):
            _wrotate(p)
        else:
            _wrotate(x)
        _wrotate(x)


def _waccess(x: _Node):
    """Make x's root path the preferred path, with x its splay root and
    last node."""
    last = None
    y = x
    while y is not None:
        _wsplay(y)
        y.right = last  # the old preferred child keeps its parent pointer
        _wpull(y)
        last = y
        y = y.parent
    _wsplay(x)


def _wfirst(x: _Node) -> _Node:
    """First node of x's splay tree, splayed to its top."""
    while True:
        _wpush(x)
        if x.left is None:
            break
        x = x.left
    _wsplay(x)
    return x


def _whead(x: _Node) -> _Node:
    """Root of x's tree, splayed to the top of its root path, so that its
    aggregates are the path's."""
    _waccess(x)
    return _wfirst(x)


def _wevert(x: _Node):
    """Make x the root of its tree."""
    _waccess(x)
    _wapply(x, True, 0)


class _ParityMemo:
    """Depth parities read since their tree last changed, filed by the
    root they were read under, so a change to one tree drops that tree's
    entries alone."""

    def __init__(self):
        self._parity = {}   # vertex -> depth parity
        self._tree = {}     # root -> vertices memoised under it

    def _remember(self, v: int, root: int, p: int) -> int:
        self._parity[v] = p
        vs = self._tree.get(root)
        if vs is None:
            self._tree[root] = [v]
        else:
            vs.append(v)
        return p

    def _forget(self, root: int):
        """Drop every entry read under ``root``: its tree is changing."""
        vs = self._tree.pop(root, None)
        if vs is not None:
            parity = self._parity
            for v in vs:
                del parity[v]


class LinkCutForest(_ParityMemo):
    """Weighted dynamic forest over integer vertex ids; every edge weight
    stays in [0, gamma], and reversal complements against gamma."""

    def __init__(self, gamma: int):
        assert gamma >= 1
        super().__init__()
        self.gamma = gamma
        self._v = {}
        self._e = {}

    def _vnode(self, v: int) -> _Node:
        n = self._v.get(v)
        if n is None:
            n = _Node()
            n.vid = v
            self._v[v] = n
        return n

    # ------------------------------------------------------------------
    # structure

    def edge_keys(self):
        """Live view of the edge keys: it follows every link and cut."""
        return self._e.keys()

    def link(self, u: int, v: int, weight_u: int):
        """Join u's tree to v's with an edge weighing ``weight_u`` toward u.
        The combined tree keeps v's root; CycleError if u and v are already
        connected."""
        if u == v:
            raise CycleError(f"self loop at {u}")
        if not 0 <= weight_u <= self.gamma:
            raise WeightRangeError(f"weight {weight_u} outside [0, {self.gamma}]")
        key = edge_key(u, v)
        if key in self._e:
            raise CycleError(f"edge {key} already present")
        nu, nv = self._vnode(u), self._vnode(v)
        _waccess(nu)
        _waccess(nv)
        # after the second access nv alone tops its tree's splay structure,
        # so nu kept a parent exactly when v lies in u's tree
        if nu.parent is not None:
            raise CycleError(f"{u} and {v} already connected")
        # nu still tops its own root path; u's old tree is the one whose
        # depths change, and its root heads that path
        if self._parity:
            self._forget(_wfirst(nu).vid)
            _wsplay(nu)
        if nu.left is not None:
            _wapply(nu, True, 0)
        e = _Node()
        e.is_edge = True
        e.a, e.b = u, v
        # v is the parent endpoint, so the value is the numerator at v,
        # gamma - weight_u, centred
        e.val = e.mn = e.mx = self.gamma - 2 * weight_u
        e.n_edges = 1
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
        _wsplay(e)
        child = e.b if e.flip else e.a
        _waccess(self._v[child])
        # the root path now ends [..., parent, e, child]; detach both sides
        _wsplay(e)
        above = e.left
        above.parent = None
        e.right.parent = None
        e.left = e.right = None
        del self._e[key]
        if self._parity:
            # the parent side's path still starts at the old root
            self._forget(_wfirst(above).vid)
        # the parent side keeps the old root, the child side is headed by
        # the child
        if child != u:
            _wevert(self._v[u])

    # ------------------------------------------------------------------
    # path operations

    def path_update(self, u: int, v: int, decide):
        """Read the u..v path and act on it in one exposure.

        Returns None when u and v are not connected (or equal); then
        ``decide`` is not called and nothing changes.  Otherwise it calls
        ``decide(mn, mx)`` with the least and greatest path numerator read
        from the u side, which returns ``(which, shift)``.  ``which`` names
        the witness to find: ``"min"`` or ``"max"`` asks for the path edge
        nearest u attaining mn or mx, None for none.  ``shift`` is then
        added to every path numerator read from the u side; a shift that
        would leave [0, gamma] raises WeightRangeError with nothing
        changed.  Returns ``(witness, shift)``, the witness an endpoint
        pair or None.  The tree keeps its root: u's tree is everted at u
        for the exposure and the old root restored after it, so every
        depth is unchanged and the parity memo is kept.
        """
        nu, nv = self._v.get(u), self._v.get(v)
        if nu is None or nv is None or nu is nv:
            return None
        head = _whead(nu)
        if head is not nu:
            # nu is the last node of head's splay tree, the root path
            _wsplay(nu)
            _wapply(nu, True, 0)
        _waccess(nv)
        # nu headed its own tree's top splay tree; it gained a parent
        # exactly when the access pulled it into v's
        if nu.parent is None:
            if head is not nu:
                # v's access left u's tree alone: reversing again undoes
                # the evert
                _wapply(nu, True, 0)
            return None
        try:
            gamma = self.gamma
            mn = (nv.mn + gamma) >> 1
            mx = (nv.mx + gamma) >> 1
            which, shift = decide(mn, mx)
            if mn + shift < 0 or mx + shift > gamma:
                raise WeightRangeError(
                    f"shift {shift} leaves [{mn + shift}, {mx + shift}] "
                    f"outside [0, {gamma}]")
            top = nv
            witness = None
            if which is not None:
                # the witness nearest u comes first in the path's order
                want_min = which == "min"
                target = nv.mn if want_min else nv.mx
                cur = nv
                while True:
                    _wpush(cur)
                    l = cur.left
                    if (l is not None and l.n_edges
                            and (l.mn if want_min else l.mx) == target):
                        cur = l
                        continue
                    if cur.is_edge and cur.val == target:
                        break
                    cur = cur.right
                    assert cur is not None, "aggregate witness missing"
                witness = (cur.a, cur.b)
                _wsplay(cur)
                top = cur
            if shift:
                _wapply(top, False, 2 * shift)
            return witness, shift
        finally:
            if head is not nu:
                _wevert(head)

    def _splayed_edge(self, u: int, v: int) -> _Node:
        """Edge node of (u, v), splayed so its value and bit are current."""
        e = self._e.get(edge_key(u, v))
        if e is None:
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        _wsplay(e)
        return e

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge (u, v) as the numerator at u."""
        e = self._splayed_edge(u, v)
        if u == (e.a if e.flip else e.b):
            return (self.gamma + e.val) >> 1
        return (self.gamma - e.val) >> 1

    def shift_edge_weight(self, u: int, v: int, delta: int) -> int:
        """Add ``delta`` to the weight of edge (u, v) at u in one splay and
        return the new weight; a weight that would leave [0, gamma] raises
        WeightRangeError with nothing changed."""
        e = self._splayed_edge(u, v)
        sign = 1 if u == (e.a if e.flip else e.b) else -1
        w = ((self.gamma + sign * e.val) >> 1) + delta
        if not 0 <= w <= self.gamma:
            raise WeightRangeError(f"weight {w} outside [0, {self.gamma}]")
        e.val += 2 * sign * delta
        _wpull(e)
        return w

    # ------------------------------------------------------------------
    # root-relative queries (no rerooting)

    def depth_parity(self, v: int, default=0):
        """Parity of the number of edges between v and its tree root;
        ``default`` for a vertex the forest has never seen."""
        p = self._parity.get(v)
        if p is None:
            nv = self._v.get(v)
            if nv is None:
                return default
            # the root tops v's root path, whose edges it counts
            r = _whead(nv)
            p = self._remember(v, r.vid, r.n_edges & 1)
        return p

    def first_edge_on_root_path(self, v: int):
        """The edge incident to v on the v-to-root path, or None at the root."""
        nv = self._v.get(v)
        if nv is None:
            return None
        _waccess(nv)
        cur = nv.left
        if cur is None:
            return None
        _wpush(cur)
        while cur.right is not None:
            cur = cur.right
            _wpush(cur)
        assert cur.is_edge
        out = (cur.a, cur.b)
        _wsplay(cur)
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


def _first(x: _Vertex) -> _Vertex:
    """First node of x's splay tree, splayed to its top."""
    while True:
        _push(x)
        if x.left is None:
            break
        x = x.left
    _splay(x)
    return x


class ParityForest(_ParityMemo):
    """Rooted dynamic forest over integer vertex ids with root, connectivity
    and depth-parity reads and no weights."""

    def __init__(self):
        super().__init__()
        self._v = {}
        self._e = {}      # edge key -> None, a set with a read-only view

    def _vnode(self, v: int) -> _Vertex:
        n = self._v.get(v)
        if n is None:
            n = self._v[v] = _Vertex(v)
        return n

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._e

    def edges(self):
        """Iterate over edge keys currently in the forest."""
        return iter(list(self._e))

    def edge_keys(self):
        """Live view of the edge keys: it follows every link and cut, and
        its truth test costs no Python-level call."""
        return self._e.keys()

    def __len__(self):
        return len(self._e)

    def find_root(self, v: int) -> int:
        x = self._v.get(v)
        if x is None:
            return v
        _access(x)
        return _first(x).vid

    def set_root(self, r: int):
        x = self._vnode(r)
        _access(x)
        if self._parity:
            self._forget(_first(x).vid)
            _splay(x)
        x.rev = not x.rev

    def depth_parity(self, v: int, default=0):
        """Parity of the number of edges between v and its tree root;
        ``default`` for a vertex the forest has never seen."""
        p = self._parity.get(v)
        if p is None:
            x = self._v.get(v)
            if x is None:
                return default
            # the root tops v's root path, whose vertices it counts
            _access(x)
            r = _first(x)
            p = self._remember(v, r.vid, (r.size - 1) & 1)
        return p

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
        The combined tree keeps v's root; CycleError if u and v are already
        connected."""
        if u == v:
            raise CycleError(f"self loop at {u}")
        key = edge_key(u, v)
        if key in self._e:
            raise CycleError(f"edge {key} already present")
        nu, nv = self._vnode(u), self._vnode(v)
        if self.connected(u, v):
            raise CycleError(f"{u} and {v} already connected")
        # connected left nu accessed, and its access of v stayed in v's
        # tree; u's old tree is the one whose depths change
        if self._parity:
            self._forget(_first(nu).vid)
            _splay(nu)
        if nu.left is not None:
            nu.rev = not nu.rev
        nu.parent = nv
        self._e[key] = None

    def cut(self, u: int, v: int) -> int:
        """Remove edge (u, v) without rerooting either side; returns the
        parent side's root, the root the tree had before the cut."""
        key = edge_key(u, v)
        if key not in self._e:
            raise MissingEdgeError(f"no edge {key}")
        del self._e[key]
        nu, nv = self._v[u], self._v[v]
        _access(nu)
        _splay(nv)
        if nv.parent is nu:
            # v is u's child and heads its own preferred path, hanging
            # from u by the path-parent pointer alone
            nv.parent = None
            above = nu
        else:
            # v is u's parent: it now tops u's splay tree with u, the last
            # node of the root path, as its only right descendant
            nv.right = None
            nv.size -= 1
            nu.parent = None
            above = nv
        # the parent side's path still starts at the old root
        root = _first(above).vid
        if self._parity:
            self._forget(root)
        return root
