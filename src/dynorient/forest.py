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
vertex read, in one group per tree, filed under the tree's root; each
memoised vertex's node points to its group.  ``depth_parity`` answers
from it; a miss makes the access it would make anyway, and the walk to
the path's head that follows names the root and, as the path's length,
the parity.  A write moves every depth on one side of the tree it
changes by one parity, so it re-files that side's entries with one XOR
instead of dropping them:

* ``set_root`` moves the whole tree by the new root's old parity, read
  from its own access (``size`` on the layers);
* ``link`` moves u's old tree by the parity of depth(u) + depth(v) + 1,
  read from its two accesses (``size`` on the layers, ``n_edges`` on H),
  and merges its group into v's;
* ``cut`` splits the group: the child side moves by the child's old
  parity, and on H, where a cut with u the parent endpoint everts u's
  side, the parent side moves by u's.  The child side's entries are
  found by a walk over the vertices' neighbour lists, which stops once
  it has passed as many vertices as the tree has entries and then drops
  the tree's entries instead, so a cut's added work is bounded by them.

The operation finds the group through a memoised endpoint's node, or
else by the tree's root, read by a walk down the path its own access
exposed, never by another access; a link whose two endpoints both lack
an entry walks for u's group and drops it rather than walk again for
v's root, so no write makes more root walks than a memo that dropped
every changed tree.  A typed error is raised before any entry moves.
Every other operation leaves all depths as they were (``path_update``
restores the root it moved) and keeps the memo.  Reads create no node:
a vertex the forest has never seen has depth parity 0 (or the caller's
``default``), is its own root and has no edge on its root path.
``memo_get`` reads the memo alone, with no access, and ``verify``
checks every entry and group against fresh reads.

Both forests report to a ``ChangeStamps`` they are handed (or make their
own), which the colourings read to keep their per-vertex answers exact:
every memo entry a write flips or drops, and every vertex's first node,
bumps that vertex's stamp, and a link onto an empty forest or a cut that
empties it bumps the epoch.  An entry a write keeps as it was keeps its
stamp, so the colour memoised for its vertex stays valid.

Both forests are iterative throughout, so deep paths do not recurse.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import CycleError, MissingEdgeError, WeightRangeError, require

_INF = 1 << 60


class _Node:
    __slots__ = ("parent", "left", "right", "vid", "a", "b", "is_edge",
                 "flip", "val", "mn", "mx", "n_edges", "rev", "add",
                 "group", "nbrs")

    def __init__(self):
        self.group = None   # memo group of a vertex node, see _ParityMemo
        self.nbrs = None    # a vertex node's neighbour nodes; None on an edge
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


class ChangeStamps:
    """Change stamps shared by the forests of one decomposition and read
    by its colourings: ``of[v]`` grows whenever a depth parity, node or
    designation of v that a colour reads may have changed, and ``epoch``
    grows whenever a colour factor turns on or off.  ``of`` is a list of
    ``n`` ints, or a dict that grows on demand when no ``n`` is given."""

    __slots__ = ("of", "epoch")

    def __init__(self, n=None):
        self.of = defaultdict(int) if n is None else [0] * n
        self.epoch = 0


class _Group(set):
    """The nodes of one tree whose depth parities are memoised: a set
    that knows the root it is filed under."""

    __slots__ = ("root",)


class _ParityMemo:
    """Depth parities of vertices read since they were last dropped, in
    groups, one per tree, each filed under its tree's root; every
    memoised vertex's node points to its group.  A link, cut or evert
    moves every depth of one side of the tree it changes by one parity,
    so it re-files that side's entries with one XOR instead of dropping
    them; only a cut whose child side outgrows its tree's entries drops
    them all.  An entry whose parity flips or that is dropped bumps its
    vertex's change stamp, and so does the first node made for a vertex;
    a link onto an empty forest and a cut that empties it bump the epoch.
    Each vertex node also lists its neighbour nodes, the adjacency the
    cut walks its child side over."""

    def __init__(self, stamps):
        self._parity = {}   # vertex -> depth parity
        self._tree = {}     # root -> _Group of the nodes memoised under it
        self.stamps = ChangeStamps() if stamps is None else stamps
        # v's memoised depth parity, or None: a read with no access, for
        # callers that try the memo before ``depth_parity``
        self.memo_get = self._parity.get

    def _remember(self, x, root: int, p: int) -> int:
        """Memoise parity p of node x, read under ``root``."""
        self._parity[x.vid] = p
        g = self._tree.get(root)
        if g is None:
            g = self._tree[root] = _Group((x,))
            g.root = root
        else:
            g.add(x)
        x.group = g
        return p

    def _forget(self, g: _Group):
        """Drop every entry of group g."""
        del self._tree[g.root]
        parity = self._parity
        stamp = self.stamps.of
        for x in g:
            v = x.vid
            del parity[v]
            stamp[v] += 1
            x.group = None

    def _flip(self, xs):
        """XOR the entries of the nodes xs with 1."""
        parity = self._parity
        stamp = self.stamps.of
        for x in xs:
            v = x.vid
            parity[v] ^= 1
            stamp[v] += 1

    def _refile(self, g: _Group, root: int):
        """File g under ``root``, merged with the group already there."""
        if g.root == root:
            return
        tree = self._tree
        del tree[g.root]
        h = tree.get(root)
        if h is None:
            g.root = root
            tree[root] = g
            return
        if len(h) >= len(g):
            g, h = h, g
        else:
            g.root = root
            tree[root] = g
        # the smaller group h moves into g, which is filed under root
        g |= h
        for x in h:
            x.group = g

    def _hang(self, g: _Group, nv, walked: bool, s: int):
        """Re-file group g of the tree a link hangs below node nv: every
        depth there moves by parity s, and the tree takes nv's root, named
        by nv's group or, when nv has no entry, by a root walk from nv,
        its path's splay root.  When the link ``walked`` for g already, g
        is dropped instead of walking again."""
        gv = nv.group
        if gv is not None:
            root = gv.root
        elif not walked:
            root = self._walk_root(nv)
        else:
            self._forget(g)
            return
        if s:
            self._flip(g)
        self._refile(g, root)

    def _split(self, g: _Group, c, s: int):
        """Split the group g of a tree just cut: the entries of the child
        side, headed by node c, move by parity s to a group of their own,
        found by a walk of the child side over the neighbour lists.  A
        walk that would pass more vertices than g has entries drops g
        instead.  Returns what is left of g for the parent side, or
        None."""
        if c.nbrs:
            cap = len(g)
            side = [c]
            seen = {c}
            for x in side:
                for y in x.nbrs:
                    if y not in seen:
                        if len(side) == cap:
                            self._forget(g)
                            return None
                        seen.add(y)
                        side.append(y)
            h = _Group([x for x in side if x.group is g])
            if not h:
                return g
        elif c.group is g:
            # the child side is c alone
            h = _Group((c,))
        else:
            return g
        if s:
            self._flip(h)
        if len(h) == len(g):
            self._refile(g, c.vid)
            return None
        g -= h
        h.root = c.vid
        self._tree[c.vid] = h
        for x in h:
            x.group = h
        return g

    def verify(self):
        """Raise ConsistencyError, also under ``python -O``, unless every
        memo entry equals a fresh read of its root path, every memoised
        vertex's group is filed under its tree's current root, and the
        neighbour lists hold exactly the edge keys."""
        parity, tree = self._parity, self._tree
        require(sum(map(len, tree.values())) == len(parity),
                "memo groups and entries differ in number")
        for r, g in tree.items():
            require(g.root == r and g, "memo group misfiled", r)
            for x in g:
                require(x.group is g and x.vid in parity,
                        "memo group member without its entry", r, x.vid)
        for v, p in parity.items():
            root, fresh = self._read(self._v[v])
            require(p == fresh, "memoised parity is stale", v, p)
            require(tree.get(root) is self._v[v].group,
                    "memo group not filed under its root", v, root)
        edges = self._e
        ends = 0
        for v, x in self._v.items():
            require(x.group is None or v in parity, "stray memo group", v)
            for y in x.nbrs:
                require(edge_key(v, y.vid) in edges,
                        "neighbour list edge missing", v, y.vid)
                ends += 1
        require(ends == 2 * len(edges), "neighbour lists miss an edge")


class LinkCutForest(_ParityMemo):
    """Weighted dynamic forest over integer vertex ids; every edge weight
    stays in [0, gamma], and reversal complements against gamma."""

    def __init__(self, gamma: int, stamps: ChangeStamps = None):
        assert gamma >= 1
        super().__init__(stamps)
        self.gamma = gamma
        self._v = {}
        self._e = {}

    def _vnode(self, v: int) -> _Node:
        n = self._v.get(v)
        if n is None:
            n = _Node()
            n.vid = v
            n.nbrs = []
            self._v[v] = n
            self.stamps.of[v] += 1
        return n

    @staticmethod
    def _walk_root(x: _Node) -> int:
        """Root of the tree whose root path x's splay tree holds."""
        return _wfirst(x).vid

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
        if self._parity:
            # nu still tops its own root path, which its edge count spans,
            # and so does nv: u's old tree hangs at depth(v) + 1 from u,
            # so its depths move by the parity of depth(u) + depth(v) + 1
            g = nu.group
            walked = g is None
            if walked:
                # u's old tree is found by its root, which heads u's path
                g = self._tree.get(_wfirst(nu).vid)
                _wsplay(nu)
            if g is not None:
                self._hang(g, nv, walked, (nu.n_edges + nv.n_edges + 1) & 1)
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
        if not self._e:
            self.stamps.epoch += 1
        self._e[key] = e
        nu.nbrs.append(nv)
        nv.nbrs.append(nu)

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
        nc = self._v[child]
        _waccess(nc)
        # the child's depth parity: the edges of its root path
        pc = nc.n_edges & 1
        # the root path now ends [..., parent, e, child]; detach both sides
        _wsplay(e)
        above = e.left
        above.parent = None
        e.right.parent = None
        e.left = e.right = None
        del self._e[key]
        if not self._e:
            self.stamps.epoch += 1
        nu, nv = self._v[u], self._v[v]
        nu.nbrs.remove(nv)
        nv.nbrs.remove(nu)
        if self._parity:
            g = nu.group
            if g is None:
                g = nv.group
            if g is None:
                # the parent side's path still starts at the old root
                g = self._tree.get(_wfirst(above).vid)
            if g is not None:
                # the child heads its side, whose depths move by its old
                # parity; when u is the parent endpoint, the evert below
                # moves the parent side's depths by u's, the other parity
                g = self._split(g, nc, pc)
                if g is not None and child != u:
                    if not pc:
                        self._flip(g)
                    self._refile(g, u)
        # the parent side keeps the old root, the child side is headed by
        # the child
        if child != u:
            _wevert(nu)

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
            p = self._remember(nv, *self._read(nv))
        return p

    @staticmethod
    def _read(x: _Node):
        """(root, depth parity) of vertex node x, read afresh: the root
        tops x's root path, whose edges it counts."""
        r = _whead(x)
        return r.vid, r.n_edges & 1

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
    __slots__ = ("parent", "left", "right", "rev", "size", "vid", "group",
                 "nbrs")

    def __init__(self, vid):
        self.group = None   # memo group, see _ParityMemo
        self.nbrs = []      # neighbour vertices
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

    def __init__(self, stamps: ChangeStamps = None):
        super().__init__(stamps)
        self._v = {}
        self._e = {}      # edge key -> None, a set with a read-only view

    def _vnode(self, v: int) -> _Vertex:
        n = self._v.get(v)
        if n is None:
            n = self._v[v] = _Vertex(v)
            self.stamps.of[v] += 1
        return n

    @staticmethod
    def _walk_root(x: _Vertex) -> int:
        """Root of the tree whose root path x's splay tree holds."""
        return _first(x).vid

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
            g = x.group
            if g is None:
                g = self._tree.get(_first(x).vid)
                _splay(x)
            if g is not None:
                # every depth moves by r's old parity; x tops its root
                # path, depth(r) + 1 vertices
                if not x.size & 1:
                    self._flip(g)
                self._refile(g, r)
        x.rev = not x.rev

    def depth_parity(self, v: int, default=0):
        """Parity of the number of edges between v and its tree root;
        ``default`` for a vertex the forest has never seen."""
        p = self._parity.get(v)
        if p is None:
            x = self._v.get(v)
            if x is None:
                return default
            p = self._remember(x, *self._read(x))
        return p

    @staticmethod
    def _read(x: _Vertex):
        """(root, depth parity) of vertex x, read afresh: the root tops
        x's root path, whose vertices it counts."""
        _access(x)
        r = _first(x)
        return r.vid, (r.size - 1) & 1

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
            # nu and nv top their root paths, whose vertices they count:
            # u's old tree hangs at depth(v) + 1 from u, so its depths
            # move by the parity of depth(u) + depth(v) + 1
            g = nu.group
            walked = g is None
            if walked:
                g = self._tree.get(_first(nu).vid)
                _splay(nu)
            if g is not None:
                self._hang(g, nv, walked, (nu.size + nv.size - 1) & 1)
        if nu.left is not None:
            nu.rev = not nu.rev
        nu.parent = nv
        if not self._e:
            self.stamps.epoch += 1
        self._e[key] = None
        nu.nbrs.append(nv)
        nv.nbrs.append(nu)

    def cut(self, u: int, v: int) -> int:
        """Remove edge (u, v) without rerooting either side; returns the
        parent side's root, the root the tree had before the cut."""
        key = edge_key(u, v)
        if key not in self._e:
            raise MissingEdgeError(f"no edge {key}")
        del self._e[key]
        if not self._e:
            self.stamps.epoch += 1
        nu, nv = self._v[u], self._v[v]
        _access(nu)
        # u's depth parity: its root path holds its depth + 1 vertices
        pu = (nu.size - 1) & 1
        _splay(nv)
        if nv.parent is nu:
            # v is u's child and heads its own preferred path, hanging
            # from u by the path-parent pointer alone
            nv.parent = None
            above = nu
            child, pc = nv, pu ^ 1
        else:
            # v is u's parent: it now tops u's splay tree with u, the last
            # node of the root path, as its only right descendant
            nv.right = None
            nv.size -= 1
            nu.parent = None
            above = nv
            child, pc = nu, pu
        nu.nbrs.remove(nv)
        nv.nbrs.remove(nu)
        # the parent side's path still starts at the old root
        root = _first(above).vid
        if self._parity:
            g = self._tree.get(root)
            if g is not None:
                # the child heads its side, whose depths move by its old
                # parity; the parent side's depths stay
                self._split(g, child, pc)
        return root
