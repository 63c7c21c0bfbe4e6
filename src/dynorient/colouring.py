"""Implicit proper colouring read off a maintained decomposition.

No colour table is kept.  Each part of the decomposition colours its own
vertices (a forest by depth parity, a cycle-carrying layer by depth
parity plus one reserved colour for the vertex the cycle hangs off), and
a vertex's colour is the vector of those per-part colours packed into a
single integer in mixed radix.  When the structures underneath change,
every query after that reflects the new decomposition; a query never
writes to them.

Each colouring memoises its last answer per vertex, with the vertex's
change stamp and the epoch it was made under (``forest.ChangeStamps``,
owned by the decomposer).  A hit is one dict lookup and two int
compares.  The stamps are exact because every input of an answer bumps
one of them when it changes:

* a forest bumps a vertex's stamp when a link, cut or evert flips or
  drops that vertex's memoised depth parity, and when it first makes a
  node for the vertex; a colour memoised for v read v's parity in every
  active tree factor, so each of them has an entry for v, and a write
  that keeps the entry as it was leaves v's colour as it was;
* a forest bumps the epoch when its edge set turns empty or non-empty,
  and the decomposer does when the pooled cycle edges do;
* the decomposer bumps every vertex of a pooled component that an edge
  joins or leaves (its tail among them) and both ends of an inverted
  cycle's designated edge, whose reserved digit moves.

A miss is the pass an unmemoised query makes: one flat pass with one
forest read per tree factor, tried on the forest's parity memo first,
so a miss is amortised O(alpha log n), as splay accesses are; since the
forests re-file their entries instead of dropping them, most factors
answer from the memo with no access.  ``passes`` counts the misses.
Whether a layer's tree factor is active is the truth of a live view of
that forest's edge keys.
The pooled cycle edges live in plain sets, so their parities are found
by a walk over a component and cached here for every vertex of it until
the decomposer's ``pool_version`` moves.  The code is packed during the
pass, so the answer skips ``ColourCode``'s digit check, which holds by
construction.
"""

from .errors import (ColourCodeError, ConfigurationError, VertexRangeError,
                     check_vertex)

FOREST_MODE = "forest-decomposition"
PSEUDOFOREST_MODE = "pseudoforest"


class ColourCode:
    """A per-factor colour vector and its mixed-radix packing.

    digits[k] is the colour in factor k and lives in range(radices[k]).
    The packed integer weights earlier factors less: digit 0 is the
    least significant.  A digit outside its radix, or a length mismatch,
    raises ColourCodeError.
    """

    __slots__ = ("digits", "radices", "code")

    def __init__(self, digits, radices):
        if len(digits) != len(radices):
            raise ColourCodeError(
                f"{len(digits)} digits for {len(radices)} radices")
        code = 0
        scale = 1
        for d, r in zip(digits, radices):
            if not 0 <= d < r:
                raise ColourCodeError(f"digit {d} outside range({r})")
            code += d * scale
            scale *= r
        self.digits = tuple(digits)
        self.radices = tuple(radices)
        self.code = code

    def __int__(self):
        return self.code

    def __eq__(self, other):
        if not isinstance(other, ColourCode):
            return NotImplemented
        return self.radices == other.radices and self.digits == other.digits

    def __hash__(self):
        return hash((self.radices, self.digits))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ColourCode(digits={list(self.digits)}, code={self.code})"


def _packed(digits, radices, code):
    """A ColourCode from tuples whose digits fit their radices and whose
    packing is ``code``, made without the check; only ``colour()``, which
    builds all three in one pass, calls it."""
    c = object.__new__(ColourCode)
    c.digits = digits
    c.radices = radices
    c.code = code
    return c


class ProductColouring:
    """Answer per-vertex colour queries over an ArboricityDecomposer.

    Two strategies share the machinery:

    * forest mode takes the decomposition exactly as ``forests()``
      reports it and spends one radix-2 factor per part, coloured by
      depth parity;
    * pseudoforest mode keeps each layer's cycle edge with its layer,
      making the layer one radix-3 factor whose reserved third colour
      goes to the vertex the cycle edge is designated to, and appends
      the ambiguous-count forest as a final radix-2 factor.

    Factors are ordered by layer index with the ambiguous forest last,
    so codes are stable between updates.  Queries never mutate the
    engine; ``forest_queries`` counts the link/cut reads requested, one
    membership test per tree factor plus one depth-parity read per tree
    that holds the vertex, memo hits included: a memoised answer
    charges the reads of the pass that made it, so the per-query cost
    stays inspectable and does not depend on what was asked before.
    """

    def __init__(self, decomp, mode=FOREST_MODE):
        if mode not in (FOREST_MODE, PSEUDOFOREST_MODE):
            raise ConfigurationError(f"unknown colouring mode {mode!r}")
        self.d = decomp
        self._mode = mode
        self.forest_queries = 0
        self.passes = 0             # misses: the passes made, one per miss
        self._pool = {}             # vertex -> pooled-forest parity
        self._pool_version = None   # decomp.pool_version the cache is of
        # layer -> (memo get, forest, live view of its edge keys,
        # designated tails); layers are only ever appended, so the list
        # only grows with them
        self._layers = []
        # vertex -> (code, its change stamp, the epoch, reads) as of the
        # pass that made the code
        self._memo = {}
        self._stamps = decomp.stamps
        self._stamp_of = decomp.stamps.of

    def mode(self):
        return self._mode

    def _layer_views(self):
        """Per-layer (memo get, forest, edge-key view, tails), caught up
        with any layers added since the last call.  A view's truth test
        says whether the layer's tree factor is active."""
        layers = self._layers
        d = self.d
        k = len(layers)
        if k != len(d.F):
            layers.extend((f.memo_get, f, f.edge_keys(), tails)
                          for f, tails in zip(d.F[k:], d.m_tail[k:]))
        return layers

    def _pool_parity(self, v):
        """Parity of v's distance to the smallest vertex of its pooled
        component, from the cache when the pool has not changed since."""
        d = self.d
        pool = self._pool
        if self._pool_version != d.pool_version:
            pool.clear()
            self._pool_version = d.pool_version
        p = pool.get(v)
        if p is None:
            # The pooled cycle edges form a forest but live in plain
            # sets, not in a link/cut structure: walk v's component once
            # and file the parity of every vertex in it.  In a forest two
            # distances from v have the parity of the path between their
            # ends, so each vertex's parity is its distance from v plus
            # the smallest vertex's.
            incidence = d.incidence
            dist = {v: 0}
            order = [v]
            for x in order:
                for a, b in incidence.get(x, ()):
                    y = b if a == x else a
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        order.append(y)
            base = dist[min(dist)]
            for x, k in dist.items():
                pool[x] = (k + base) & 1
            p = pool[v]
        return p

    # ------------------------------------------------------------------
    # queries

    def colour(self, v):
        """Colour of vertex v: the memoised code while v's change stamp
        and the epoch are those it was made under, else a fresh pass.
        Raises VertexRangeError for a v that is not an int in [0, n_cap)
        before any read: only such vertices are ever memoised.  A
        ``bool`` is an int, so ``True`` is vertex 1.  A float equal to a
        memoised vertex finds its entry, and then the stamp list refuses
        it as an index."""
        try:
            m = self._memo.get(v)
            if (m is not None and m[1] == self._stamp_of[v]
                    and m[2] == self._stamps.epoch):
                self.forest_queries += m[3]
                return m[0]
        except TypeError:
            raise VertexRangeError(f"vertex {v!r} is not an int") from None
        return self._pass(v)

    def _pass(self, v):
        """One pass over the active factors in digit order (layers by
        index, then the pooled cycle edges, then H), packing the code as
        it goes, and memoised for v.  A tree factor's one forest read
        answers from the forest's memo, or from ``depth_parity``; it
        reads None for a vertex the tree has never seen, which counts
        one read here, and a parity, which counts two."""
        d = self.d
        check_vertex(v, d.params.n_cap)
        self.passes += 1
        layers = self._layers
        if len(layers) != len(d.F):
            layers = self._layer_views()
        digits = []
        reads = 0
        code = 0
        scale = 1
        if self._mode == FOREST_MODE:
            for get, f, edges, _ in layers:
                if edges:
                    p = get(v)
                    if p is None:
                        p = f.depth_parity(v, None)
                    if p is None:
                        reads += 1
                        digits.append(0)
                    else:
                        reads += 2
                        digits.append(p)
                        code += p * scale
                    scale *= 2
            if d.incidence:
                p = self._pool_parity(v)
                digits.append(p)
                code += p * scale
                scale *= 2
            ternary = 0
        else:
            for get, f, edges, tails in layers:
                if v in tails:
                    digits.append(2)
                    code += 2 * scale
                elif edges or tails:
                    p = get(v)
                    if p is None:
                        p = f.depth_parity(v, None)
                    if p is None:
                        reads += 1
                        digits.append(0)
                    else:
                        reads += 2
                        digits.append(p)
                        code += p * scale
                else:
                    continue
                scale *= 3
            ternary = len(digits)
        if d.refine.in_h:
            h = d.refine.H
            p = h.memo_get(v)
            if p is None:
                p = h.depth_parity(v, None)
            if p is None:
                reads += 1
                digits.append(0)
            else:
                reads += 2
                digits.append(p)
                code += p * scale
        self.forest_queries += reads
        radices = (3,) * ternary + (2,) * (len(digits) - ternary)
        c = _packed(tuple(digits), radices, code)
        self._memo[v] = (c, self._stamp_of[v], self._stamps.epoch, reads)
        return c

    def colour_count(self):
        """Product of the radices ``colour()`` uses: a factor counts
        while it holds at least one edge, so the product tracks the
        current decomposition, not a high water mark."""
        d = self.d
        layers = self._layer_views()
        if self._mode == FOREST_MODE:
            total = 2 ** (sum(1 for _, _, edges, _ in layers if edges)
                          + bool(d.incidence))
        else:
            total = 3 ** sum(1 for _, _, edges, tails in layers
                             if edges or tails)
        return 2 * total if d.refine.in_h else total
