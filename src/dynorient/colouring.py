"""Implicit proper colouring read off a maintained decomposition.

No colour table is stored.  Each part of the decomposition colours its
own vertices (a forest by depth parity, a cycle-carrying layer by depth
parity plus one reserved colour for the vertex the cycle hangs off), and
a vertex's colour is the vector of those per-part colours packed into a
single integer in mixed radix.  When the structures underneath change,
every query after that reflects the new decomposition; nothing here is
ever written, only read.

A query is one flat pass with one forest call per tree factor, and it
mostly costs dict hits and arithmetic.  Whether a layer's tree factor is
active is the truth of a live view of that forest's edge keys, kept per
layer here, so the pass makes no call to learn it.  Each forest
underneath memoises the depth parities it was asked for, per tree, until
a link, cut or evert changes that tree.  The pooled cycle edges live in
plain sets, so their parities are found by a walk over a component and
cached here for every vertex of it; the decomposer bumps
``pool_version`` whenever its pooled incidence changes, and the cache
starts over.  The code is packed during the pass, so the answer skips
``ColourCode``'s digit check, which holds by construction.
"""

from .errors import ColourCodeError, ConfigurationError, VertexRangeError

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
    that holds the vertex, memo hits included, so the per-query cost
    stays inspectable and does not depend on what was asked before.
    """

    def __init__(self, decomp, mode=FOREST_MODE):
        if mode not in (FOREST_MODE, PSEUDOFOREST_MODE):
            raise ConfigurationError(f"unknown colouring mode {mode!r}")
        self.d = decomp
        self._mode = mode
        self.forest_queries = 0
        self._pool = {}             # vertex -> pooled-forest parity
        self._pool_version = None   # decomp.pool_version the cache is of
        # layer -> (forest, live view of its edge keys, designated tails);
        # layers are only ever appended, so the list only grows with them
        self._layers = []

    def mode(self):
        return self._mode

    def _layer_views(self):
        """Per-layer (forest, edge-key view, tails), caught up with any
        layers added since the last call.  A view's truth test says
        whether the layer's tree factor is active."""
        layers = self._layers
        d = self.d
        k = len(layers)
        if k != len(d.F):
            layers.extend((f, f.edge_keys(), tails)
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
        """Colour of vertex v.  One pass over the active factors in digit
        order (layers by index, then the pooled cycle edges, then H),
        packing the code as it goes; raises VertexRangeError for a v
        outside [0, n_cap) before any read.  A tree factor's one forest
        call reads None for a vertex the tree has never seen, which
        counts one read here, and a parity, which counts two."""
        d = self.d
        n = d.params.n_cap
        if not 0 <= v < n:
            raise VertexRangeError(f"vertex {v} outside [0, {n})")
        layers = self._layers
        if len(layers) != len(d.F):
            layers = self._layer_views()
        digits = []
        reads = 0
        code = 0
        scale = 1
        if self._mode == FOREST_MODE:
            for f, edges, _ in layers:
                if edges:
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
            for f, edges, tails in layers:
                if v in tails:
                    digits.append(2)
                    code += 2 * scale
                elif edges or tails:
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
            p = d.refine.H.depth_parity(v, None)
            if p is None:
                reads += 1
                digits.append(0)
            else:
                reads += 2
                digits.append(p)
                code += p * scale
        self.forest_queries += reads
        radices = (3,) * ternary + (2,) * (len(digits) - ternary)
        return _packed(tuple(digits), radices, code)

    def colour_count(self):
        """Product of the radices ``colour()`` uses: a factor counts
        while it holds at least one edge, so the product tracks the
        current decomposition, not a high water mark."""
        d = self.d
        layers = self._layer_views()
        if self._mode == FOREST_MODE:
            total = 2 ** (sum(1 for _, edges, _ in layers if edges)
                          + bool(d.incidence))
        else:
            total = 3 ** sum(1 for _, edges, tails in layers
                             if edges or tails)
        return 2 * total if d.refine.in_h else total
