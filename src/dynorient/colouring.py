"""Implicit proper colouring read off a maintained decomposition.

No colour table is stored.  Each part of the decomposition colours its
own vertices (a forest by depth parity, a cycle-carrying layer by depth
parity plus one reserved colour for the vertex the cycle hangs off), and
a vertex's colour is the vector of those per-part colours packed into a
single integer in mixed radix.  When the structures underneath change,
every query after that reflects the new decomposition; nothing here is
ever written, only read.  The forests underneath memoise the depth
parities they were asked for until their next link, cut or evert, so
repeated queries between two updates mostly skip the splay work.
"""

from .errors import ConfigurationError, VertexRangeError

FOREST_MODE = "forest-decomposition"
PSEUDOFOREST_MODE = "pseudoforest"


class ColourCode:
    """A per-factor colour vector and its mixed-radix packing.

    digits[k] is the colour in factor k and lives in range(radices[k]).
    The packed integer weights earlier factors less: digit 0 is the
    least significant.
    """

    __slots__ = ("digits", "radices", "code")

    def __init__(self, digits, radices):
        assert len(digits) == len(radices)
        code = 0
        scale = 1
        for d, r in zip(digits, radices):
            assert 0 <= d < r, (d, r)
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

    def mode(self):
        return self._mode

    def _pool_parity(self, v):
        # The pooled cycle edges form a forest but live in plain sets,
        # not in a link/cut structure, so walk v's component and take
        # the parity of the distance to its smallest vertex.
        incidence = self.d.incidence
        dist = {v: 0}
        order = [v]
        for x in order:
            for a, b in incidence.get(x, ()):
                y = b if a == x else a
                if y not in dist:
                    dist[y] = dist[x] + 1
                    order.append(y)
        return dist[min(dist)] & 1

    # ------------------------------------------------------------------
    # queries

    def colour(self, v):
        """Colour of vertex v.  One pass over the active factors in digit
        order (layers by index, then the pooled cycle edges, then H);
        raises VertexRangeError for a v outside [0, n_cap) before any
        read."""
        d = self.d
        n = d.params.n_cap
        if not 0 <= v < n:
            raise VertexRangeError(f"vertex {v} outside [0, {n})")
        digits = []
        radices = []
        reads = 0
        if self._mode == FOREST_MODE:
            for f in d.F:
                if len(f):
                    reads += 1
                    if f.has_vertex(v):
                        reads += 1
                        digits.append(f.depth_parity(v))
                    else:
                        digits.append(0)
                    radices.append(2)
            if any(d.m_tail):
                digits.append(self._pool_parity(v))
                radices.append(2)
        else:
            for f, tails in zip(d.F, d.m_tail):
                if len(f) or tails:
                    if v in tails:
                        digits.append(2)
                    else:
                        reads += 1
                        if f.has_vertex(v):
                            reads += 1
                            digits.append(f.depth_parity(v))
                        else:
                            digits.append(0)
                    radices.append(3)
        if d.refine.in_h:
            h = d.refine.H
            reads += 1
            if h.has_vertex(v):
                reads += 1
                digits.append(h.depth_parity(v))
            else:
                digits.append(0)
            radices.append(2)
        self.forest_queries += reads
        return ColourCode(digits, radices)

    def colour_count(self):
        """Product of the radices ``colour()`` uses: a factor counts
        while it holds at least one edge, so the product tracks the
        current decomposition, not a high water mark."""
        d = self.d
        if self._mode == FOREST_MODE:
            total = 2 ** (sum(1 for f in d.F if len(f)) + any(d.m_tail))
        else:
            total = 3 ** sum(1 for f, tails in zip(d.F, d.m_tail)
                             if len(f) or tails)
        return 2 * total if d.refine.in_h else total
