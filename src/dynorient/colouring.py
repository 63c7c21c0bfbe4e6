"""Implicit proper colouring read off a maintained decomposition.

No colour table is stored.  Each part of the decomposition colours its
own vertices (a forest by depth parity, a cycle-carrying layer by depth
parity plus one reserved colour for the vertex the cycle hangs off), and
a vertex's colour is the vector of those per-part colours packed into a
single integer in mixed radix.  When the structures underneath change,
every query after that reflects the new decomposition; nothing here is
ever written, only read.
"""

from .errors import ConfigurationError

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
    engine; ``forest_queries`` counts the link/cut reads issued so the
    per-query cost stays inspectable.
    """

    def __init__(self, decomp, mode=FOREST_MODE):
        if mode not in (FOREST_MODE, PSEUDOFOREST_MODE):
            raise ConfigurationError(f"unknown colouring mode {mode!r}")
        self.d = decomp
        self._mode = mode
        self.forest_queries = 0

    def mode(self):
        return self._mode

    # ------------------------------------------------------------------
    # factors

    def _factors(self):
        """Active factors as (kind, layer) pairs, in digit order.

        Kinds: "F" one tree layer, "M" the pooled cycle edges, "P" one
        layer together with its cycle edge, "H" the ambiguous forest.
        A factor is active while it holds at least one edge, so the
        radix product tracks the current decomposition, not a high
        water mark.
        """
        d = self.d
        out = []
        if self._mode == FOREST_MODE:
            for i, f in enumerate(d.F):
                if len(f):
                    out.append(("F", i))
            if any(d.m_tail):
                out.append(("M", -1))
        else:
            for i, f in enumerate(d.F):
                if len(f) or d.m_tail[i]:
                    out.append(("P", i))
        if d.refine.in_h:
            out.append(("H", -1))
        return out

    def _parity(self, f, v):
        self.forest_queries += 1
        if not f.has_vertex(v):
            return 0
        self.forest_queries += 1
        return f.depth_parity(v)

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
        d = self.d
        digits = []
        radices = []
        for kind, i in self._factors():
            if kind == "F":
                digits.append(self._parity(d.F[i], v))
                radices.append(2)
            elif kind == "M":
                digits.append(self._pool_parity(v))
                radices.append(2)
            elif kind == "P":
                if v in d.m_tail[i]:
                    digits.append(2)
                else:
                    digits.append(self._parity(d.F[i], v))
                radices.append(3)
            else:
                digits.append(self._parity(d.refine.H, v))
                radices.append(2)
        return ColourCode(digits, radices)

    def colour_count(self):
        total = 1
        for kind, _ in self._factors():
            total *= 3 if kind == "P" else 2
        return total
