"""Correctness checks run after each measured window, and the state hash.

Every check raises ``CheckFailed`` (or lets the engine's own
``AssertionError``/``DynOrientError`` escape) on a violation; the caller
turns any of them into a failed window.  The state hash uses the same
basis as ``dynorient run``, so the two can be compared on one trace.
"""

import hashlib

from dynorient.acyclic import BFOrienter
from dynorient.oracles import exact_arboricity, is_forest, is_proper


class CheckFailed(AssertionError):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def state_hash(engine, n):
    """Digest of the semantic end state, as ``dynorient run`` reports it."""
    if isinstance(engine, BFOrienter):
        basis = tuple(tuple(engine.bf_out_edges(v)) for v in range(n))
    else:
        g = engine.g
        basis = (
            tuple((k, g.counts(*k)) for k in sorted(g.bundles)),
            tuple(g.loads),
            tuple(sorted(engine.refine.in_h)),
            tuple(sorted(engine.placed.items())),
            tuple(tuple(sorted(ms)) for ms in engine.m),
        )
    return hashlib.sha256(repr(basis).encode()).hexdigest()


def _partition_covers(parts, live, what):
    """Every part is a forest and the parts tile ``live`` exactly."""
    seen = set()
    for i, part in enumerate(parts):
        _require(is_forest(part), f"{what} part {i} is not a forest")
        for k in part:
            _require(k not in seen, f"{what}: edge {k} in two parts")
            seen.add(k)
    missing = live - seen
    extra = seen - live
    _require(not missing and not extra,
             f"{what}: {len(missing)} live edges uncovered, "
             f"{len(extra)} dead edges reported")


def check_decomposer(d, live, blocks=None, colourings=()):
    """``d.verify()``, forest parts tiling the live mirror, the part-count
    bound when per-block edges are given, and proper colourings."""
    d.verify()
    parts = d.forests()
    _partition_covers(parts, live, "forests()")
    if blocks is not None:
        alpha = max((exact_arboricity(es) for es in blocks if es), default=0)
        cap = int((1 + d.params.epsilon) * alpha) + 2
        _require(len(parts) <= cap,
                 f"{len(parts)} forests exceed (1+eps)*alpha+2 = {cap}")
    for pc in colourings:
        _require(is_proper(live, lambda v, pc=pc: pc.colour(v).code),
                 f"{pc.mode()} colouring is not proper")


def check_bf(b, live):
    """``b.verify()`` and the out-list slices tiling the live mirror."""
    b.verify()
    _partition_covers(b.partitions(), live, "partitions()")
