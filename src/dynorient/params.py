"""Shared parameter block for the orientation engines.

All engine arithmetic is exact: an edge is a bundle of ``gamma`` unit copies
and every fractional quantity is an integer numerator with implicit
denominator ``gamma``.  The refinement thresholds are fixed at the paper's
delta = 2/gamma and mu = 1/gamma, so their numerators are the constants
``DELTA_NUM`` and ``MU_NUM``; the refinement engine needs gamma above
``DELTA_NUM``.  ``epsilon`` never enters engine arithmetic; it only
parameterizes the reported bound ``forest_cap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

from .errors import ConfigurationError, check_size

DELTA_NUM = 2
MU_NUM = 1

_INF = float("inf")


def check_epsilon(epsilon, n_cap):
    """Raise ``ConfigurationError`` unless epsilon is a finite real above
    0 and (1 + epsilon) * n_cap is finite, so that ``forest_cap`` is an
    int for every arboricity of an n_cap-vertex graph.  A bool is the int
    it is, as in ``check_size``; nan and inf fail the chained comparison,
    and comparing with inf converts no int or fraction to a float."""
    if not (isinstance(epsilon, Real) and 0 < epsilon < _INF):
        raise ConfigurationError(
            f"epsilon must be a finite real above 0, got {epsilon!r}")
    if not (1 + epsilon) * n_cap < _INF:
        raise ConfigurationError(
            f"epsilon {epsilon!r} makes (1 + epsilon) * {n_cap} overflow")


@dataclass(frozen=True)
class Params:
    n_cap: int
    gamma: int
    epsilon: float = 1.0

    def __post_init__(self):
        check_size("n_cap", self.n_cap)
        check_size("gamma", self.gamma)
        check_epsilon(self.epsilon, self.n_cap)

    def forest_cap(self, alpha) -> int:
        """floor((1 + epsilon) * alpha) + 2: the paper's bound on both the
        forest count and the rounded out-degree at arboricity alpha."""
        return int((1 + self.epsilon) * alpha) + 2

    # -- derived integer thresholds ------------------------------------

    @property
    def low_cut(self) -> int:
        """delta * gamma: counts at or below this are outside the open interval."""
        return DELTA_NUM

    @property
    def high_cut(self) -> int:
        """(1 - delta) * gamma."""
        return self.gamma - DELTA_NUM

    @property
    def low_boundary(self) -> int:
        """(delta - mu) * gamma: minimum count of a refinement-resident edge."""
        return DELTA_NUM - MU_NUM

    @property
    def high_boundary(self) -> int:
        """(1 - delta + mu) * gamma."""
        return self.gamma - DELTA_NUM + MU_NUM

    def in_open_interval(self, count: int) -> bool:
        return self.low_cut < count < self.high_cut

    def in_closed_interval(self, count: int) -> bool:
        return self.low_boundary <= count <= self.high_boundary
