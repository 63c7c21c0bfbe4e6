"""Shared parameter block for the orientation engines.

All engine arithmetic is exact: an edge is a bundle of ``gamma`` unit copies
and every fractional quantity is an integer numerator with implicit
denominator ``gamma``.  The refinement thresholds are fixed at the paper's
delta = 2/gamma and mu = 1/gamma, so their numerators are the constants
``DELTA_NUM`` and ``MU_NUM``; the refinement engine needs gamma above
``DELTA_NUM``.  ``epsilon`` never enters engine arithmetic; it only
parameterizes reported load/out-degree bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

from .errors import ConfigurationError, check_size

DELTA_NUM = 2
MU_NUM = 1


@dataclass(frozen=True)
class Params:
    n_cap: int
    gamma: int
    epsilon: float = 1.0

    def __post_init__(self):
        check_size("n_cap", self.n_cap)
        check_size("gamma", self.gamma)
        # a bool is the int it is, as in check_size; nan and inf fail the
        # chained comparison
        eps = self.epsilon
        if not (isinstance(eps, Real) and 0 < eps < float("inf")):
            raise ConfigurationError(
                f"epsilon must be a finite real above 0, got {eps!r}")

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
