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

import math
from dataclasses import dataclass

from .errors import ConfigurationError

DELTA_NUM = 2
MU_NUM = 1


@dataclass(frozen=True)
class Params:
    n_cap: int
    gamma: int
    epsilon: float = 1.0

    def __post_init__(self):
        if self.n_cap < 1:
            raise ConfigurationError(f"n_cap must be >= 1, got {self.n_cap}")
        if self.gamma < 1:
            raise ConfigurationError(f"gamma must be >= 1, got {self.gamma}")
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def recommended(cls, n_cap: int, epsilon: float = 1.0,
                    gamma_cap: int = 64) -> "Params":
        """Derive gamma from n and epsilon.

        The asymptotic recipe is eps' = epsilon/20, gamma = ceil(log2 n / eps'^2),
        delta = 2/gamma, mu = 1/gamma.  That gamma is enormous for desk-scale n,
        so it is capped at ``gamma_cap``; every admissible gamma keeps the
        maintained invariants, only the advertised bound degrades.
        """
        eps_prime = epsilon / 20.0
        raw = math.ceil(math.log2(max(2, n_cap)) / (eps_prime * eps_prime))
        gamma = max(4, min(gamma_cap, raw))
        return cls(n_cap=n_cap, gamma=gamma, epsilon=epsilon)

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
