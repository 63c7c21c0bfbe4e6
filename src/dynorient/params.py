"""Shared parameter block for the orientation engines.

All engine arithmetic is exact: an edge is a bundle of ``gamma`` unit copies
and every fractional quantity is an integer numerator with implicit
denominator ``gamma``.  ``delta_num`` and ``mu_num`` are the numerators of the
refinement thresholds delta and mu.  ``epsilon`` never enters engine
arithmetic; it only parameterizes reported load/out-degree bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class Params:
    n_cap: int
    gamma: int
    delta_num: int | None = 2
    mu_num: int | None = 1
    epsilon: float = 1.0

    def __post_init__(self):
        if self.n_cap < 1:
            raise ConfigurationError(f"n_cap must be >= 1, got {self.n_cap}")
        if self.gamma < 1:
            raise ConfigurationError(f"gamma must be >= 1, got {self.gamma}")
        if (self.delta_num is None) != (self.mu_num is None):
            raise ConfigurationError(
                "delta_num and mu_num must be given together or both omitted"
            )
        if self.delta_num is not None:
            if not (0 < self.mu_num < self.delta_num):
                raise ConfigurationError(
                    f"need 0 < mu_num < delta_num, got mu={self.mu_num} delta={self.delta_num}"
                )
            if self.delta_num < 2:
                raise ConfigurationError(f"delta_num must be >= 2, got {self.delta_num}")
            if self.gamma <= self.delta_num:
                raise ConfigurationError(
                    f"gamma must exceed delta_num, got gamma={self.gamma} delta={self.delta_num}"
                )
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def recommended(cls, n_cap: int, epsilon: float = 1.0,
                    gamma_cap: int = 64) -> "Params":
        """Derive (gamma, delta, mu) from n and epsilon.

        The asymptotic recipe is eps' = epsilon/20, gamma = ceil(log2 n / eps'^2),
        delta = 2/gamma, mu = 1/gamma.  That gamma is enormous for desk-scale n,
        so it is capped at ``gamma_cap``; every admissible (gamma, delta, mu)
        keeps the maintained invariants, only the advertised bound degrades.
        """
        eps_prime = epsilon / 20.0
        raw = math.ceil(math.log2(max(2, n_cap)) / (eps_prime * eps_prime))
        gamma = max(4, min(gamma_cap, raw))
        return cls(n_cap=n_cap, gamma=gamma, delta_num=2, mu_num=1,
                   epsilon=epsilon)

    # -- derived integer thresholds ------------------------------------

    @property
    def low_cut(self) -> int:
        """delta * gamma: counts at or below this are outside the open interval."""
        assert self.delta_num is not None, "refinement thresholds not configured"
        return self.delta_num

    @property
    def high_cut(self) -> int:
        """(1 - delta) * gamma."""
        return self.gamma - self.delta_num

    @property
    def low_boundary(self) -> int:
        """(delta - mu) * gamma: minimum count of a refinement-resident edge."""
        return self.delta_num - self.mu_num

    @property
    def high_boundary(self) -> int:
        """(1 - delta + mu) * gamma."""
        return self.gamma - self.delta_num + self.mu_num

    def in_open_interval(self, count: int) -> bool:
        return self.low_cut < count < self.high_cut

    def in_closed_interval(self, count: int) -> bool:
        return self.low_boundary <= count <= self.high_boundary
