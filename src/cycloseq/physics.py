"""Ring partition functions and memory-walk weight polynomials.

A ring of N two-state sites with nearest-neighbour coupling has energy
J(-N + 2 tau), tau being the number of antiparallel adjacent pairs, so the
Boltzmann sum factors through the exact jump counts.  The same counts split
a walk's binomial path count by the number of direction changes, which is
what a one-step memory weights.  Both weighted sums are one sum of
count * x^tau * y^(N - tau), taken in the log domain from the exact counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateFamily, InvalidDisplacement, within_double_range
from .tnumbers import t_distribution


def _weighted_sum(counts: dict[int, int], log_weight) -> float:
    """sum of count * exp(log_weight(tau)) over the (tau, count) pairs, in the log domain.

    math.log takes the exact counts at any size, and every term is scaled by
    the largest before the sum, so no term overflows or underflows on the
    way.  A total beyond the double range raises OverflowError.
    """
    logs = [math.log(count) + log_weight(tau) for tau, count in counts.items()]
    top = max(logs)
    total = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    if math.isinf(total):
        raise OverflowError("the weighted sum exceeds the double range")
    return total


def ising_partition_fixed(N: int, n: int, nu: float) -> float:
    """Boltzmann sum over the C(N, n) configurations with n down spins.

    nu is the dimensionless coupling J/kT; the weight of a configuration
    with tau antiparallel pairs is exp((N - 2 tau) nu).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    if n <= 0 or n >= N:
        raise DegenerateFamily(
            f"n = {n} leaves a single aligned configuration with Z = exp({N}*nu)"
        )
    return _weighted_sum(t_distribution(N - n, n).entries, lambda tau: (N - 2 * tau) * nu)


def ising_partition_total(N: int, nu: float) -> float:
    """Closed-form Boltzmann sum over all 2^N ring configurations."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    return within_double_range(
        lambda: (2 * math.cosh(nu)) ** N + (2 * math.sinh(nu)) ** N, f"Z at N = {N}, nu = {nu}"
    )


@dataclass(frozen=True)
class WalkPolynomial:
    """Path counts of fixed displacement, split by number of direction changes."""

    N: int
    k: int
    coefficients: dict[int, int]  # direction-change count -> path count

    def scalar(self, alpha: float) -> float:
        """Total memory weight: sum of count * alpha^changes * (1-alpha)^(N-changes).

        At alpha = 0 only the paths without a change survive, and at alpha = 1
        only those that change direction at every step.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if alpha in (0.0, 1.0):
            return float(self.coefficients.get(int(alpha) * self.N, 0))
        log_a, log_b = math.log(alpha), math.log1p(-alpha)
        return _weighted_sum(self.coefficients, lambda tau: tau * log_a + (self.N - tau) * log_b)


def walk_weight_polynomial(N: int, k: int) -> WalkPolynomial:
    """Split C(N, (N+k)/2) by cyclic direction changes of the step sequence.

    k is the net displacement of an N-step walk; it must share N's parity.
    The coefficients sum to the binomial path count.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if abs(k) > N or (N + k) % 2 != 0:
        raise InvalidDisplacement(f"displacement {k} unreachable in {N} steps")
    return WalkPolynomial(N, k, dict(t_distribution((N + k) // 2, (N - k) // 2).entries))


def walk_weight_total(N: int, k: int, alpha: float) -> float:
    """Convenience wrapper: the scalar weight at a given memory strength alpha."""
    return walk_weight_polynomial(N, k).scalar(alpha)
