"""Moment identities and asymptotic approximations.

The exact side works on the weighted binomial sums sum_h h^r C(m,h) C(n,h)
with plain integers; the approximate side evaluates the Stirling-number
expansion of the matching two-per-trial binomial model, plus the Gaussian
shapes for the jump distribution.  Formula evaluations are exact rationals
where the formula is rational; doubles appear only in the inherently
transcendental expressions.
"""

import math
from fractions import Fraction

from .errors import InvalidTau, within_double_range
from .exactmath import binomial, binomial_products, nondegenerate_family, stirling2


def moment_sum(m: int, n: int, r: int) -> int:
    """sum_h h^r C(m,h) C(n,h) over h = 0..min(m,n), added along the walk, no row kept."""
    if r < 0:  # binomial_products checks m and n
        raise ValueError("arguments must be nonnegative")
    return sum(h**r * p for h, p in enumerate(binomial_products(m, n)))


def moment_approx(m: int, n: int, r: int) -> Fraction:
    """Stirling-expansion approximation of the moment sum, as an exact rational.

    For r >= 1 the series is sum_l S(r-1, l) e_l over l = 0..r-1, walked
    from e_0 = (N-1)/(2mn) by e_{l+1} = e_l 2mn (N-l) / (N (N-1)); the
    l = 0 term is the whole series at r = 1 and vanishes beyond.  Exact for
    r <= 1 and, when m = n, for r <= 3; beyond that it is the binomial-model
    estimate.
    """
    N = nondegenerate_family(m, n).N
    if r < 0:
        raise ValueError("arguments must be nonnegative")
    if r == 0:
        return Fraction(binomial(N, m))
    prefactor = (
        Fraction(binomial(N, min(m, n)))
        * Fraction(m * m * n * n)
        / (Fraction(2) ** (r - 2) * N * (N - 1))
    )
    series, term = Fraction(0), Fraction(N - 1, 2 * m * n)
    for l in range(r):
        series += stirling2(r - 1, l) * term
        term *= Fraction(2 * m * n * (N - l), N * (N - 1))
    return prefactor * series


def binomial_jump_pmf(m: int, n: int, tau: int) -> float:
    """Two-per-trial binomial estimate of the probability of exactly tau jumps."""
    N = nondegenerate_family(m, n).N
    if tau % 2 != 0 or tau < 0 or tau > N:
        raise InvalidTau(f"need even tau in 0..{N}, got {tau}")
    p = Fraction(2 * m * n, N * (N - 1))
    return float(2 * binomial(N, tau) * p**tau * (1 - p) ** (N - tau))


def stirling_binomial(m: int, h: int) -> float:
    """Gaussian estimate of C(m, h) from Stirling's formula."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return 2 ** (m + 1) * math.exp(-((2 * h - m) ** 2) / (2 * m)) / math.sqrt(2 * math.pi * m)


def t_asymptotic(m: int, n: int, tau: float) -> float:
    """Asymptotic jump count via the Gaussian shape with harmonic-mean width.

    mu solves 1/m + 1/n = 1/mu; the constant in the exponent is
    a = log 2 - 1/2 per step.
    """
    N = nondegenerate_family(m, n).N
    if tau < 0:
        raise InvalidTau(f"jump count must be >= 0, got {tau}")
    if tau == 0:
        return 0.0  # even where the Gaussian factor alone leaves the double range
    mu = m * n / N
    a = math.log(2.0) - 0.5
    return within_double_range(
        lambda: tau
        * math.exp(-tau * tau / (2 * mu) + 2 * tau + a * N)
        / (math.pi * mu**1.5 * math.sqrt(N)),
        f"the asymptotic jump count at ({m}, {n}, {tau})",
    )
