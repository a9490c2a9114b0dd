"""Moment identities and asymptotic approximations.

The exact side works on the weighted binomial sums sum_h h^r C(m,h) C(n,h)
with plain integers; the approximate side evaluates the Stirling-number
expansion of the matching two-per-trial binomial model, plus the Gaussian
shapes for the jump distribution.  Formula evaluations are exact rationals
where the formula is rational; doubles appear only in the inherently
transcendental expressions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateFamily, InvalidTau, within_double_range
from .exactmath import binomial, binomial_products, falling_factorial, stirling2


def moment_sum(m: int, n: int, r: int) -> int:
    """sum_h h^r C(m,h) C(n,h) over h = 0..min(m,n), summed along the row of products."""
    if m < 0 or n < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    return sum(h**r * p for h, p in enumerate(binomial_products(m, n)))


# one exact route at every order; the low-order closed forms check it in the tests
moment_exact = moment_sum


def _expansion_coefficient(m: int, n: int, l: int) -> Fraction:
    """Coefficient multiplying S(r-1, l) in the moment expansion; the l = 1 value is 1."""
    if l == 1:
        return Fraction(1)
    N = m + n
    return (
        Fraction(2 * m * n, N) ** (l - 1)
        * falling_factorial(N - 2, l - 2)
        / Fraction(N - 1) ** (l - 2)
    )


def moment_approx(m: int, n: int, r: int) -> Fraction:
    """Stirling-expansion approximation of the moment sum, as an exact rational.

    Exact for r <= 1 and, when m = n, for r <= 3; beyond that it is the
    binomial-model estimate.  The Stirling support bounds the expansion index
    at r - 1.
    """
    if m < 1 or n < 1 or r < 0:
        raise ValueError("need m, n >= 1 and r >= 0")
    N = m + n
    if r == 0:
        return Fraction(binomial(N, m))
    if r == 1:
        return Fraction(m * n, N) * binomial(N, m)
    prefactor = (
        Fraction(binomial(N, min(m, n)))
        * Fraction(m * m * n * n)
        / (Fraction(2) ** (r - 2) * N * (N - 1))
    )
    series = sum(
        (stirling2(r - 1, l) * _expansion_coefficient(m, n, l) for l in range(1, r)),
        start=Fraction(0),
    )
    return prefactor * series


def binomial_jump_pmf(m: int, n: int, tau: int) -> float:
    """Two-per-trial binomial estimate of the probability of exactly tau jumps."""
    if m < 1 or n < 1:
        raise DegenerateFamily("jump probabilities need both digits present")
    N = m + n
    if tau % 2 != 0 or tau < 0 or tau > N:
        raise InvalidTau(f"need even tau in 0..{N}, got {tau}")
    p = Fraction(2 * m * n, N * (N - 1))
    return float(2 * binomial(N, tau) * p**tau * (1 - p) ** (N - tau))


def stirling_binomial(m: int, h: int) -> float:
    """Gaussian estimate of C(m, h) from Stirling's formula."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return 2 ** (m + 1) * math.exp(-((2 * h - m) ** 2) / (2 * m)) / math.sqrt(2 * math.pi * m)


def wallis_pi(N: int) -> float:
    """The even-product approximation of pi hidden in the central binomial.

    Decreases to pi as N grows; consecutive terms obey
    value(N + 2) = value(N) * N (N + 2) / (N + 1)^2.
    """
    if N < 2 or N % 2 != 0:
        raise ValueError(f"need even N >= 2, got {N}")
    # square first and stay rational, so large N cannot overflow the floats
    return float(Fraction(4 ** (N + 1), 2 * N * binomial(N, N // 2) ** 2))


def t_asymptotic(m: int, n: int, tau: float) -> float:
    """Asymptotic jump count via the Gaussian shape with harmonic-mean width.

    mu solves 1/m + 1/n = 1/mu; the constant in the exponent is
    a = log 2 - 1/2 per step.
    """
    if m < 1 or n < 1:
        raise DegenerateFamily("asymptotic form needs both digits present")
    if tau < 0:
        raise InvalidTau(f"jump count must be >= 0, got {tau}")
    if tau == 0:
        return 0.0  # even where the Gaussian factor alone leaves the double range
    N = m + n
    mu = m * n / N
    a = math.log(2.0) - 0.5
    return within_double_range(
        lambda: tau
        * math.exp(-tau * tau / (2 * mu) + 2 * tau + a * N)
        / (math.pi * mu**1.5 * math.sqrt(N)),
        f"the asymptotic jump count at ({m}, {n}, {tau})",
    )


def allwords_jump_gaussian(N: int, tau: float) -> float:
    """Gaussian estimate of the all-words jump count 2 C(N, tau)."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    return (2 ** (N + 2) / math.sqrt(2 * math.pi * N)) * math.exp(
        -((2 * tau - N) ** 2) / (2 * N)
    )
