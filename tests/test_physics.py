import itertools
import math

import mpmath
import pytest

from cycloseq import oracle
from cycloseq.errors import BeyondDoubleRange, DegenerateFamily, InvalidDisplacement
from cycloseq.exactmath import binomial
from cycloseq.physics import (
    ising_partition_fixed,
    ising_partition_total,
    walk_weight_polynomial,
)
from cycloseq.tnumbers import t_distribution
from references import sequences


def _boltzmann_sum_mp(N: int, nu, dps: int = 50):
    """High-precision Boltzmann sum over all 2^N ring configurations."""
    with mpmath.workdps(dps):
        nu = mpmath.mpf(nu)
        total = mpmath.mpf(0)
        for word in range(1 << N):
            tau = oracle.jump_count(word, N)
            total += mpmath.e ** ((N - 2 * tau) * nu)
        return total


def _boltzmann_sum_fixed_mp(N: int, n: int, nu, dps: int = 50):
    with mpmath.workdps(dps):
        nu = mpmath.mpf(nu)
        total = mpmath.mpf(0)
        for word in sequences(N - n, n):
            tau = oracle.jump_count(word, N)
            total += mpmath.e ** ((N - 2 * tau) * nu)
        return total


def test_fixed_small_shape():
    nu = 0.5
    z = ising_partition_fixed(4, 2, nu)
    assert z == pytest.approx(4 * math.exp(0) + 2 * math.exp(-4 * nu), rel=1e-14)


def test_fixed_at_zero_coupling_counts_configurations():
    for N in range(2, 10):
        for n in range(1, N):
            assert ising_partition_fixed(N, n, 0.0) == pytest.approx(binomial(N, n))


@pytest.mark.parametrize("N", range(2, 13))
@pytest.mark.parametrize("nu", [0.1, 0.5, 1.0])
def test_fixed_matches_enumeration(N, nu):
    for n in range(1, N):
        reference = float(_boltzmann_sum_fixed_mp(N, n, nu))
        assert ising_partition_fixed(N, n, nu) == pytest.approx(reference, rel=1e-12)


def test_fixed_degenerate():
    with pytest.raises(DegenerateFamily):
        ising_partition_fixed(6, 0, 0.3)
    with pytest.raises(DegenerateFamily):
        ising_partition_fixed(6, 6, 0.3)


@pytest.mark.parametrize("n", [-1, 7, 12])
def test_fixed_refuses_n_outside_the_ring(n):
    with pytest.raises(ValueError, match=rf"^n must lie in 0\.\.6, got {n}$"):
        ising_partition_fixed(6, n, 0.3)


@pytest.mark.parametrize("N", range(1, 13))
@pytest.mark.parametrize("nu", [0.1, 0.5, 1.0])
def test_total_matches_enumeration(N, nu):
    reference = float(_boltzmann_sum_mp(N, nu))
    assert ising_partition_total(N, nu) == pytest.approx(reference, rel=1e-12)


def test_total_at_zero_coupling():
    for N in range(1, 12):
        assert ising_partition_total(N, 0.0) == pytest.approx(2.0**N)


@pytest.mark.parametrize("N", range(2, 13))
@pytest.mark.parametrize("nu", [0.1, 0.5, 1.0])
def test_total_decomposes_into_fixed_parts(N, nu):
    parts = math.fsum(ising_partition_fixed(N, n, nu) for n in range(1, N))
    aligned = 2 * math.exp(N * nu)
    assert ising_partition_total(N, nu) == pytest.approx(parts + aligned, rel=1e-10)


@pytest.mark.parametrize("N", range(2, 13))
@pytest.mark.parametrize("nu", [0.1, 0.5, 1.0])
def test_cosh_only_deficit(N, nu):
    # the hyperbolic-cosine formula alone undercounts by exactly (2 sinh nu)^N
    with mpmath.workdps(60):
        z = _boltzmann_sum_mp(N, nu, dps=60)
        cosh_only = (2 * mpmath.cosh(mpmath.mpf(nu))) ** N
        deficit = z - cosh_only
        expected = (2 * mpmath.sinh(mpmath.mpf(nu))) ** N
        assert abs(deficit / expected - 1) < mpmath.mpf("1e-10")


def test_even_lower_bound():
    for N in range(2, 12, 2):
        for nu in (0.1, 0.7):
            assert ising_partition_total(N, nu) >= (2 * math.cosh(nu)) ** N


def test_walk_pairs():
    poly = walk_weight_polynomial(7, 1)
    assert poly.coefficients == {2: 7, 4: 21, 6: 7}
    assert sum(poly.coefficients.values()) == binomial(7, 4)


@pytest.mark.parametrize("N,k", [(4, 0), (5, 1), (6, 2), (7, 3), (8, 0)])
def test_walk_coefficients_sum_to_binomial(N, k):
    poly = walk_weight_polynomial(N, k)
    assert sum(poly.coefficients.values()) == binomial(N, (N + k) // 2)


def test_walk_neutral_memory_recovers_bernoulli():
    for N, k in [(6, 0), (7, 1), (9, 3)]:
        scalar = walk_weight_polynomial(N, k).scalar(0.5)
        assert scalar == pytest.approx(binomial(N, (N + k) // 2) * 0.5**N, rel=1e-12)


def test_walk_scalar_against_path_enumeration():
    alpha, beta = 0.3, 0.7
    total = 0.0
    for path in set(itertools.permutations("RRLL")):
        word = sum(1 << i for i, step in enumerate(path) if step == "R")
        tau = oracle.jump_count(word, 4)
        total += alpha**tau * beta ** (4 - tau)
    assert walk_weight_polynomial(4, 0).scalar(alpha) == pytest.approx(total, rel=1e-12)


def test_walk_parity_and_degenerate():
    with pytest.raises(InvalidDisplacement):
        walk_weight_polynomial(5, 2)
    with pytest.raises(InvalidDisplacement):
        walk_weight_polynomial(4, 6)
    poly = walk_weight_polynomial(5, 5)
    assert poly.coefficients == {0: 1}
    assert poly.scalar(0.25) == pytest.approx(0.75**5)


def _weighted_sum_mp(counts: dict[int, int], N: int, log_x, log_y, dps: int = 50):
    """sum of count * x^tau * y^(N - tau) in dps-digit arithmetic, from exact counts."""
    with mpmath.workdps(dps):
        return mpmath.fsum(
            mpmath.mpf(c) * mpmath.exp(t * log_x + (N - t) * log_y) for t, c in counts.items()
        )


@pytest.mark.parametrize("N, k, alpha", [
    (2000, 1740, 0.4),  # alpha^tau alone underflows the doubles
    (3000, 0, 0.5),  # the counts alone overflow them
    (4000, 2, 0.07),
    (3999, 999, 0.93),
    (61, 1, 0.3),
])
def test_walk_scalar_matches_50_digits_far_past_the_double_range_of_its_parts(N, k, alpha):
    poly = walk_weight_polynomial(N, k)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        want = _weighted_sum_mp(poly.coefficients, N, mpmath.log(a), mpmath.log(1 - a))
    assert poly.scalar(alpha) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("N, n, nu", [(4000, 847, -2.32), (2808, 553, -2.81), (3000, 653, -3.73)])
def test_fixed_matches_50_digits_at_large_N(N, n, nu):
    dist = t_distribution(N - n, n).entries
    want = _weighted_sum_mp(dist, N, -mpmath.mpf(nu), mpmath.mpf(nu))
    assert ising_partition_fixed(N, n, nu) == pytest.approx(float(want), rel=1e-12)


def test_walk_alpha_limits_and_range():
    poly = walk_weight_polynomial(8, 0)
    assert poly.scalar(0.0) == 0.0  # every closed walk changes direction
    assert poly.scalar(1.0) == 2.0  # the two alternating walks
    assert walk_weight_polynomial(5, 5).scalar(0.0) == 1.0
    assert walk_weight_polynomial(5, 5).scalar(1.0) == 0.0
    for alpha in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            poly.scalar(alpha)


def test_totals_beyond_the_double_range():
    # the fixed sum still raises OverflowError; the closed total is a domain error
    with pytest.raises(OverflowError):
        ising_partition_fixed(2000, 1000, 1.0)
    with pytest.raises(BeyondDoubleRange, match="exceeds the double range"):
        ising_partition_total(5000, 1.0)


@pytest.mark.parametrize("function, args, error", [
    (ising_partition_fixed, (0, 0, 0.5), ValueError),
    (ising_partition_total, (0, 0.5), ValueError),
    (walk_weight_polynomial, (0, 0), ValueError),
])
def test_an_empty_ring_is_refused(function, args, error):
    with pytest.raises(error, match="need N >= 1") as exc:
        function(*args)
    assert exc.type is error
