import math
from fractions import Fraction

import pytest

from cycloseq.analytics import (
    binomial_jump_pmf,
    moment_approx,
    moment_sum,
    stirling_binomial,
    t_asymptotic,
)
from cycloseq.errors import DegenerateFamily, InvalidTau
from cycloseq.exactmath import binomial
from cycloseq.reference_tables import (
    ASYMPTOTIC_ROW_COMPUTED,
    BINOMIAL_ROW_COMPUTED,
)
from references import moment_by_stirling, moment_expansion


def test_moment_examples():
    assert moment_sum(3, 3, 1) == 30
    assert moment_sum(2, 2, 2) == 8
    assert moment_sum(4, 2, 3) == 56


@pytest.mark.parametrize("m", range(1, 11))
def test_even_and_odd_closed_forms(m):
    assert moment_sum(m, m, 2) * 2 * (2 * m - 1) == m**3 * binomial(2 * m, m)
    assert moment_sum(m, m, 3) * 4 * (2 * m - 1) == m**3 * (m + 1) * binomial(2 * m, m)


def _low_order_closed_form(m, n, r):
    """Vandermonde at r = 0 and its derivatives at r = 1, 2, written out for the walk to meet."""
    N = m + n
    if r == 0:
        return math.comb(N, m)
    if r == 1:
        return n * math.comb(N - 1, m - 1) if m >= 1 else 0
    return m * n * math.comb(N - 2, m - 1) if min(m, n) >= 1 else 0


@pytest.mark.parametrize("m", range(31))
def test_closed_forms_match_summation(m):
    for n in range(31):
        for r in range(3):
            assert moment_sum(m, n, r) == _low_order_closed_form(m, n, r), (n, r)
    # the odd order has a closed form only on the diagonal
    assert moment_sum(m, m, 3) * 4 * (2 * m - 1) == m**3 * (m + 1) * math.comb(2 * m, m)


@pytest.mark.parametrize("r", range(13))
def test_moment_sum_equals_the_fresh_binomial_sum(r):
    for m in range(13):
        for n in range(13):
            direct = sum(h**r * math.comb(m, h) * math.comb(n, h) for h in range(min(m, n) + 1))
            assert moment_sum(m, n, r) == direct, (m, n)


def test_closed_forms_match_the_row_sum_at_scale():
    for r in range(3):
        assert moment_sum(1500, 1450, r) == _low_order_closed_form(1500, 1450, r)
    m = 1500
    assert moment_sum(m, m, 3) * 4 * (2 * m - 1) == m**3 * (m + 1) * math.comb(2 * m, m)


def test_moment_sum_equals_the_stirling_identity():
    # every order on small families, the constant ones and (0, 0) among them
    for m in range(9):
        for n in range(9):
            for r in range(12):
                assert moment_sum(m, n, r) == moment_by_stirling(m, n, r), (m, n, r)


@pytest.mark.parametrize("m, n, r", [(1500, 1600, 40), (5000, 5000, 20)])
def test_moment_sum_equals_the_stirling_identity_at_scale(m, n, r):
    assert moment_sum(m, n, r) == moment_by_stirling(m, n, r)


@pytest.mark.parametrize("m", range(1, 13))
def test_moment_approx_equals_the_term_by_term_expansion(m):
    for n in range(1, 13):
        for r in range(31):
            assert moment_approx(m, n, r) == moment_expansion(m, n, r), (n, r)


@pytest.mark.parametrize("m, n, r", [(200, 250, 450), (1500, 1600, 40)])
def test_moment_approx_equals_the_term_by_term_expansion_at_scale(m, n, r):
    assert moment_approx(m, n, r) == moment_expansion(m, n, r)


def test_approx_is_exact_at_low_order():
    for m in range(1, 9):
        assert moment_approx(m, m, 0) == moment_sum(m, m, 0)
        assert moment_approx(m, m, 1) == moment_sum(m, m, 1)
        assert moment_approx(m, m, 2) == moment_sum(m, m, 2)
        assert moment_approx(m, m, 3) == moment_sum(m, m, 3)


def test_quoted_approximation_pairs():
    c4 = binomial(4, 2)
    assert Fraction(moment_sum(2, 2, 4), c4) == Fraction(30, 9)
    assert moment_approx(2, 2, 4) / c4 == Fraction(29, 9)

    c20 = binomial(20, 10)
    assert round(moment_sum(10, 10, 4) / c20, 2) == 827.40
    assert round(float(moment_approx(10, 10, 4) / c20), 2) == 827.22

    assert round(moment_sum(10, 10, 5) / c20, 2) == 4895.51
    # the printed companion value 4891.65 is a cataloged slip
    # (MOMENT_PAIRS_BAD_CELLS; verify ledger item moment-approx-pairs):
    # the expansion is exactly 67103875/13718 = 4891.6661
    assert round(float(moment_approx(10, 10, 5) / c20), 2) == 4891.67

    assert moment_sum(4, 2, 3) == 56
    assert round(float(moment_approx(4, 2, 3)), 2) == 58.67

    c30 = binomial(30, 15)
    assert round(moment_sum(15, 15, 4) / c30, 2) == 3829.74
    assert round(float(moment_approx(15, 15, 4) / c30), 2) == 3829.48

    # the early quoted pair 11.70 / 11.61 lives at m = 3, order 4
    assert round(moment_sum(3, 3, 4) / binomial(6, 3), 2) == 11.70
    assert round(float(moment_approx(3, 3, 4) / binomial(6, 3)), 2) == 11.61


def test_binomial_jump_row():
    scale = binomial(10, 5)
    for tau, expected in BINOMIAL_ROW_COMPUTED.items():
        assert binomial_jump_pmf(5, 5, tau) * scale == pytest.approx(expected, abs=1e-9)
    with pytest.raises(InvalidTau):
        binomial_jump_pmf(5, 5, 3)


def test_binomial_jump_sums_to_one_ish():
    total = sum(binomial_jump_pmf(5, 5, tau) for tau in range(0, 11, 2))
    assert total == pytest.approx(1.0, abs=2e-3)


def test_asymptotic_row():
    for tau, expected in ASYMPTOTIC_ROW_COMPUTED.items():
        assert t_asymptotic(5, 5, tau) == pytest.approx(expected, rel=1e-12)


def test_asymptotic_shares_factor_at_4_and_6():
    # equal exponents force the 2:3 ratio between these two entries
    assert 3 * t_asymptotic(5, 5, 4) == pytest.approx(2 * t_asymptotic(5, 5, 6), rel=1e-12)


def test_stirling_binomial():
    assert stirling_binomial(10, 3) == pytest.approx(116.1, abs=0.05)
    worst = max(
        abs(stirling_binomial(m, m // 2) / binomial(m, m // 2) - 1)
        for m in range(10, 41, 2)
    )
    assert worst < 0.026  # attained at m = 10; drops below 2% from m = 14 on
    assert all(
        abs(stirling_binomial(m, m // 2) / binomial(m, m // 2) - 1) < 0.02
        for m in range(14, 41, 2)
    )


@pytest.mark.parametrize("function, args, error", [
    (moment_sum, (-1, 3, 2), ValueError),
    (moment_sum, (3, 3, -1), ValueError),
    (moment_approx, (0, 3, 2), DegenerateFamily),
    (moment_approx, (3, 3, -1), ValueError),
    (binomial_jump_pmf, (0, 3, 2), DegenerateFamily),
    (binomial_jump_pmf, (3, 3, 3), InvalidTau),
    (binomial_jump_pmf, (3, 3, 8), InvalidTau),
    (stirling_binomial, (0, 0), ValueError),
    (binomial_jump_pmf, (3, 3, -2), InvalidTau),
    (moment_sum, (3, -1, 2), ValueError),
    (t_asymptotic, (3, 0, 2), DegenerateFamily),
    (t_asymptotic, (3, 3, -1), InvalidTau),
    (t_asymptotic, (3, -1, 2), ValueError),
    (moment_approx, (-1, 3, 2), ValueError),
    (binomial_jump_pmf, (-1, 3, 2), ValueError),
    (t_asymptotic, (-1, 3, 2), ValueError),
])
def test_arguments_outside_the_domain_are_refused(function, args, error):
    with pytest.raises(error) as exc:
        function(*args)
    assert exc.type is error
