import pytest
from hypothesis import given, strategies as st

from cycloseq import oracle
from cycloseq.errors import DegenerateFamily, InvalidTau
from cycloseq.exactmath import binomial, exact_div, partition_count
from cycloseq.tnumbers import (
    jump_row,
    t_distribution,
    t_number,
    type_census,
)


def t_number_by_recurrence(m, n, tau):
    """Reference route for t_number at even tau >= 2: the ratio recurrence
    in tau, seeded at tau = 2."""
    if tau // 2 > min(m, n):
        return 0
    value = m + n  # tau = 2: the N rotations of 0..01..1
    t = 2
    while t < tau:
        value = exact_div(value * 4 * (m - t // 2) * (n - t // 2), t * (t + 2))
        t += 2
    return value


def test_point_values():
    assert t_number(3, 4, 2) == 7
    assert t_number(3, 4, 4) == 21
    assert t_number(5, 5, 6) == 120
    assert t_number(4, 4, 8) == 2
    assert t_number(3, 4, 8) == 0


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
def test_tau_two_counts_rotations(m, n):
    assert t_number(m, n, 2) == m + n


def test_distributions():
    assert t_distribution(3, 4).entries == {2: 7, 4: 21, 6: 7}
    assert t_distribution(5, 5).entries == {2: 10, 4: 80, 6: 120, 8: 40, 10: 2}
    assert t_distribution(1, 1).entries == {2: 2}


@pytest.mark.parametrize("m", range(1, 41))
def test_distribution_walk_equals_point_queries(m):
    for n in range(1, 41):
        assert t_distribution(m, n).entries == {
            2 * h: t_number(m, n, 2 * h) for h in range(1, min(m, n) + 1)
        }


@pytest.mark.parametrize("m, n", [(1, 3000), (3000, 7), (2000, 2100)])
def test_distribution_walk_equals_point_queries_at_scale(m, n):
    dist = t_distribution(m, n)
    assert dist.entries == {2 * h: t_number(m, n, 2 * h) for h in range(1, min(m, n) + 1)}


def test_distribution_row_sum_and_first_moment_at_5000():
    m = n = 5000
    N = m + n
    dist = t_distribution(m, n)
    assert dist.total == binomial(N, m)
    assert sum(tau * v for tau, v in dist.entries.items()) == 2 * N * binomial(N - 2, n - 1)


def test_jump_row_checks_the_family_before_it_walks():
    # the row is refused when it is made, and its cells come in increasing tau
    for m, n in ((0, 0), (-1, 3), (3, -1)):
        with pytest.raises(ValueError):
            jump_row(m, n)
    assert list(jump_row(3, 4)) == [(2, 7), (4, 21), (6, 7)]
    assert list(jump_row(0, 6)) == [(0, 1)]


def test_degenerate_family():
    assert t_distribution(0, 6).entries == {0: 1}
    assert t_distribution(6, 0).entries == {0: 1}
    with pytest.raises(DegenerateFamily):
        t_number(0, 6, 2)


def test_odd_tau_rejected():
    with pytest.raises(InvalidTau):
        t_number(3, 4, 3)


def test_recurrence_route():
    assert t_number_by_recurrence(5, 5, 4) == 80
    assert t_number_by_recurrence(3, 4, 8) == 0
    assert t_number_by_recurrence(4, 4, 8) == 2


@given(
    st.integers(min_value=1, max_value=13),
    st.integers(min_value=1, max_value=13),
    st.integers(min_value=1, max_value=13),
)
def test_routes_agree_and_symmetric(m, n, h):
    tau = 2 * h
    assert t_number(m, n, tau) == t_number_by_recurrence(m, n, tau)
    assert t_number(m, n, tau) == t_number(n, m, tau)


@pytest.mark.parametrize("N", range(2, 15))
def test_normalization_and_first_moment(N):
    for m in range(1, N):
        n = N - m
        dist = t_distribution(m, n)
        # normalization restates sum_h h C(m,h) C(n,h) = (mn/N) C(N,m)
        assert dist.total == binomial(N, m)
        raw = sum(h * binomial(m, h) * binomial(n, h) for h in range(min(m, n) + 1))
        assert raw * N == m * n * binomial(N, m)
        # the distribution's mean pair count carries one more power of h
        weighted = sum((tau // 2) * v for tau, v in dist.entries.items())
        assert weighted * (N - 1) == m * n * binomial(N, m)


@pytest.mark.parametrize("N", range(1, 15))
def test_all_words_row_sums(N):
    # the two constant words make up tau = 0; every other tau is a sum over families
    for tau in range(2, N + 1, 2):
        assert sum(t_number(m, N - m, tau) for m in range(1, N)) == 2 * binomial(N, tau)


def test_sum_examples():
    # the all-words jump totals 2 C(N, tau), summed over the families of length N
    for N, tau, expected in ((7, 4, 70), (10, 10, 2), (9, 4, 252)):
        assert sum(t_number(m, N - m, tau) for m in range(1, N)) == expected


@pytest.mark.parametrize("N", range(2, 13))
def test_matches_oracle(N):
    for m in range(1, N):
        assert t_distribution(m, N - m).entries == oracle.jump_distribution(m, N - m)


def test_type_census_shape():
    census = type_census(4, 3)
    assert len(census) == 4
    mults = dict(census)
    assert mults[((4,), (3,))] == 7
    assert mults[((3, 1), (2, 1))] == 14
    assert mults[((2, 2), (2, 1))] == 7
    assert mults[((2, 1, 1), (1, 1, 1))] == 7
    assert sum(mults.values()) == 35


def test_type_census_trivial():
    census = type_census(1, 1)
    assert census == [(((1,), (1,)), 2)]


def test_type_count_formula():
    for m in range(1, 9):
        for n in range(1, 9):
            expected = sum(
                partition_count(h, m) * partition_count(h, n)
                for h in range(1, min(m, n) + 1)
            )
            assert len(type_census(m, n)) == expected


@pytest.mark.parametrize("N", range(2, 11))
def test_type_census_against_oracle(N):
    for m in range(1, N):
        # rows by height, then zero blocks, then one blocks; the types and counts of enumeration
        census = type_census(m, N - m)
        assert sorted(census, key=lambda row: (len(row[0][0]), row[0])) == census
        assert dict(census) == oracle.type_census(m, N - m)
