import copy
import decimal
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from cycloseq import exactmath
from cycloseq.errors import DegenerateFamily, DomainError, InexactDivision, UnsupportedPattern
from cycloseq.exactmath import (
    Record,
    SequenceFamily,
    binomial,
    binomial_products,
    demoivre,
    exact_decimal,
    exact_div,
    nondegenerate_family,
    parse_pattern,
    partition_count,
    partitions_exact,
    pattern_family,
    stirling2,
)
from references import compositions, stirling2_sum

small = st.integers(min_value=0, max_value=12)


def test_binomial_examples():
    assert binomial(7, 3) == 35
    assert binomial(5, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(3, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_row():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(small, small, st.integers(min_value=0, max_value=24))
def test_vandermonde(r, s, m):
    assert sum(binomial(r, h) * binomial(s, m - h) for h in range(m + 1)) == binomial(r + s, m)


@given(st.integers(min_value=1, max_value=12))
def test_central_square_sum(m):
    assert sum(binomial(m, h) ** 2 for h in range(m + 1)) == binomial(2 * m, m)


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(5, 2) == 15
    assert stirling2(0, 0) == 1
    assert stirling2(4, 0) == 0
    assert stirling2(2, 5) == 0
    for r in range(1, 10):
        assert stirling2(r, r) == 1


def test_stirling2_matches_the_explicit_sum_up_to_order_60():
    for r in range(61):
        for l in range(r + 2):
            assert stirling2(r, l) == stirling2_sum(r, l), (r, l)


@given(st.integers(min_value=1, max_value=15), st.integers(min_value=1, max_value=15))
def test_stirling2_recurrence(r, l):
    assert stirling2(r, l) == l * stirling2(r - 1, l) + stirling2(r - 1, l - 1)


def test_demoivre_examples():
    assert demoivre(3, 6) == 10
    assert demoivre(4, 6) == 10
    assert demoivre(1, 9) == 1
    assert demoivre(0, 0) == 1
    assert demoivre(0, 3) == 0
    assert demoivre(3, 0) == 0


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=14))
def test_demoivre_counts_compositions(h, w):
    assert demoivre(h, w) == sum(1 for _ in compositions(w, h))


def _compositions_by_first_part(w, h):
    """Reference: compositions by recursion on the first part, smallest first."""
    if h == 0:
        if w == 0:
            yield ()
        return
    if h == 1:
        if w >= 1:
            yield (w,)
        return
    for first in range(1, w - h + 2):
        for rest in _compositions_by_first_part(w - first, h - 1):
            yield (first,) + rest


def test_compositions_match_the_first_part_recursion_in_order():
    for w in range(13):
        for h in range(13):
            assert list(compositions(w, h)) == list(_compositions_by_first_part(w, h)), (w, h)


@pytest.mark.parametrize("w", [-2, -1, 0, 1, 5])
@pytest.mark.parametrize("h", [-3, -1])
def test_enumerators_yield_nothing_below_zero_parts(w, h):
    assert list(compositions(w, h)) == []
    assert list(partitions_exact(w, h)) == []


def test_partition_count_examples():
    assert partition_count(3, 6) == 3
    assert partition_count(2, 7) == 3
    assert partition_count(5, 5) == 1
    assert partition_count(1, 9) == 1
    assert partition_count(4, 3) == 0


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=16))
def test_partition_count_matches_enumeration(h, w):
    assert partition_count(h, w) == sum(1 for _ in partitions_exact(w, h))


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
def test_partition_column_deletion_recurrence(h, w):
    # deleting the first column of a height-h tableau of w leaves w - h boxes
    if h > w:
        assert partition_count(h, w) == 0
        return
    expected = sum(partition_count(l, w - h) for l in range(1, min(h, w - h) + 1))
    if w == h:
        expected += 1  # the all-ones partition deletes to nothing
    assert partition_count(h, w) == expected


def test_family_invariants():
    fam = SequenceFamily(3, 4)
    assert fam.N == 7
    assert not fam.is_degenerate
    assert fam.size() == 35
    assert SequenceFamily(0, 5).is_degenerate
    with pytest.raises(ValueError):
        SequenceFamily(0, 0)
    with pytest.raises(ValueError):
        SequenceFamily(-1, 2)


def test_records_behave_as_frozen_values():
    from cycloseq.patterncounts import joint_01_001
    from cycloseq.tnumbers import t_distribution

    fam = SequenceFamily(3, 4)
    assert fam == SequenceFamily(3, 4) and hash(fam) == hash(SequenceFamily(3, 4))
    assert fam != SequenceFamily(4, 3) and fam != (3, 4)
    assert repr(fam) == "SequenceFamily(m=3, n=4)"
    for name in ("m", "extra"):
        with pytest.raises(AttributeError):
            setattr(fam, name, 5)
    with pytest.raises(AttributeError):
        del fam.m
    assert fam.m == 3
    assert pickle.loads(pickle.dumps(fam)) == copy.deepcopy(fam) == fam
    assert t_distribution(2, 2) == t_distribution(2, 2) != t_distribution(1, 3)
    assert repr(joint_01_001(1, 1)) == (
        "JointDistribution(family=SequenceFamily(m=1, n=1), patterns=('01', '001'), "
        "entries={(1, 0): 2})")


def test_exact_div():
    assert exact_div(42, 6) == 7
    assert exact_div(0, -4) == 0
    with pytest.raises(InexactDivision):
        exact_div(7, 2)
    # a remainder is a defect of the engine, never a usage or domain error
    assert issubclass(InexactDivision, ArithmeticError)
    assert not issubclass(InexactDivision, (DomainError, ValueError))


def test_exact_div_keeps_its_check_on_decimal_cells():
    with exact_decimal(10) as one:
        assert exact_div(42 * one, 6) == 7
        with pytest.raises(InexactDivision):
            exact_div(7 * one, 2)


@pytest.mark.parametrize("N", [1, 2, 3, 10, 100, 2000])
def test_exact_decimal_holds_every_integer_below_its_bound(N):
    bound = N * N << N
    with exact_decimal(N) as one:
        assert str(one * bound) == str(bound)
        assert str(exact_div(one * bound, N * N)) == str(1 << N)
        # one digit past the precision rounds, and rounding raises
        with pytest.raises(decimal.Rounded):
            one * 10 ** decimal.getcontext().prec
    assert decimal.getcontext().prec == decimal.DefaultContext.prec  # restored


def test_binomial_products_walk_decimal_cells_to_the_same_row():
    for m, n in [(0, 5), (7, 3), (25, 25), (300, 410)]:
        with exact_decimal(m + n) as one:
            row = list(binomial_products(m, n, one))  # drawn while the context is open
        assert all(isinstance(cell, decimal.Decimal) for cell in row)
        assert [str(cell) for cell in row] == [str(cell) for cell in binomial_products(m, n)]


def test_binomial_products_walk_the_row():
    for m in range(31):
        for n in range(31):
            assert list(binomial_products(m, n)) == [
                math.comb(m, h) * math.comb(n, h) for h in range(min(m, n) + 1)
            ], (m, n)
    with pytest.raises(ValueError):
        binomial_products(-1, 3)  # refused when the walk is made, before any cell is drawn


def test_binomial_products_step_through_the_checked_division(monkeypatch):
    # each step divides by (h+1)^2 through exact_div, a check python -O keeps
    dens = []

    def spy(num, den):
        dens.append(den)
        return exact_div(num, den)

    monkeypatch.setattr(exactmath, "exact_div", spy)
    walk = binomial_products(9, 6)
    assert next(walk) == 1 and dens == []  # a cell is walked only when it is drawn
    assert list(walk)[-1] == math.comb(9, 6)
    assert dens == [(h + 1) ** 2 for h in range(6)]


class _Pair(Record):
    __slots__ = ("first", "second")


@pytest.mark.parametrize("function, args, error", [
    (parse_pattern, ("012",), UnsupportedPattern),
    (stirling2, (-1, 0), ValueError),
    (stirling2, (3, -1), ValueError),
    (_Pair, (1,), TypeError),
    (_Pair, (1, 2, 3), TypeError),
    (nondegenerate_family, (0, 3), DegenerateFamily),
    # a pattern query is checked for its digits, then its family, then its length
    (pattern_family, (-1, -1, "x"), UnsupportedPattern),
    (pattern_family, (-1, 3, "0110"), ValueError),
    (pattern_family, (2, 1, "0001"), UnsupportedPattern),
])
def test_arguments_outside_the_domain_are_refused(function, args, error):
    with pytest.raises(error) as exc:
        function(*args)
    assert exc.type is error
