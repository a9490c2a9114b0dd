import functools
import itertools
from collections import Counter

import pytest

from cycloseq import oracle
from cycloseq.coeffs import c_general, c_weight_tableau
from cycloseq.errors import DegenerateFamily, UnsupportedPattern
from cycloseq.exactmath import binomial, exact_div
from cycloseq.patterncounts import (
    JointDistribution,
    count_pattern,
    fibonacci_gf,
    flip,
    is_solved_pattern,
    joint_01_001,
    kaplansky,
    pattern_distribution,
    triple_01_001_0001,
)
from cycloseq.tnumbers import t_distribution, t_number
from references import count_101, cyclic_occurrences

SOLVED = [
    "0", "1", "00", "01", "10", "11",
    "000", "001", "010", "011", "100", "101", "110", "111",
    "0000", "0001", "1000", "0111", "1110", "1111",
]

T53 = {
    "111": (48, 8, 0, 0),
    "110": (16, 40, 0, 0),
    "101": (24, 24, 8, 0),
    "100": (0, 32, 24, 0),
    "011": (16, 40, 0, 0),
    "010": (8, 32, 0, 16),
    "001": (0, 32, 24, 0),
    "000": (8, 24, 16, 8),
}


def test_point_examples():
    assert count_pattern(5, 3, "111", 0) == 48
    assert count_pattern(5, 3, "001", 1) == 32
    assert count_pattern(5, 3, "000", 3) == 8
    assert count_pattern(4, 4, "001", 0) == 2


def test_table_53():
    for pattern, row in T53.items():
        for h, expected in enumerate(row):
            assert count_pattern(5, 3, pattern, h) == expected, (pattern, h)


def test_single_digit_patterns():
    assert count_pattern(5, 3, "0", 5) == binomial(8, 5)
    assert count_pattern(5, 3, "0", 4) == 0
    assert count_pattern(5, 3, "1", 3) == binomial(8, 5)


@pytest.mark.parametrize("h", range(0, 5))
def test_01_equals_jump_numbers(h):
    for m, n in [(3, 4), (5, 3), (4, 4), (6, 2)]:
        expected = t_number(m, n, 2 * h) if h >= 1 else 0
        assert count_pattern(m, n, "01", h) == expected
        assert count_pattern(m, n, "10", h) == expected


def test_00_reflection():
    for N in range(3, 13):
        for m in range(1, N):
            n = N - m
            for h in range(0, m + 1):
                tau = 2 * (m - h)
                expected = t_number(m, n, tau) if tau >= 2 else 0
                assert count_pattern(m, n, "00", h) == expected


def test_complement_symmetry():
    for N in range(3, 13):
        for m in range(1, N):
            n = N - m
            for pattern in SOLVED:
                if len(pattern) > N:
                    continue
                for h in range(0, N + 1):
                    assert count_pattern(m, n, pattern, h) == count_pattern(
                        n, m, flip(pattern), h
                    ), (m, n, pattern, h)


def test_rotation_identities():
    # a run of zeros closed by a one counts the same with the one out front
    for m, n in [(5, 3), (4, 4), (6, 3)]:
        for h in range(0, 5):
            assert count_pattern(m, n, "001", h) == count_pattern(m, n, "100", h)
            assert count_pattern(m, n, "0001", h) == count_pattern(m, n, "1000", h)
            assert count_pattern(m, n, "011", h) == count_pattern(m, n, "110", h)


def test_unsupported_patterns():
    with pytest.raises(UnsupportedPattern):
        count_pattern(4, 4, "0110", 1)
    with pytest.raises(UnsupportedPattern):
        count_pattern(4, 4, "0101", 0)
    with pytest.raises(UnsupportedPattern):
        count_pattern(4, 4, "", 0)
    with pytest.raises(UnsupportedPattern):
        count_pattern(4, 4, "21", 0)
    with pytest.raises(UnsupportedPattern):
        pattern_distribution(4, 4, "0110")
    # the pattern is refused before the occurrence count is looked at
    with pytest.raises(UnsupportedPattern):
        count_pattern(5, 3, "0110", -1)
    assert not is_solved_pattern("0110")
    assert all(is_solved_pattern(p) for p in SOLVED)


def _solved_at_length(L):
    if L <= 3:
        return {"".join(d) for d in itertools.product("01", repeat=L)}
    return {"0" * L, "1" * L, "0" * (L - 1) + "1", "1" + "0" * (L - 1),
            "1" * (L - 1) + "0", "0" + "1" * (L - 1)}


@pytest.mark.parametrize("L", range(1, 9))
def test_solved_set_by_length(L):
    # every pattern of length <= 3; beyond that the two runs, 0^(L-1)1 and
    # 10^(L-1), and their digit swaps
    solved = _solved_at_length(L)
    assert len(solved) == (2**L if L <= 3 else 6)
    m, n = 6, 4  # N = 10 > L, and m != n so a lost digit swap shows
    for digits in itertools.product("01", repeat=L):
        pattern = "".join(digits)
        assert is_solved_pattern(pattern) == (pattern in solved), pattern
        if pattern in solved:
            closed = pattern_distribution(m, n, pattern).entries
            brute = oracle.pattern_distribution(m, n, pattern)
            assert {h: v for h, v in closed.items() if v} == brute, pattern
        else:
            with pytest.raises(UnsupportedPattern):
                count_pattern(m, n, pattern, 1)


def test_distribution_matches_point_counts_beyond_the_oracle_cap():
    # pattern_distribution evaluates the count functions without count_pattern;
    # past the oracle's reach, the two must still agree at every h
    m, n = 24, 25
    for L in range(1, 9):
        for pattern in _solved_at_length(L):
            dist = pattern_distribution(m, n, pattern)
            assert dist.total == binomial(m + n, n), pattern
            for h in range(m + n + 2):
                assert dist[h] == count_pattern(m, n, pattern, h), (pattern, h)


@pytest.mark.parametrize("m, n", [(10, 11), (11, 11), (12, 12)])
def test_closed_forms_match_enumeration_past_the_default_cap(monkeypatch, m, n):
    # the rotation classes keep N = 21..24 in reach of the oracle
    monkeypatch.setattr(oracle, "CAP", 24)

    def nonzero(entries):
        return {h: v for h, v in entries.items() if v}

    patterns = ["001", "0001", "101", "000"]
    census = oracle.pattern_census(m, n, patterns)
    for pattern in patterns:
        assert nonzero(pattern_distribution(m, n, pattern).entries) == nonzero(census[pattern]), pattern
    assert nonzero(t_distribution(m, n).entries) == nonzero(oracle.jump_distribution(m, n))


SOLVED_UP_TO_10 = sorted(p for L in range(1, 11) for p in _solved_at_length(L))
DEEP_ZEROS_THEN_ONE = ["0" * 100 + "1", "1" + "0" * 100, "1" * 100 + "0", "0" + "1" * 100]


def _words_with_the_pattern_at_0_and_d(m, n, pattern):
    """Sum over d = 1..N-1 of the family's words that spell the pattern at 0 and at d.

    The two windows fix the digits of their union S, so C(N - |S|, n - ones(S))
    words hold both when they agree where they overlap, and none otherwise.
    For L <= d <= N - L the windows are disjoint.
    """
    N, L, w = m + n, len(pattern), pattern.count("1")
    total = max(N - 2 * L + 1, 0) * binomial(max(N - 2 * L, 0), n - 2 * w)
    for d in range(1, N):
        if L <= d <= N - L:
            continue
        fixed = dict(enumerate(pattern))
        if all(fixed.setdefault((d + i) % N, digit) == digit for i, digit in enumerate(pattern)):
            total += binomial(N - len(fixed), n - "".join(fixed.values()).count("1"))
    return total


@pytest.mark.parametrize("m, n, patterns", [
    (60, 60, SOLVED_UP_TO_10), (37, 83, SOLVED_UP_TO_10),
    (300, 300, SOLVED_UP_TO_10 + DEEP_ZEROS_THEN_ONE),
])
def test_closed_forms_meet_exact_identities_far_beyond_the_oracle_cap(m, n, patterns):
    # an independent exact check where enumeration cannot reach: the counts
    # sum to the family size C(N, n), and the occurrences sum to N C(N-L, n-w),
    # since each of the N windows spells a pattern with w ones in C(N-L, n-w)
    # sequences; the ordered pairs of occurrences sum to N times the words
    # with the pattern at 0 and at d, over the shifts d (Guibas & Odlyzko 1981)
    N = m + n
    for pattern in patterns:
        entries = pattern_distribution(m, n, pattern).entries
        L, w = len(pattern), pattern.count("1")
        assert sum(entries.values()) == binomial(N, n), pattern
        assert sum(h * v for h, v in entries.items()) == N * binomial(N - L, n - w), pattern
        pairs = sum(h * (h - 1) * v for h, v in entries.items())
        assert pairs == N * _words_with_the_pattern_at_0_and_d(m, n, pattern), pattern


@functools.lru_cache(maxsize=None)
def _by_heights(m, n, shape, r):
    """Counts of 0^r (shape "run"), 0^r 1 (shape "then1") or 101 by a height sum.

    A sequence with h blocks of ones pairs a composition of its m zeros into h
    parts with one of its n ones into h parts, and (N/n) C(n, h) counts those
    pairs on the N-cycle; deleting r - 1 columns from the zero parts leaves
    the occurrences as weight (runs) or dimension (0^r 1).  r = 1 is the single
    digit, C(N, n) sequences with m zeros, and 01, the jump numbers.
    """
    N = m + n
    if shape == "101":
        return {ell: v for ell in range(min(m, n) + 1) if (v := count_101(m, n, ell))}
    if r == 1:
        if shape == "run":
            return {m: binomial(N, n)}
        return {ell: t_number(m, n, 2 * ell) for ell in range(1, min(m, n) + 1)}
    totals = Counter()
    for h in range(1, min(m, n) + 1):
        if shape == "run":  # a weight x <= m - h survives
            for x in range(m - h + 1):
                totals[x] += binomial(n, h) * c_weight_tableau(r - 2, m, x, h)
        else:  # x <= h parts of at least r zeros each
            for x in range(min(h, (m - h) // (r - 1)) + 1):
                totals[x] += binomial(n, h) * c_general(r - 2, m, h, x)
    return {x: exact_div(N * t, n) for x, t in sorted(totals.items()) if t}


def _zero_shape(pattern):
    """(shape, r, swapped) of a run, of 0^r 1 or 1 0^r, or of 101, or of a digit swap of one."""
    for swapped, image in enumerate((pattern, flip(pattern))):
        r = image.count("0")
        if image == "0" * r:
            return "run", r, swapped
        if r and image in ("0" * r + "1", "1" + "0" * r):
            return "then1", r, swapped
        if image == "101":
            return "101", 1, swapped
    return None


ZERO_SHAPES_UP_TO_8 = [p for p in SOLVED_UP_TO_10 if len(p) <= 8 and _zero_shape(p)]
# 101 and 010, and 0^r 1 for r <= 5 with its reversal and their digit swaps
ONE_BLOCK_UP_TO_6 = [p for p in SOLVED_UP_TO_10 if len(p) <= 6 and _zero_shape(p)[0] != "run"]


@pytest.mark.parametrize("families, patterns", [
    pytest.param([(60, 60)], ZERO_SHAPES_UP_TO_8, id="60-60"),
    pytest.param([(37, 83)], ZERO_SHAPES_UP_TO_8, id="37-83"),
    pytest.param([(150, 150)], ZERO_SHAPES_UP_TO_8, id="150-150"),
    pytest.param([(300, 300), (200, 120)], ["101", "0001"], id="300-300-and-200-120"),
    pytest.param([(m, N - m) for N in range(2, 41) for m in range(1, N)], ONE_BLOCK_UP_TO_6,
                 id="every-family-to-N40"),
])
def test_one_coefficient_equals_the_height_sum(families, patterns):
    # the closed forms cut the word into the compositions of all N digits into
    # n parts; the height sum splits the same count by the number of blocks of
    # ones and deletes columns from the zeros alone
    for m, n in families:
        for pattern in patterns:
            if len(pattern) > m + n:
                continue
            shape, r, swapped = _zero_shape(pattern)
            expected = _by_heights(*((n, m) if swapped else (m, n)), shape, r)
            closed = pattern_distribution(m, n, pattern).entries
            assert {h: v for h, v in closed.items() if v} == expected, (m, n, pattern)


def test_pattern_longer_than_cycle():
    with pytest.raises(UnsupportedPattern):
        count_pattern(1, 1, "101", 0)


def test_degenerate_family_rejected():
    with pytest.raises(DegenerateFamily):
        count_pattern(0, 4, "01", 1)
    with pytest.raises(DegenerateFamily):
        joint_01_001(0, 4)
    with pytest.raises(DegenerateFamily):
        triple_01_001_0001(0, 4)


def test_input_validation():
    with pytest.raises(ValueError):
        fibonacci_gf(4, 1, 0)
    with pytest.raises(ValueError):
        kaplansky(5, 2, 0)
    with pytest.raises(ValueError):
        kaplansky(0, 1, 2)


def test_distribution_object():
    dist = pattern_distribution(5, 3, "010")
    assert dist.entries == {0: 8, 1: 32, 2: 0, 3: 16}
    assert dist.total == binomial(8, 5)
    assert dist.index_kind == "occurrences"


@pytest.mark.parametrize("N", range(2, 12))
def test_distributions_normalize(N):
    for m in range(1, N):
        for pattern in ("01", "00", "000", "001", "101", "0001"):
            if len(pattern) > N:
                continue
            assert pattern_distribution(m, N - m, pattern).total == binomial(N, m)


@pytest.mark.parametrize("N", range(3, 11))
def test_matches_oracle_everywhere(N):
    for m in range(1, N):
        n = N - m
        census = oracle.pattern_census(m, n, [p for p in SOLVED if len(p) <= N])
        for pattern, brute in census.items():
            top = max(brute) + 1
            for h in range(0, top + 1):
                assert count_pattern(m, n, pattern, h) == brute.get(h, 0), (m, n, pattern, h)


def test_joint_01_001_table():
    joint = joint_01_001(4, 4)
    assert joint.entries == {(1, 1): 8, (2, 1): 24, (2, 2): 12, (3, 1): 24, (4, 0): 2}
    assert joint.marginal(1) == {0: 2, 1: 56, 2: 12}
    assert joint.marginal(0) == {1: 8, 2: 36, 3: 24, 4: 2}


@pytest.mark.parametrize("m,n", [(4, 4), (5, 3), (3, 5), (6, 4), (2, 7)])
def test_joints_match_oracle(m, n):
    assert joint_01_001(m, n).entries == {
        k: v for k, v in oracle.joint_distribution(m, n, ["01", "001"]).items() if v
    }
    assert triple_01_001_0001(m, n).entries == {
        k: v
        for k, v in oracle.joint_distribution(m, n, ["01", "001", "0001"]).items()
        if v
    }


def _joint_01_101(m, n):
    """The (01, 101) table as the (01, 001) table read at (h, h - ell)."""
    joint = joint_01_001(m, n)
    return JointDistribution(joint.family, ("01", "101"),
                             {(h, h - ell): v for (h, ell), v in joint.entries.items()})


@pytest.mark.parametrize("N", range(3, 13))
def test_the_01_101_table_is_the_01_001_table_read_at_h_minus_ell(N):
    # a zero block holds one 101 when it is a single zero and one 001 otherwise
    for m in range(1, N):
        brute = oracle.joint_distribution(m, N - m, ["01", "101"])
        assert _joint_01_101(m, N - m).entries == {k: v for k, v in brute.items() if v}, m


def test_joint_101_marginals():
    marg = _joint_01_101(5, 3).marginal(1)
    assert marg == {0: 24, 1: 24, 2: 8}
    # digit-swap image: the same distribution answers (010) on the flipped family
    dist = pattern_distribution(3, 5, "010")
    assert {h: v for h, v in dist.entries.items() if v} == marg
    # the other axis recovers the jump-pair distribution
    assert _joint_01_101(5, 3).marginal(0) == {
        h: t_number(5, 3, 2 * h) for h in (1, 2, 3)
    }


def test_triple_marginalizes_to_joint():
    for m, n in [(5, 3), (4, 4), (6, 3)]:
        triple = triple_01_001_0001(m, n)
        collapsed: dict[tuple[int, int], int] = {}
        for (h, l1, l2), v in triple.entries.items():
            collapsed[(h, l1)] = collapsed.get((h, l1), 0) + v
        assert collapsed == joint_01_001(m, n).entries


def test_triple_0001_marginal_values():
    marg = triple_01_001_0001(5, 3).marginal(2)
    assert marg[1] == 48
    assert pattern_distribution(5, 3, "0001").entries == {0: 8, 1: 48}


def test_kaplansky_examples():
    assert kaplansky(6, 2, 2) == 9
    assert kaplansky(12, 3, 1) == binomial(12, 3)
    for N in range(1, 10):
        assert kaplansky(N, 1, 3) == N
        for p in (1, 2, 7):
            assert kaplansky(N, 0, p) == 1  # the empty selection
    assert kaplansky(4, 2, 2) == 2
    assert kaplansky(5, 2, 3) == 0  # three spaced points cannot fit two gaps of two


def _kaplansky_brute(N, n, p):
    if n <= 1:
        return binomial(N, n)  # separation is a pairwise condition
    count = 0
    for ones in itertools.combinations(range(N), n):
        gaps = [(ones[(i + 1) % n] - ones[i]) % N for i in range(n)]
        if all(g - 1 >= p - 1 for g in gaps):
            count += 1
    return count


@pytest.mark.parametrize("N", range(2, 13))
def test_kaplansky_matches_enumeration(N):
    for n in range(1, N + 1):
        for p in range(1, 5):
            assert kaplansky(N, n, p) == _kaplansky_brute(N, n, p), (N, n, p)


def test_fibonacci_examples():
    assert fibonacci_gf(4, 2, 2) == 4
    assert fibonacci_gf(5, 3, 0) == 20
    assert fibonacci_gf(4, 2, 0) == 6


def test_fibonacci_closed_form_r2():
    # independent route: the run-pair subset numbers in explicit binomial form
    for N in range(3, 12):
        for h in range(0, N + 1):
            direct = 1 if h == N else 0
            for n in range(1, N):
                m = N - n
                if n - h >= 1:
                    direct += (
                        N * (n - h) * binomial(m, n - h) * binomial(n, h) // (m * n)
                        if binomial(m, n - h)
                        else 0
                    )
            assert fibonacci_gf(N, 2, h) == direct, (N, h)


@pytest.mark.parametrize("N", range(3, 11))
def test_fibonacci_matches_enumeration(N):
    # every run length up to the whole cycle, over the nonempty subsets
    for r in range(2, N + 1):
        brute = oracle.tally(((word, 1) for word in range(1, 1 << N)),
                             lambda word: cyclic_occurrences(word, N, "1" * r))
        for h in range(0, N + 2):
            assert fibonacci_gf(N, r, h) == brute.get(h, 0), (N, r, h)


def test_fibonacci_completeness():
    for N in range(3, 10):
        for r in range(2, min(5, N)):
            assert sum(fibonacci_gf(N, r, h) for h in range(N + 1)) == 2**N - 1


def _all_words_001(N):
    """Occurrences of 001 over all 2^N words: the family rows, plus the two constant words."""
    totals = Counter({0: 2})
    for m in range(1, N):
        totals.update(pattern_distribution(m, N - m, "001").entries)
    return {ell: v for ell, v in totals.items() if v}


def test_all_sequences_001():
    assert _all_words_001(8) == {0: 48, 1: 160, 2: 48}
    for N in range(3, 13):
        brute = oracle.tally(((word, 1) for word in range(1 << N)),
                             lambda word: cyclic_occurrences(word, N, "001"))
        assert _all_words_001(N) == brute, N
        assert max(brute) == N // 3


@pytest.mark.parametrize("m, n", [(1, 1), (4, 4), (5, 3), (3, 6)])
def test_a_joint_table_totals_its_family(m, n):
    for joint in (joint_01_001(m, n), triple_01_001_0001(m, n)):
        assert joint.total == binomial(m + n, n), joint.patterns
