"""Closed-form occurrence distributions for digit strings in cyclic sequences.

A pattern U of length L occurs at position i of a sequence when the L
cyclically consecutive digits starting there spell U; every sequence exposes
exactly N windows, wraparound included.  Closed forms are shipped for four
shapes: a single digit, a run 0^r, a run of zeros closed by a one (0^r 1 and
its reversal 1 0^r, r >= 1), and 101.  The digit swap of a solved shape is
solved too, by swapping the roles of m and n.  Together they cover every
pattern of length at most three.  Everything else raises UnsupportedPattern
and is left to the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateFamily, UnsupportedPattern
from .exactmath import SequenceFamily, binomial, demoivre
from .coeffs import c_general, c_tableau, c_weight_tableau
from .tnumbers import CountDistribution, t_number


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint occurrence counts for several patterns at once."""

    family: SequenceFamily
    patterns: tuple[str, ...]
    entries: dict[tuple[int, ...], int]

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def marginal(self, axis: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for key, count in self.entries.items():
            out[key[axis]] = out.get(key[axis], 0) + count
        return dict(sorted(out.items()))


def parse_pattern(pattern: str) -> str:
    if not pattern or any(ch not in "01" for ch in pattern):
        raise UnsupportedPattern(f"pattern must be a nonempty string over 0/1, got {pattern!r}")
    return pattern


def flip(pattern: str) -> str:
    """Swap the digit roles in a pattern."""
    return pattern.translate(str.maketrans("01", "10"))


def _shape_count(pattern: str):
    """Count function (m, n, h) of a solved shape as written, or None."""
    r = len(pattern) - 1
    if pattern == "0":
        return lambda m, n, h: binomial(m + n, m) if h == m else 0
    if pattern == "0" * (r + 1):
        return lambda m, n, h: _count_zero_run(m, n, r + 1, h)
    if r >= 1 and pattern in ("0" * r + "1", "1" + "0" * r):
        return lambda m, n, h: _count_zeros_then_one(m, n, r, h)
    if pattern == "101":
        return _count_101
    return None


def _solved_count(pattern: str):
    """Count function (m, n, h) of a solved pattern or of its digit swap, or None."""
    count = _shape_count(pattern)
    if count is not None:
        return count
    swapped = _shape_count(flip(pattern))
    if swapped is not None:
        return lambda m, n, h: swapped(n, m, h)
    return None


def is_solved_pattern(pattern: str) -> bool:
    """True when a closed form is shipped for the pattern."""
    return _solved_count(parse_pattern(pattern)) is not None


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    assert r == 0, "occurrence formula must divide exactly"
    return q


def _count_zeros_then_one(m: int, n: int, r: int, ell: int) -> int:
    """Sequences with exactly ell occurrences of the string 0^r 1."""
    if ell < 0:
        return 0
    N = m + n
    if r == 1:
        return t_number(m, n, 2 * ell) if ell >= 1 else 0
    s = r - 2
    tot = sum(
        c_general(s, m, h, ell) * binomial(n, h) for h in range(ell, min(m, n) + 1)
    )
    return _exact_div(N * tot, n)


def _count_zero_run(m: int, n: int, r: int, g: int) -> int:
    """Sequences with exactly g occurrences of the run 0^r (r >= 2)."""
    if g < 0:
        return 0
    N = m + n
    tot = sum(
        c_weight_tableau(r - 2, m, g, h) * binomial(n, h)
        for h in range(1, min(m, n) + 1)
    )
    return _exact_div(N * tot, n)


def _count_101(m: int, n: int, ell: int) -> int:
    """Sequences with exactly ell occurrences of 101."""
    if ell < 0:
        return 0
    N = m + n
    tot = sum(
        c_tableau(m, h, h - ell) * binomial(n, h)
        for h in range(ell, min(m, n) + 1)
    )
    return _exact_div(N * tot, n)


def count_pattern(m: int, n: int, pattern: str, h: int) -> int:
    """Exact number of sequences of the family with h cyclic occurrences of the pattern."""
    pattern = parse_pattern(pattern)
    family = SequenceFamily(m, n)
    if family.is_degenerate:
        raise DegenerateFamily(f"family ({m}, {n}) is constant; query the oracle instead")
    N = family.N
    if len(pattern) >= N:
        raise UnsupportedPattern(
            f"pattern length {len(pattern)} must be below the sequence length {N}"
        )
    if h < 0:
        return 0
    count = _solved_count(pattern)
    if count is None:
        raise UnsupportedPattern(
            f"no closed form for pattern {pattern!r}; use the oracle for it"
        )
    return count(m, n, h)


def pattern_distribution(m: int, n: int, pattern: str) -> CountDistribution:
    """Occurrence distribution of a solved pattern over the whole family.

    Entries run from 0 to the largest occurrence count with a nonzero count;
    interior zeros are kept so the index range is contiguous.
    """
    family = SequenceFamily(m, n)
    counts = {h: count_pattern(m, n, pattern, h) for h in range(family.N + 1)}
    top = max((h for h, v in counts.items() if v), default=0)
    return CountDistribution(family, "occurrences", {h: counts[h] for h in range(top + 1)})


def joint_01_001(m: int, n: int) -> JointDistribution:
    """Joint counts of (01)-occurrences h and (001)-occurrences ell."""
    family = _nondegenerate(m, n)
    N = family.N
    entries: dict[tuple[int, ...], int] = {}
    for h in range(1, min(m, n) + 1):
        for ell in range(0, h + 1):
            v = _exact_div(N * c_tableau(m, h, ell) * binomial(n, h), n)
            if v:
                entries[(h, ell)] = v
    return JointDistribution(family, ("01", "001"), entries)


def joint_01_101(m: int, n: int) -> JointDistribution:
    """Joint counts of (01)-occurrences h and (101)-occurrences ell."""
    family = _nondegenerate(m, n)
    N = family.N
    entries: dict[tuple[int, ...], int] = {}
    for h in range(1, min(m, n) + 1):
        for ell in range(0, h + 1):
            v = _exact_div(N * c_tableau(m, h, h - ell) * binomial(n, h), n)
            if v:
                entries[(h, ell)] = v
    return JointDistribution(family, ("01", "101"), entries)


def triple_01_001_0001(m: int, n: int) -> JointDistribution:
    """Joint counts of (01), (001) and (0001) occurrences (h, ell1, ell2)."""
    family = _nondegenerate(m, n)
    N = family.N
    entries: dict[tuple[int, ...], int] = {}
    for h in range(1, min(m, n) + 1):
        base = binomial(n, h)
        if not base:
            continue
        for ell1 in range(0, h + 1):
            for ell2 in range(0, ell1 + 1):
                ways = (
                    binomial(h, ell1)
                    * binomial(ell1, ell2)
                    * demoivre(ell2, m - h - ell1)
                )
                if not ways:
                    continue
                entries[(h, ell1, ell2)] = _exact_div(N * ways * base, n)
    return JointDistribution(family, ("01", "001", "0001"), entries)


def kaplansky(N: int, n: int, p: int) -> int:
    """Cyclic selections of n points out of N with every gap holding >= p-1 zeros.

    Returns 0 when no such selection exists; a single point (n = 1) is
    unconstrained, and p = 1 places no constraint at all.
    """
    if N < 1 or n < 0 or p < 1:
        raise ValueError(f"need N >= 1, n >= 0, p >= 1, got ({N}, {n}, {p})")
    if n == 0:
        return 1
    if n == 1:
        return N  # no pair to constrain
    reduced = N - (p - 1) * n
    if reduced <= 0 or reduced < n:
        return 0
    return _exact_div(N * binomial(reduced, n), reduced)


def fibonacci_gf(N: int, r: int, h: int) -> int:
    """Nonempty subsets of an N-cycle containing exactly h runs of r consecutive points.

    The full subset contributes its N wraparound runs; the empty subset is
    not counted.
    """
    if N < 1 or r < 2 or h < 0:
        raise ValueError(f"need N >= 1, r >= 2, h >= 0, got ({N}, {r}, {h})")
    total = 1 if h == N else 0
    for n in range(1, N):
        total += _count_zero_run(n, N - n, r, h)
    return total


def all_sequences_001(N: int, ell: int) -> int:
    """Occurrences of (001) counted over all 2^N cyclic words of length N."""
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if ell < 0:
        return 0
    total = 2 if ell == 0 else 0  # the two constant words
    for m in range(1, N):
        total += _count_zeros_then_one(m, N - m, 2, ell)
    return total


def _nondegenerate(m: int, n: int) -> SequenceFamily:
    family = SequenceFamily(m, n)
    if family.is_degenerate:
        raise DegenerateFamily(f"family ({m}, {n}) is constant; query the oracle instead")
    return family
