"""Closed-form occurrence distributions for digit strings in cyclic sequences.

A pattern U of length L occurs at position i of a sequence when the L
cyclically consecutive digits starting there spell U; every sequence exposes
exactly N windows, wraparound included.  Closed forms are shipped for three
shapes: a run 0^r (r >= 1, the single digit included), 0^r 1 with its
reversal 1 0^r (r >= 1), and 101.  The digit swap of a solved shape is
solved too, by swapping the roles of m and n.  Together they cover every
pattern of length at most three.  Everything else raises UnsupportedPattern
and is left to the brute-force oracle.

The counts of runs and of 0^r 1 are one deletion coefficient each.  Cutting
a cyclic word after each of its n ones, from a marked one on, gives a
composition of N into n parts and a start among N positions; the pairs
(word, marked one) and (composition, start) match one to one, so the words
number N/n times the compositions.  A part longer than r holds one 0^r 1 and part - r runs 0^r: the
dimension and the weight left after deleting r columns.  The count of 101
(parts equal to 2) sums over the number h of blocks of ones instead, and the
joint tables (`_joint`) keep the terms of that sum apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedPattern
from .exactmath import (
    SequenceFamily, binomial, demoivre, exact_div, nondegenerate_family, parse_pattern,
)
from .coeffs import c_general, c_tableau, c_weight_tableau
from .tnumbers import CountDistribution


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


def flip(pattern: str) -> str:
    """Swap the digit roles in a pattern."""
    return pattern.translate(str.maketrans("01", "10"))


def _shape_count(pattern: str):
    """Count function (m, n, h) of a solved shape as written, or None."""
    r = len(pattern) - 1
    if pattern == "0" * (r + 1):
        return lambda m, n, g: exact_div((m + n) * c_weight_tableau(r, m + n, g, n), n)
    if r >= 1 and pattern in ("0" * r + "1", "1" + "0" * r):
        return lambda m, n, ell: exact_div((m + n) * c_general(r - 1, m + n, n, ell), n)
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


def _count_101(m: int, n: int, ell: int) -> int:
    """Sequences with exactly ell occurrences of 101.

    A sequence with h blocks of ones pairs a composition of its m zeros into
    h parts with a composition of its n ones into h parts, and (N/n) C(n, h)
    counts those pairs on the N-cycle.  Each block of zeros carries at most
    one 101, so heights below ell contribute nothing.
    """
    heights = range(max(ell, 1), min(m, n) + 1)
    total = sum(binomial(n, h) * c_tableau(m, h, h - ell) for h in heights)
    return exact_div((m + n) * total, n)


def _resolve(m: int, n: int, pattern: str):
    """Check a query and return its family and the pattern's count function.

    The count function is None for an unsolved pattern; callers refuse it.
    """
    pattern = parse_pattern(pattern)
    family = nondegenerate_family(m, n)
    if len(pattern) >= family.N:
        raise UnsupportedPattern(
            f"pattern length {len(pattern)} must be below the sequence length {family.N}"
        )
    return family, _solved_count(pattern)


def _no_closed_form(pattern: str) -> UnsupportedPattern:
    return UnsupportedPattern(f"no closed form for pattern {pattern!r}; use the oracle for it")


def count_pattern(m: int, n: int, pattern: str, h: int) -> int:
    """Exact number of sequences of the family with h cyclic occurrences of the pattern."""
    _, count = _resolve(m, n, pattern)
    if h < 0:
        return 0
    if count is None:
        raise _no_closed_form(pattern)
    return count(m, n, h)


def pattern_distribution(m: int, n: int, pattern: str) -> CountDistribution:
    """Occurrence distribution of a solved pattern over the whole family.

    Entries run from 0 to the largest occurrence count with a nonzero count;
    interior zeros are kept so the index range is contiguous.
    """
    family, count = _resolve(m, n, pattern)
    if count is None:
        raise _no_closed_form(pattern)
    counts = [count(m, n, h) for h in range(family.N + 1)]
    top = max((h for h, v in enumerate(counts) if v), default=0)
    return CountDistribution(family, "occurrences", dict(enumerate(counts[: top + 1])))


def _joint(m: int, n: int, patterns: tuple[str, ...], cells) -> JointDistribution:
    """Joint table of the patterns, 01 first, split by the heights of `_count_101`.

    cells(h) yields (rest, tableaux) pairs: the other patterns' occurrence
    counts and the zero compositions into h parts that give them.  Each
    nonzero pair becomes the entry at key (h, *rest).
    """
    family = nondegenerate_family(m, n)
    entries: dict[tuple[int, ...], int] = {}
    for h in range(1, min(m, n) + 1):
        for rest, tableaux in cells(h):
            if tableaux:
                entries[(h, *rest)] = exact_div(family.N * binomial(n, h) * tableaux, n)
    return JointDistribution(family, patterns, entries)


def joint_01_001(m: int, n: int) -> JointDistribution:
    """Joint counts of (01)-occurrences h and (001)-occurrences ell."""
    return _joint(m, n, ("01", "001"), lambda h: (
        ((ell,), c_tableau(m, h, ell)) for ell in range(h + 1)
    ))


def joint_01_101(m: int, n: int) -> JointDistribution:
    """Joint counts of (01)-occurrences h and (101)-occurrences ell."""
    return _joint(m, n, ("01", "101"), lambda h: (
        ((ell,), c_tableau(m, h, h - ell)) for ell in range(h + 1)
    ))


def triple_01_001_0001(m: int, n: int) -> JointDistribution:
    """Joint counts of (01), (001) and (0001) occurrences (h, ell1, ell2)."""
    return _joint(m, n, ("01", "001", "0001"), lambda h: (
        ((ell1, ell2), binomial(h, ell1) * binomial(ell1, ell2) * demoivre(ell2, m - h - ell1))
        for ell1 in range(h + 1)
        for ell2 in range(ell1 + 1)
    ))


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
    return exact_div(N * binomial(reduced, n), reduced)


def _all_words(N: int, pattern: str, h: int) -> int:
    """Words among all 2^N on the N-cycle with h occurrences of a solved pattern.

    The families of length N hold all but the two constant words, each of
    which holds N occurrences of a run of its own digit.
    """
    count = _solved_count(pattern)
    total = [N if pattern == digit * len(pattern) else 0 for digit in "01"].count(h)
    return total + sum(count(m, N - m, h) for m in range(1, N))


def fibonacci_gf(N: int, r: int, h: int) -> int:
    """Nonempty subsets of an N-cycle containing exactly h runs of r consecutive points.

    The full subset contributes its N wraparound runs; the empty subset is
    not counted.
    """
    if N < 1 or r < 2 or h < 0:
        raise ValueError(f"need N >= 1, r >= 2, h >= 0, got ({N}, {r}, {h})")
    return _all_words(N, "1" * r, h) - (h == 0)


def all_sequences_001(N: int, ell: int) -> int:
    """Occurrences of (001) counted over all 2^N cyclic words of length N."""
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if ell < 0:
        return 0
    return _all_words(N, "001", ell)
