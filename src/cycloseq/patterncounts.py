"""Closed-form occurrence distributions for digit strings in cyclic sequences.

A pattern U of length L occurs at position i of a sequence when the L
cyclically consecutive digits starting there spell U; every sequence exposes
exactly N windows, wraparound included.  Closed forms are shipped for three
shapes: a run 0^r (r >= 1, the single digit included), 0^r 1 with its
reversal 1 0^r (r >= 1), and 101.  The digit swap of a solved shape is
solved too, by swapping the roles of m and n.  Together they cover every
pattern of length at most three.  Everything else raises UnsupportedPattern
and is left to the brute-force oracle.

Cutting a cyclic word after each of its n ones, from a marked one on, gives
a composition of N into n parts and a start among N positions; the pairs
(word, marked one) and (composition, start) match one to one, so the words
number N/n times the compositions.  A part longer than r holds one 0^r 1 and
part - r runs 0^r, and a part equal to 2 holds one 101.  Runs are the weight
left after deleting r columns, one `c_weight_tableau` per count.  0^r 1 and
101 count the parts that meet a condition: from B(u), the compositions with
u marked parts that meet it, inclusion-exclusion (Stanley, EC1 2.1) builds
the whole row at once (`_marked_parts`).  The joint tables (`_joint`) split
the counts by the number h of blocks of ones instead.
"""

from __future__ import annotations

from itertools import takewhile

from .errors import UnsupportedPattern
from .exactmath import (
    Record, SequenceFamily, binomial, demoivre, exact_div, nondegenerate_family, parse_pattern,
)
from .coeffs import c_tableau, c_weight_tableau
from .tnumbers import CountDistribution


class JointDistribution(Record):
    """Exact joint occurrence counts for several patterns at once.

    Fields: family (a SequenceFamily), patterns (a tuple of strings) and
    entries, the dict from a tuple of occurrence counts, one per pattern,
    to the number of sequences.
    """

    __slots__ = ("family", "patterns", "entries")

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


def _marked_parts(N: int, n: int, marked):
    """(count, top) of the words by the number of their parts that meet a condition.

    marked(u) is B(u), the compositions of N into n parts with u of them
    marked, each marked part meeting the condition; B(u) is nonzero up to
    top and zero past it, so only those are built.  The row of counts is the
    coefficient list of sum_u B(u) (x - 1)^u, by Horner's rule in additions
    only, times N/n; its last cell is B(top) N/n.
    """
    row: list[int] = []
    for b in reversed(list(takewhile(bool, map(marked, range(n + 1))))):
        row = [x - y for x, y in zip([b, *row], [*row, 0])]  # row (x - 1) + b
    row = [exact_div(N * cell, n) for cell in row]
    return row.__getitem__, len(row) - 1


def _shape_count(pattern: str):
    """Counter of a solved shape as written, or None: (m, n) -> (count, top).

    top is the largest occurrence count with a nonzero count, and count(h)
    the sequences with h occurrences, for h in 0..top.
    """
    r = len(pattern) - 1
    if pattern == "0" * (r + 1):  # top: every zero in one block
        return lambda m, n: (
            lambda g: exact_div((m + n) * c_weight_tableau(r, m + n, g, n), n), max(m - r, 0))
    if r >= 1 and pattern in ("0" * r + "1", "1" + "0" * r):  # parts longer than r
        return lambda m, n: _marked_parts(
            m + n, n, lambda u: binomial(n, u) * demoivre(n, m + n - r * u))
    if pattern == "101":  # parts equal to 2
        return lambda m, n: _marked_parts(
            m + n, n, lambda u: binomial(n, u) * demoivre(n - u, m + n - 2 * u))
    return None


def _solved_count(pattern: str):
    """Counter (m, n) -> (count, top) of a solved pattern or of its digit swap, or None."""
    count = _shape_count(pattern)
    if count is not None:
        return count
    swapped = _shape_count(flip(pattern))
    if swapped is not None:
        return lambda m, n: swapped(n, m)
    return None


def is_solved_pattern(pattern: str) -> bool:
    """True when a closed form is shipped for the pattern."""
    return _solved_count(parse_pattern(pattern)) is not None


def _resolved(m: int, n: int, pattern: str):
    """(count, top) of a solved pattern on the family; a 0^r 1 or 101 row is built here.

    The query is checked in order: digits, family, length below N, closed form.
    """
    pattern = parse_pattern(pattern)
    N = nondegenerate_family(m, n).N
    if len(pattern) >= N:
        raise UnsupportedPattern(
            f"pattern length {len(pattern)} must be below the sequence length {N}")
    solved = _solved_count(pattern)
    if solved is None:
        raise UnsupportedPattern(f"no closed form for pattern {pattern!r}; use the oracle for it")
    return solved(m, n)


def count_pattern(m: int, n: int, pattern: str, h: int) -> int:
    """Exact number of sequences of the family with h cyclic occurrences of the pattern.

    Only the one cell is evaluated; an h outside 0..top counts nothing.
    """
    count, top = _resolved(m, n, pattern)
    return count(h) if 0 <= h <= top else 0


def pattern_distribution(m: int, n: int, pattern: str) -> CountDistribution:
    """Occurrence distribution of a solved pattern over the whole family.

    Entries run from 0 to the largest occurrence count with a nonzero count;
    interior zeros are kept so the index range is contiguous.
    """
    count, top = _resolved(m, n, pattern)
    return CountDistribution(SequenceFamily(m, n), "occurrences",
                             {h: count(h) for h in range(top + 1)})


def _joint(m: int, n: int, patterns: tuple[str, ...], cells) -> JointDistribution:
    """Joint table of the patterns, 01 first, split by the number h of blocks of ones.

    A sequence with h blocks of ones pairs a composition of its m zeros into
    h parts with one of its n ones into h parts, and (N/n) C(n, h) counts
    those pairs on the N-cycle.  cells(h) yields (rest, tableaux) pairs: the
    other patterns' occurrence counts and the zero compositions into h parts
    that give them.  Each nonzero pair becomes the entry at key (h, *rest).
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
    return total + sum(cell(h) for cell, top in (count(m, N - m) for m in range(1, N)) if h <= top)


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
