"""Arbitrary-precision integer kernel.

Binomials and the row of binomial products C(m, h) C(n, h), falling
factorials, Stirling numbers of the second kind, composition counts
(ordered partitions, De Moivre numbers) and exact-part partition counts,
the one checked exact division, and the checked sequence family (m, n)
and digit pattern.  Everything here is a pure function of its arguments
and exact at any magnitude; Python ints carry the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .errors import DegenerateFamily, InexactDivision, UnsupportedPattern


def binomial(a: int, b: int) -> int:
    """C(a, b), total on its domain: 0 whenever b < 0 or b > a.

    Out-of-range indices vanish instead of erroring because the counting
    sums freely run indices past their natural bounds and rely on the
    vanishing terms.
    """
    if a < 0:
        raise ValueError(f"binomial needs a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def exact_div(num: int, den: int) -> int:
    """num / den for a division that the counting formulas guarantee to be exact.

    A remainder means a formula is wrong.  It raises InexactDivision, a
    check that python -O keeps.
    """
    q, r = divmod(num, den)
    if r:
        raise InexactDivision("a counting formula left a remainder in an exact division")
    return q


def binomial_products(m: int, n: int) -> list[int]:
    """The row C(m, h) C(n, h) for h = 0..min(m, n).

    Walked by its exact ratio P(h+1) = P(h) (m-h)(n-h) / (h+1)^2, each step
    a checked exact_div, so no cell needs fresh binomials.
    """
    if m < 0 or n < 0:
        raise ValueError(f"binomial_products needs m, n >= 0, got ({m}, {n})")
    row = [1]
    for h in range(min(m, n)):
        row.append(exact_div(row[-1] * (m - h) * (n - h), (h + 1) ** 2))
    return row


def falling_factorial(x: int, k: int) -> int:
    """x(x-1)...(x-k+1), with the empty product equal to 1."""
    if k < 0:
        raise ValueError(f"falling_factorial needs k >= 0, got k={k}")
    out = 1
    for i in range(k):
        out *= x - i
    return out


@lru_cache(maxsize=None)
def stirling2(r: int, l: int) -> int:
    """Stirling number of the second kind S(r, l).

    S(0,0) = 1, S(r,0) = 0 for r > 0 and S(r,l) = 0 for l > r.
    """
    if r < 0 or l < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    if r == 0 and l == 0:
        return 1
    if r == 0 or l == 0 or l > r:
        return 0
    return l * stirling2(r - 1, l) + stirling2(r - 1, l - 1)


def demoivre(h: int, w: int) -> int:
    """Number of compositions of w into exactly h ordered positive parts.

    Equals C(w-1, h-1).  The empty composition counts once: M(0, 0) = 1.
    This corner convention makes the column-deletion coefficients a single
    formula with no zero-index case split (see coeffs).
    """
    if h == 0 and w == 0:
        return 1
    if h <= 0 or w <= 0:
        return 0
    return binomial(w - 1, h - 1)


@lru_cache(maxsize=None)
def partition_count(h: int, w: int) -> int:
    """Number of partitions of w into exactly h positive parts, order ignored."""
    if h == 0 and w == 0:
        return 1
    if h <= 0 or w <= 0 or h > w:
        return 0
    # parts >= 1: either a part equal to 1 exists, or subtract 1 from every part
    return partition_count(h - 1, w - 1) + partition_count(h, w - h)


def compositions(w: int, h: int) -> Iterator[tuple[int, ...]]:
    """All compositions of w into exactly h positive parts, in lexicographic order of their cut points."""
    if h < 1 or w < 1:
        if h == w == 0:
            yield ()
        return
    for cuts in combinations(range(1, w), h - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, w)))


def partitions_exact(w: int, h: int, _max: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of w into exactly h parts, in descending part order."""
    if _max is None:
        _max = w
    if h <= 0:
        if h == w == 0:
            yield ()
        return
    upper = min(_max, w - h + 1)
    for first in range(upper, 0, -1):
        for rest in partitions_exact(w - first, h - 1, first):
            yield (first,) + rest


@dataclass(frozen=True)
class SequenceFamily:
    """The pair (m zeros, n ones) classifying the C(m+n, n) cyclic sequences."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError(f"need m, n >= 0 and m + n >= 1, got ({self.m}, {self.n})")

    @property
    def N(self) -> int:
        return self.m + self.n

    @property
    def is_degenerate(self) -> bool:
        """True when one digit is absent and the family holds a single constant sequence."""
        return self.m == 0 or self.n == 0

    def size(self) -> int:
        return binomial(self.N, self.m)


def nondegenerate_family(m: int, n: int) -> SequenceFamily:
    """The family (m, n), refusing it when it holds a single constant sequence."""
    family = SequenceFamily(m, n)
    if family.is_degenerate:
        raise DegenerateFamily(f"family ({m}, {n}) is constant; query the oracle instead")
    return family


def parse_pattern(pattern: str) -> str:
    """The pattern itself, refused unless it is a nonempty string over 0/1."""
    if not pattern or any(ch not in "01" for ch in pattern):
        raise UnsupportedPattern(f"pattern must be a nonempty string over 0/1, got {pattern!r}")
    return pattern
