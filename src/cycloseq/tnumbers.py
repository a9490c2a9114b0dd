"""Jump-count distributions over a family of cyclic binary sequences.

A sequence of m zeros and n ones, read cyclically, has an even number tau
of boundaries between unequal adjacent digits.  The count of sequences with
a given tau has the closed form (tau/2) * (1/m + 1/n) * C(m, tau/2) * C(n, tau/2);
this module evaluates it exactly, one point or a whole row walked one cell
at a time along the row of binomial products, with the census of sequences
by block-structure type.
"""

import math
from collections import Counter
from collections.abc import Iterator
from itertools import product

from .errors import InvalidTau
from .exactmath import (
    Record, SequenceFamily, binomial, binomial_products, exact_div, nondegenerate_family,
    partitions_exact,
)


class CountDistribution(Record):
    """Exact map from an integer index to a count, with declared index semantics.

    Fields: family (a SequenceFamily), index_kind ("tau" or "occurrences")
    and entries, the dict from index to count.
    """

    __slots__ = ("family", "index_kind", "entries")

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def __getitem__(self, index: int) -> int:
        return self.entries.get(index, 0)


def _check_tau(tau: int) -> int:
    if tau < 2 or tau % 2 != 0:
        raise InvalidTau(f"jump count must be even and >= 2, got {tau}")
    return tau // 2


def t_number(m: int, n: int, tau: int) -> int:
    """Number of sequences with m zeros, n ones and exactly tau cyclic jumps."""
    nondegenerate_family(m, n)
    h = _check_tau(tau)
    return exact_div((m + n) * h * binomial(m, h) * binomial(n, h), m * n)


def jump_row(m: int, n: int, one=1) -> Iterator[tuple]:
    """The family's (tau, count) cells in increasing tau, each walked as it is drawn.

    The family is checked at once.  A degenerate family gives the one cell
    (0, one).  The counts take the type of one, as in binomial_products.
    """
    if SequenceFamily(m, n).is_degenerate:
        return iter([(0, one)])
    N, mn = m + n, m * n
    cells = enumerate(binomial_products(m, n, one))
    next(cells)  # h = 0: every sequence of both digits has a jump
    return ((2 * h, exact_div(N * h * p, mn)) for h, p in cells)


def t_distribution(m: int, n: int) -> CountDistribution:
    """Full jump distribution of the family, the int cells of jump_row kept as a dict."""
    return CountDistribution(SequenceFamily(m, n), "tau", dict(jump_row(m, n)))


def _type_multiplicity(N: int, zeros: tuple[int, ...], ones: tuple[int, ...]) -> int:
    """Sequences carrying a given type: N h! (h-1)! over the block-repetition factorials."""
    h = len(zeros)
    denom = math.prod(
        math.factorial(count) for blocks in (zeros, ones) for count in Counter(blocks).values()
    )
    return exact_div(N * math.factorial(h) * math.factorial(h - 1), denom)


def type_census(m: int, n: int) -> list[tuple[tuple, int]]:
    """All block-structure types of the family with their sequence multiplicities.

    A type is the pair (zero blocks, one blocks) of descending block-length
    partitions of equal height.  Rows ((zero blocks, one blocks), multiplicity)
    are listed in lexicographic order of (height, zero blocks, one blocks);
    multiplicities sum to C(m+n, m).
    """
    N = nondegenerate_family(m, n).N
    return [
        ((zeros, ones), _type_multiplicity(N, zeros, ones))
        for h in range(1, min(m, n) + 1)
        for zeros, ones in sorted(product(partitions_exact(m, h), partitions_exact(n, h)))
    ]
