"""Arbitrary-precision integer kernel.

Binomials and the row of binomial products C(m, h) C(n, h), Stirling
numbers of the second kind, composition counts (ordered partitions, De
Moivre numbers) and exact-part partition counts, the one checked exact
division, the checked sequence family (m, n), digit pattern and pattern
query, and the immutable Record the value types are built on.
Every function here is a pure function of its arguments and exact at any
magnitude; Python ints carry the arithmetic, except where exact_decimal
lends a row walk exact decimal cells that print in linear time.
"""

import math
from collections.abc import Iterator
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate

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


def exact_div(num, den: int):
    """num / den for a division that the counting formulas guarantee to be exact.

    A remainder means a formula is wrong.  It raises InexactDivision, a
    check that python -O keeps.  num may be an integral Decimal under
    exact_decimal, whose divmod is just as exact.
    """
    q, r = divmod(num, den)
    if r:
        raise InexactDivision("a counting formula left a remainder in an exact division")
    return q


def binomial_products(m: int, n: int, one=1) -> Iterator:
    """The row C(m, h) C(n, h) for h = 0..min(m, n), starting from the cell one.

    Walked lazily by its exact ratio P(h+1) = P(h) (m-h)(n-h) / (h+1)^2, each
    step a checked exact_div, so no cell needs fresh binomials and only the
    last drawn is kept; m and n are checked at once.  The cells take the type
    of one: ints by default, Decimals when one comes from exact_decimal, whose
    context must stay open until the last cell is drawn.
    """
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got ({m}, {n})")
    return accumulate(range(min(m, n)),
                      lambda cell, h: exact_div(cell * (m - h) * (n - h), (h + 1) ** 2),
                      initial=one)


@contextmanager
def exact_decimal(N: int) -> Iterator:
    """Decimal(1) in a context that holds every integer below N^2 2^N exactly.

    CPython converts an int to decimal digits in quadratic time, a Decimal in
    linear time, so a long row that is printed is cheaper walked in Decimals.
    Every rounding, invalid operation, division by zero and overflow raises,
    so a cell is either exact or an error, never rounded.
    """
    import decimal

    bits = max(N, 1) + 2 * max(N, 1).bit_length()  # N^2 2^N < 2^bits < 10^(bits/3 + 1)
    context = decimal.Context(
        prec=min(bits // 3 + 2, decimal.MAX_PREC), Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
               decimal.DivisionByZero, decimal.Overflow],
    )
    with decimal.localcontext(context):
        yield decimal.Decimal(1)


@lru_cache(maxsize=None)
def stirling2(r: int, l: int) -> int:
    """Stirling number of the second kind S(r, l).

    S(0,0) = 1, S(r,0) = 0 for r > 0 and S(r,l) = 0 for l > r.
    """
    if r < 0 or l < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    return _stirling2_row(r)[l] if l <= r else 0


@lru_cache(maxsize=1)
def _stirling2_row(r: int) -> tuple[int, ...]:
    """S(r, 0..r), grown from row 0 by S(q, l) = l S(q-1, l) + S(q-1, l-1) in a loop."""
    row = (1,)
    for _ in range(r):
        row = (0, *(l * row[l] + row[l - 1] for l in range(1, len(row))), 1)
    return row


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


class Record:
    """An immutable value whose fields are the __slots__ of its class.

    It compares equal only to a record of its own class with equal fields,
    hashes and prints by its fields and refuses assignment, as a frozen
    dataclass does, without importing dataclasses (which loads inspect, ast
    and dis).  A subclass that checks its fields does so in __init__ before
    passing them on.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its checks, not by assignment
        return type(self), self._fields()


class SequenceFamily(Record):
    """The pair (m zeros, n ones) classifying the C(m+n, n) cyclic sequences."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError(f"need m, n >= 0 and m + n >= 1, got ({m}, {n})")
        super().__init__(m, n)

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
        raise DegenerateFamily(f"family ({m}, {n}) is constant: the closed forms need both digits")
    return family


def parse_pattern(pattern: str) -> str:
    """The pattern itself, refused unless it is a nonempty string over 0/1."""
    if not pattern or any(ch not in "01" for ch in pattern):
        raise UnsupportedPattern(f"pattern must be a nonempty string over 0/1, got {pattern!r}")
    return pattern


def pattern_family(m: int, n: int, pattern: str) -> SequenceFamily:
    """The family of a pattern query, checked in order: digits, family, length at most N."""
    parse_pattern(pattern)
    family = SequenceFamily(m, n)
    if len(pattern) > family.N:
        raise UnsupportedPattern(f"pattern length {len(pattern)} exceeds the cycle length {family.N}")
    return family
