"""Reference implementations the tests hold the program to.

Each one is a slower or more literal route to a count the package answers
another way; none of them is called by the package.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

from cycloseq.coeffs import c_tableau
from cycloseq.exactmath import binomial, exact_div


def compositions(w, h):
    """All compositions of w into exactly h positive parts, in lexicographic order of cut points."""
    if h < 1 or w < 1:
        if h == w == 0:
            yield ()
        return
    for cuts in combinations(range(1, w), h - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, w)))


def sequences(m, n):
    """All words with m zeros and n ones, bit i holding digit i: the reference for rotation classes."""
    yield from map(sum, combinations([1 << p for p in range(m + n)], n))


def cyclic_occurrences(word, N, pattern):
    """Number of the N cyclic windows of the word spelling the pattern, by a string scan.

    Windows may use every digit of the cycle once, so patterns up to length N
    are meaningful here.
    """
    bits = "".join(str(word >> i & 1) for i in range(N))
    return sum((bits + bits)[i : i + len(pattern)] == pattern for i in range(N))


def deletion_scan(s, top):
    """Reference for deletion_census: delete s+1 columns from each composition of each i <= top."""
    drop = s + 1
    rows, boxes = Counter(), Counter()
    for i in range(top + 1):
        for j in range(i + 1):
            for comp in compositions(i, j):
                rows[i, j, sum(part > drop for part in comp)] += 1
                boxes[i, j, sum(part - drop for part in comp if part > drop)] += 1
    return rows, boxes


def count_101(m, n, ell):
    """Sequences of the family (m, n) with exactly ell occurrences of 101, by a height sum.

    A sequence with h blocks of ones pairs a composition of its m zeros into
    h parts with a composition of its n ones into h parts, and (N/n) C(n, h)
    counts those pairs on the N-cycle.  Each block of zeros carries at most
    one 101, the blocks of a single zero, so heights below ell contribute
    nothing.
    """
    heights = range(max(ell, 1), min(m, n) + 1)
    total = sum(binomial(n, h) * c_tableau(m, h, h - ell) for h in heights)
    return exact_div((m + n) * total, n)


@cache
def stirling2_sum(r, l):
    """S(r, l) by the explicit sum (1/l!) sum_j (-1)^j C(l, j) (l - j)^r, zero for l > r."""
    terms = sum((-1) ** j * math.comb(l, j) * (l - j) ** r for j in range(l + 1))
    return terms // math.factorial(l)


def falling(x, k):
    """The falling factorial x(x-1)...(x-k+1), the empty product 1."""
    return math.prod(range(x - k + 1, x + 1))


def moment_by_stirling(m, n, r):
    """sum_h h^r C(m,h) C(n,h) by the exact identity sum_l S(r,l) (m)_l C(N-l, n-l).

    h^r = sum_l S(r,l) (h)_l, and Vandermonde sums (h)_l C(m,h) C(n,h) over h
    to (m)_l C(N-l, n-l); terms past min(m, n) vanish.
    """
    return sum(stirling2_sum(r, l) * falling(m, l) * math.comb(m + n - l, n - l)
               for l in range(min(r, m, n) + 1))


def moment_expansion(m, n, r):
    """The Stirling expansion of the moment sum, each term from fresh powers and a falling factorial.

    C(N, m) at r = 0 and (mn/N) C(N, m) at r = 1; beyond, the prefactor
    C(N, m) m^2 n^2 / (2^(r-2) N (N-1)) times sum_{l=1}^{r-1} S(r-1, l) c_l,
    with c_1 = 1 and c_l = (2mn/N)^(l-1) (N-2)_(l-2) / (N-1)^(l-2).
    """
    N = m + n
    if r == 0:
        return Fraction(math.comb(N, m))
    if r == 1:
        return Fraction(m * n * math.comb(N, m), N)
    series = Fraction(stirling2_sum(r - 1, 1))
    for l in range(2, r):
        series += (stirling2_sum(r - 1, l) * Fraction(2 * m * n, N) ** (l - 1)
                   * falling(N - 2, l - 2) / Fraction(N - 1) ** (l - 2))
    return Fraction(math.comb(N, m) * m * m * n * n, 2 ** (r - 2) * N * (N - 1)) * series
