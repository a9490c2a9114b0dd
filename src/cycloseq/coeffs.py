"""Column-deletion coefficients on ordered-partition tableaux.

Draw a composition of i into j ordered positive parts as rows of boxes and
delete its first c = s+1 columns.  For each source composition the remainder
is another composition; these coefficients count remainders by dimension
(number of surviving rows, index k) or by weight (number of surviving
boxes, index g), with multiplicity over the source compositions.

A row survives when its part is longer than c.  Taking c boxes from each of
u marked parts leaves a composition of i - c u, so C(j, u) M(j, i - c u)
compositions have u of their surviving rows marked, M being the composition
count, and inclusion-exclusion (Stanley, EC1 2.1) turns them into
`c_general`.  By weight, the k surviving parts keep their excess over
c, a composition of g into k parts, and the other j-k parts hold 1..c boxes
each: `c_weight_tableau` sums C(j, k) M(k, g) R_c(j-k, i - g - c k) over k,
with R_c(q, v) the compositions of v into q parts of size 1..c.

Two conventions coexist for the corner c(i, i, 0).  The tabulated matrices
define it as i (each single-column tableau is charged once per cell), while
the occurrence formulas need the plain remainder count 1.  `c_tableau` counts
remainders, and everything that feeds sequence counting uses it; `c_coeff` is
`c_tableau` with the matrix-convention corner.
"""

from collections import Counter
from functools import lru_cache
from itertools import accumulate

from .exactmath import binomial, demoivre


def c_tableau(i: int, j: int, k: int) -> int:
    """Dimension-k remainders after one column deletion: C(j, k) * M(k, i - j).

    The demoivre convention M(0, 0) = 1 makes this a single formula with no
    k = 0 case split; in particular c_tableau(i, i, 0) = 1.
    """
    if i < 0 or j < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    return binomial(j, k) * demoivre(k, i - j) if i >= j else 0


def c_coeff(i: int, j: int, k: int) -> int:
    """One-column-deletion coefficient in the matrix convention.

    (k/(i-j)) C(j,k) C(i-j,k) for j < i and i*delta(0,k) on the diagonal:
    c_tableau everywhere but the corner c(i, i, 0), where c_tableau counts
    the single empty remainder once and the matrices charge it i times.
    """
    if i < 1 or j < 0 or k < 0:
        raise ValueError(f"need i >= 1, j >= 0, k >= 0, got ({i}, {j}, {k})")
    return i if i == j and k == 0 else c_tableau(i, j, k)


# Rows q = 0, 1, ... of R_c for each (c, top), as far as c_weight_tableau has
# built them.  Row q holds R_c(q, v) at offset v - q, for v = q..min(c q, top)
# where it can be nonzero.  It is a windowed prefix sum of row q-1: R_c(q, v)
# is the sum of R_c(q-1, u) over v-c <= u < v.
_SHORT_PART_ROWS: dict[tuple[int, int], list[list[int]]] = {}


def c_general(s: int, i: int, j: int, k: int) -> int:
    """Dimension-k remainders after deleting s+1 columns (tableau counting).

    The compositions of i into j parts with exactly k parts longer than s+1:
    the sum of (-1)^(u-k) C(u, k) C(j, u) M(j, i - (s+1) u) over the u marked
    parts, k <= u <= min(j, (i - j) // (s+1)).  s = 0 is c_tableau; s = 1 is
    the two-deletion coefficient C'.
    """
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    if i < 1 or j < 0 or k < 0:
        raise ValueError(f"need i >= 1, j >= 0, k >= 0, got ({i}, {j}, {k})")
    return sum((-1) ** (u - k) * binomial(u, k) * binomial(j, u) * demoivre(j, i - (s + 1) * u)
               for u in range(k, min(j, (i - j) // (s + 1)) + 1))


def c_weight_tableau(s: int, m: int, g: int, h: int) -> int:
    """Weight-g remainders after deleting s+1 columns from height-h tableaux of m.

    The sum of C(h, k) M(k, g) R_c(h-k, m - g - c k) over k <= min(h, g,
    (m - g - h) // s), from k = 1 when g > 0, where M(0, g) = 0; zero unless
    h <= m - g <= (s+1) h.  For s = 0 the remainder weight is forced to
    m - h: the count is M(h, m) at g = m - h and zero elsewhere.
    """
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    if m < 0 or g < 0 or h < 0:
        raise ValueError("indices must be nonnegative")
    if s == 0:
        return demoivre(h, m) if g == m - h else 0
    if not h <= m - g <= (s + 1) * h:
        return 0
    c, ks = s + 1, range(min(g, 1), min(h, g, (m - g - h) // s) + 1)
    rows = _SHORT_PART_ROWS.setdefault((c, m), [[1]])
    while ks and len(rows) <= h - ks.start:
        prefix = [0, *accumulate(rows[-1] + [0] * c)]
        width = min(c * len(rows), m) - len(rows) + 1
        rows.append([prefix[t] - prefix[max(t - c, 0)] for t in range(1, width + 1)])
    return sum(binomial(h, k) * demoivre(k, g) * rows[h - k][m - g - s * k - h] for k in ks)


def c_weight(s: int, m: int, g: int, h: int) -> int:
    """Weight-indexed deletion coefficient.

    s = 0 returns C(m-1, g) independently of h (counting runs over all
    heights at once in that case); s >= 1 returns the per-height tableau
    count, identical to c_weight_tableau.  Every s refuses negative g and h.
    """
    if s != 0:
        return c_weight_tableau(s, m, g, h)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if g < 0 or h < 0:
        raise ValueError("indices must be nonnegative")
    return binomial(m - 1, g)


@lru_cache(maxsize=None)
def deletion_census(s: int, top: int) -> tuple[Counter, Counter]:
    """Column-deletion counts by brute force: (rows, boxes) at every i <= top.

    The compositions with j parts are those with j - 1 parts and one part
    appended; each one of every i <= top, the empty one included, is built
    once and tallied twice, by the parts longer than s+1 that survive the
    deletion in rows[i, j, k] and by the boxes past column s+1 in
    boxes[i, j, g].  A cell not listed is zero.  The tallies are cached and
    shared, so callers only read them.
    """
    drop = s + 1
    rows, boxes = Counter({(0, 0, 0): 1}), Counter({(0, 0, 0): 1})
    level, j = [(0, 0, 0)], 0  # (i, k, g) of each composition with j parts
    while level:
        j += 1
        level = [(i + part, k + 1, g + part - drop) if part > drop else (i + part, k, g)
                 for i, k, g in level for part in range(1, top - i + 1)]
        rows.update((i, j, k) for i, k, _ in level)
        boxes.update((i, j, g) for i, _, g in level)
    return rows, boxes


# --- matrix emission -------------------------------------------------------

_MATRICES = {
    # kind: (fixed index values, row range, column range, closed form, and
    # column-deletion enumeration; both forms are functions of (fixed, row, col))
    "c_by_k": (range(0, 6), range(1, 13), range(1, 13),
               lambda k, i, j: c_coeff(i, j, k), lambda k, i, j: deletion_census(0, i)[0][i, j, k]),
    "c_by_i": (range(3, 11), range(1, 11), range(0, 6),
               c_coeff, lambda i, j, k: deletion_census(0, i)[0][i, j, k]),
    "cprime_by_k": (range(0, 4), range(1, 13), range(1, 12),
                    lambda k, i, j: c_general(1, i, j, k),
                    lambda k, i, j: deletion_census(1, i)[0][i, j, k]),
    "cprime_weight": (range(0, 4), range(1, 11), range(1, 10),
                      lambda g, m, h: c_weight_tableau(1, m, g, h),
                      lambda g, m, h: deletion_census(1, m)[1][m, h, g]),
}
APPENDIX_KINDS = tuple(_MATRICES)


def _matrix(kind: str) -> tuple:
    if kind not in _MATRICES:
        raise ValueError(f"unknown matrix kind {kind!r}; expected one of {APPENDIX_KINDS}")
    return _MATRICES[kind]


def appendix_cell(kind: str, fixed: int, row: int, col: int) -> int:
    """Single cell of an emitted matrix, in that matrix's own row/column convention."""
    return _matrix(kind)[3](fixed, row, col)


def appendix_cell_enumerated(kind: str, fixed: int, row: int, col: int) -> int:
    """The same cell by brute-force column deletion (tableau counting); it differs
    from appendix_cell only at the matrix-convention corner c(i, i, 0), i >= 2."""
    return _matrix(kind)[4](fixed, row, col)


def appendix_tables(kind: str, index: int | None = None) -> list[dict]:
    """Emit coefficient matrices as {kind, fixed_index, rows} dictionaries.

    Rows are dense integer grids; structural zeros are plain 0 here and
    become blanks only in the human-readable rendering.
    """
    fixed_values, row_range, col_range, _, _ = _matrix(kind)
    if index is not None:
        if index not in fixed_values:
            raise ValueError(f"index {index} out of range for {kind}")
        fixed_values = [index]
    out = []
    for fixed in fixed_values:
        rows = [
            [appendix_cell(kind, fixed, r, c) for c in col_range] for r in row_range
        ]
        out.append({"kind": kind, "fixed_index": fixed, "rows": rows})
    return out
