"""Tabulated reference values that this package is expected to reproduce.

These are the historically published tables for the quantities computed
here: the jump-count grid, the (5,3) occurrence table, the approximation
rows, the quoted moment pairs, and the coefficient matrices.  A handful of
tabulated cells disagree with the defining formulas; those cells are
cataloged with both readings (PRINT_DEFECTS for the matrices, the *_BAD_CELLS
tuples for the approximations), and an independent method is the arbiter:
the enumeration oracle for counts, exact rational or high-precision
evaluation for approximations.  The `verify` command audits the full catalog.
"""

from fractions import Fraction
from math import comb

# --- jump-count grid, N = 2..10 --------------------------------------------
# {(N, m): {tau: count}} for every nonblank cell of the published grid.

JUMP_GRID: dict[tuple[int, int], dict[int, int]] = {
    (2, 1): {2: 2},
    (3, 1): {2: 3},
    (4, 2): {2: 4, 4: 2},
    (4, 1): {2: 4},
    (5, 2): {2: 5, 4: 5},
    (5, 1): {2: 5},
    (6, 3): {2: 6, 4: 12, 6: 2},
    (6, 2): {2: 6, 4: 9},
    (6, 1): {2: 6},
    (7, 3): {2: 7, 4: 21, 6: 7},
    (7, 2): {2: 7, 4: 14},
    (7, 1): {2: 7},
    (8, 4): {2: 8, 4: 36, 6: 24, 8: 2},
    (8, 3): {2: 8, 4: 32, 6: 16},
    (8, 2): {2: 8, 4: 20},
    (8, 1): {2: 8},
    (9, 4): {2: 9, 4: 54, 6: 54, 8: 9},
    (9, 3): {2: 9, 4: 45, 6: 30},
    (9, 2): {2: 9, 4: 27},
    (9, 1): {2: 9},
    (10, 5): {2: 10, 4: 80, 6: 120, 8: 40, 10: 2},
    (10, 4): {2: 10, 4: 75, 6: 100, 8: 25},
    (10, 3): {2: 10, 4: 60, 6: 50},
    (10, 2): {2: 10, 4: 35},
    (10, 1): {2: 10},
}

# --- the (5,3) occurrence table: 8 patterns x h = 0..3 ----------------------

T53_TABLE: dict[str, tuple[int, int, int, int]] = {
    "111": (48, 8, 0, 0),
    "110": (16, 40, 0, 0),
    "101": (24, 24, 8, 0),
    "100": (0, 32, 24, 0),
    "011": (16, 40, 0, 0),
    "010": (8, 32, 0, 16),
    "001": (0, 32, 24, 0),
    "000": (8, 24, 16, 8),
}

# --- approximation rows for the (5,5) family --------------------------------
# Published binomial-model row (scaled by C(10,5)) and asymptotic row.
# Cells whose published value cannot be recovered from the defining formula
# are flagged in *_BAD_CELLS.  The *_COMPUTED dicts freeze the formula values
# at double precision: the binomial row is the correctly rounded exact
# rational, the asymptotic row agrees with a 50-digit evaluation to 1e-15.

BINOMIAL_ROW_PUBLISHED: dict[int, float] = {
    0: 0.15, 2: 10.66, 4: 77.71, 6: 121.42, 8: 40.65, 10: 1.46,
}
BINOMIAL_ROW_COMPUTED: dict[int, float] = {
    0: 0.1515672445501456,
    2: 10.657071882432113,
    4: 77.70781580940083,
    6: 121.41846220218879,
    8: 40.65350296948286,
    10: 1.4115799642181548,
}
BINOMIAL_ROW_BAD_CELLS = (10,)

ASYMPTOTIC_ROW_PUBLISHED: dict[int, float] = {
    2: 8.62, 4: 80.40, 6: 127.95, 8: 34.44, 10: 1.76, 12: 0.02,
}
ASYMPTOTIC_ROW_COMPUTED: dict[int, float] = {
    2: 8.620649725316358,
    4: 85.3967152176895,
    6: 128.09507282653425,
    8: 34.482598901265405,
    10: 1.7569834126469597,
    12: 0.017351434866490142,
}
# At mu = 5/2 the exponent -tau^2/(2 mu) + 2 tau is equal at tau = 4 and 6,
# and at tau = 2 and 8, so the formula fixes t(4):t(6) = 2:3 and
# t(2):t(8) = 1:4.  Neither printed pair has that ratio even after +-0.005
# of rounding; tau = 2 reproduces, so tau = 8 is the slip in its pair.
ASYMPTOTIC_ROW_BAD_CELLS = (4, 6, 8)

# --- quoted moment pairs -----------------------------------------------------
# {(m, n, r): (divisor, exact, approximation)}: the printed moment sum
# sum_h h^r C(m,h) C(n,h) and its Stirling-expansion estimate, both divided
# by the family size C(m+n, m) where the print is per sequence.  Every
# printed exact value reproduces; pairs whose printed approximation cannot be
# recovered from the expansion are flagged in MOMENT_PAIRS_BAD_CELLS.
# MOMENT_PAIRS_COMPUTED freezes the expansion divided by the divisor, exactly.

MOMENT_PAIRS_PUBLISHED: dict[tuple[int, int, int], tuple[int, float, float]] = {
    (2, 2, 4): (comb(4, 2), 30 / 9, 29 / 9),
    (10, 10, 4): (comb(20, 10), 827.40, 827.22),
    (10, 10, 5): (comb(20, 10), 4895.51, 4891.65),
    (4, 2, 3): (1, 56.0, 58.67),
}
MOMENT_PAIRS_COMPUTED: dict[tuple[int, int, int], Fraction] = {
    (2, 2, 4): Fraction(29, 9),
    (10, 10, 4): Fraction(298625, 361),
    (10, 10, 5): Fraction(67103875, 13718),
    (4, 2, 3): Fraction(176, 3),
}
# 4891.6661 against the printed 4891.65; the other three pairs reproduce.
MOMENT_PAIRS_BAD_CELLS = ((10, 10, 5),)

# --- published coefficient matrices -----------------------------------------
# {(kind, fixed_index): {(row, col): value}}, nonblank cells only, in the
# same row/column conventions as appendix_tables.

APPENDIX_PUBLISHED: dict[tuple[str, int], dict[tuple[int, int], int]] = {}

APPENDIX_PUBLISHED[("c_by_k", 0)] = {(i, i): i for i in range(1, 13)}
APPENDIX_PUBLISHED[("c_by_k", 1)] = {
    (i, j): j for i in range(2, 13) for j in range(1, i)
}

def _rows(kind: str, fixed: int, start_col: int, rows: dict[int, list[int]]) -> None:
    cells = APPENDIX_PUBLISHED.setdefault((kind, fixed), {})
    for i, values in rows.items():
        for offset, v in enumerate(values):
            cells[(i, start_col + offset)] = v

_rows("c_by_k", 2, 2, {
    4: [1], 5: [2, 3], 6: [3, 6, 6], 7: [4, 9, 12, 10], 8: [5, 12, 18, 20, 15],
    9: [6, 15, 24, 30, 30, 21], 10: [7, 18, 30, 40, 45, 42, 28],
    11: [8, 21, 36, 50, 60, 63, 56, 36], 12: [9, 24, 42, 60, 75, 84, 84, 72, 45],
})
_rows("c_by_k", 3, 3, {
    6: [1], 7: [3, 4], 8: [6, 12, 10], 9: [10, 24, 30, 20], 10: [15, 40, 60, 60, 35],
    11: [21, 60, 100, 120, 105, 56], 12: [28, 84, 150, 200, 210, 168, 84],
})
_rows("c_by_k", 4, 4, {
    8: [1], 9: [4, 5], 10: [10, 20, 15], 11: [20, 50, 60, 35],
    12: [35, 100, 150, 140, 70],
})
_rows("c_by_k", 5, 5, {
    10: [1], 11: [5, 6], 12: [15, 30, 21],
})

# fixed-i matrices: rows are j, columns are k
APPENDIX_PUBLISHED[("c_by_i", 3)] = {(1, 1): 1, (2, 1): 2, (3, 0): 3}
APPENDIX_PUBLISHED[("c_by_i", 4)] = {
    (1, 1): 1, (2, 1): 2, (2, 2): 1, (3, 1): 3, (4, 0): 4,
}
APPENDIX_PUBLISHED[("c_by_i", 5)] = {
    (1, 1): 1, (2, 1): 2, (2, 2): 2, (3, 1): 3, (3, 2): 3, (4, 1): 4, (5, 0): 5,
}
APPENDIX_PUBLISHED[("c_by_i", 6)] = {
    (1, 1): 1, (2, 1): 2, (2, 2): 3, (3, 1): 3, (3, 2): 5, (3, 3): 1,
    (4, 1): 4, (4, 2): 6, (5, 1): 5, (6, 0): 6,
}
APPENDIX_PUBLISHED[("c_by_i", 7)] = {
    (1, 1): 1, (2, 1): 2, (2, 2): 4, (3, 1): 3, (3, 2): 9, (3, 3): 3,
    (4, 1): 4, (4, 2): 12, (4, 3): 4, (5, 1): 5, (5, 2): 10, (6, 1): 6, (7, 0): 7,
}
APPENDIX_PUBLISHED[("c_by_i", 8)] = {
    (1, 1): 1, (2, 1): 2, (2, 2): 5, (3, 1): 3, (3, 2): 12, (3, 3): 6,
    (4, 1): 4, (4, 2): 18, (4, 3): 12, (4, 4): 1, (5, 1): 5, (5, 2): 20,
    (5, 3): 10, (6, 1): 6, (6, 2): 15, (7, 1): 7, (8, 0): 8,
}
APPENDIX_PUBLISHED[("c_by_i", 9)] = {
    (1, 1): 1, (2, 1): 2, (2, 2): 6, (3, 1): 3, (3, 2): 15, (3, 3): 10,
    (4, 1): 4, (4, 2): 24, (4, 3): 24, (4, 4): 4, (5, 1): 5, (5, 2): 30,
    (5, 3): 30, (5, 4): 5, (6, 1): 6, (6, 2): 30, (6, 3): 20, (7, 1): 7,
    (7, 2): 21, (8, 1): 8, (9, 0): 9,
}
APPENDIX_PUBLISHED[("c_by_i", 10)] = {
    (1, 1): 1, (2, 1): 2, (2, 2): 7, (3, 1): 3, (3, 2): 18, (3, 3): 15,
    (4, 1): 4, (4, 2): 30, (4, 3): 40, (4, 4): 10, (5, 1): 5, (5, 2): 40,
    (5, 3): 60, (5, 4): 20, (5, 5): 1, (6, 1): 6, (6, 2): 45, (6, 3): 60,
    (6, 4): 15, (7, 1): 7, (7, 2): 42, (7, 3): 35, (8, 1): 8, (8, 2): 28,
    (9, 1): 9, (10, 0): 10,
}

APPENDIX_PUBLISHED[("cprime_by_k", 0)] = {(i, i - 1): i - 1 for i in range(2, 13)}
_rows("cprime_by_k", 1, 1, {
    3: [1], 4: [1, 2], 5: [1, 4, 3], 6: [1, 4, 9, 4], 7: [1, 4, 12, 16, 5],
    8: [1, 4, 12, 28, 25, 6], 9: [1, 4, 12, 32, 55, 36, 7],
    10: [1, 4, 12, 32, 75, 96, 49, 8], 11: [1, 4, 12, 32, 80, 156, 154, 64, 9],
    12: [1, 4, 12, 32, 80, 186, 294, 232, 81, 10],
})
_rows("cprime_by_k", 2, 2, {
    6: [1], 7: [2, 3], 8: [3, 9, 6], 9: [4, 15, 24, 10], 10: [5, 21, 48, 50, 15],
    11: [6, 27, 72, 120, 90, 21], 12: [7, 33, 96, 200, 255, 147, 28],
})
_rows("cprime_by_k", 3, 3, {
    9: [1], 10: [3, 4], 11: [6, 16, 10], 12: [10, 36, 50, 20],
})

APPENDIX_PUBLISHED[("cprime_weight", 0)] = {}
_rows("cprime_weight", 0, 1, {1: [1]})
for _i, _pairs in {
    2: [(1, 1), (2, 1)], 3: [(2, 2), (3, 1)], 4: [(2, 1), (3, 3), (4, 1)],
    5: [(3, 3), (4, 4), (5, 1)], 6: [(3, 1), (4, 6), (5, 5), (6, 1)],
    7: [(4, 4), (5, 10), (6, 6), (7, 1)], 8: [(4, 1), (5, 10), (6, 15), (7, 7), (8, 1)],
    9: [(5, 5), (6, 20), (7, 21), (8, 8), (9, 1)],
    10: [(5, 1), (6, 15), (7, 35), (8, 28), (9, 9)],
}.items():
    for _j, _v in _pairs:
        APPENDIX_PUBLISHED[("cprime_weight", 0)][(_i, _j)] = _v
for _g, _table in {
    1: {3: [(1, 1)], 4: [(2, 2)], 5: [(2, 2), (3, 3)], 6: [(3, 6), (4, 4)],
        7: [(3, 3), (4, 12), (5, 5)], 8: [(4, 12), (5, 20), (6, 6)],
        9: [(4, 4), (5, 30), (6, 30), (7, 7)], 10: [(5, 20), (6, 60), (7, 42), (8, 8)]},
    2: {4: [(1, 1)], 5: [(2, 2)], 6: [(2, 3), (3, 3)], 7: [(3, 9), (4, 4)],
        8: [(3, 6), (4, 18), (5, 5)], 9: [(4, 30), (5, 50), (6, 6)],
        10: [(4, 10), (5, 60), (6, 45), (7, 7)]},
    3: {5: [(1, 1)], 6: [(2, 2)], 7: [(2, 4), (3, 3)], 8: [(3, 12), (4, 4)],
        9: [(3, 20), (4, 24), (5, 5)], 10: [(4, 40), (5, 40), (6, 6)]},
}.items():
    APPENDIX_PUBLISHED[("cprime_weight", _g)] = {
        (_i, _j): _v for _i, _pairs in _table.items() for _j, _v in _pairs
    }

# Cells where the published print disagrees with the defining formulas.
# Every entry was arbitrated by the column-deletion enumeration oracle.
PRINT_DEFECTS: list[dict] = [
    {"kind": "c_by_i", "fixed_index": 6, "cell": (3, 2), "published": 5, "corrected": 6},
    {"kind": "cprime_weight", "fixed_index": 2, "cell": (9, 4), "published": 30, "corrected": 24},
    {"kind": "cprime_weight", "fixed_index": 2, "cell": (9, 5), "published": 50, "corrected": 30},
    {"kind": "cprime_weight", "fixed_index": 3, "cell": (9, 3), "published": 20, "corrected": 10},
]

# Beyond the cells above, the published two-deletion matrix at dimension
# index 0 prints only its first subdiagonal; the omitted nonzero cells are
# audited live in verification.typo_ledger.
