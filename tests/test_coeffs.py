import pytest

from cycloseq.coeffs import (
    appendix_cell,
    appendix_cell_enumerated,
    appendix_tables,
    c_coeff,
    c_general,
    c_tableau,
    c_weight,
    c_weight_tableau,
    deletion_census,
)
from cycloseq.exactmath import binomial, demoivre, exact_div
from cycloseq.reference_tables import APPENDIX_PUBLISHED, PRINT_DEFECTS
from references import deletion_scan


def c_coeff_by_recurrence(i, j, k):
    """Reference route for c_coeff (matrix convention): the ratio recurrence
    in k, seeded at k = 1, where the coefficient is plainly j."""
    if i == j:
        return i if k == 0 else 0
    if k == 0 or j == 0 or k > j or k > i - j:
        return 0
    value = j  # k = 1
    for kk in range(1, k):
        value = exact_div(value * (j - kk) * (i - j - kk), kk * (kk + 1))
    return value


def test_c_coeff_examples():
    assert c_coeff(6, 2, 1) == 2
    assert c_coeff(6, 2, 2) == 3
    assert c_coeff(4, 2, 2) == 1
    assert c_coeff(10, 5, 5) == 1
    assert c_coeff(6, 2, 5) == 0


def test_diagonal_conventions():
    # matrix convention charges the single-column tableau once per cell,
    # tableau convention counts its empty remainder once
    assert c_coeff(7, 7, 0) == 7
    assert c_tableau(7, 7, 0) == 1
    assert c_coeff(7, 7, 2) == 0
    assert c_tableau(7, 7, 2) == 0


def test_recurrence_examples():
    assert c_coeff_by_recurrence(7, 3, 2) == 9
    assert c_coeff_by_recurrence(8, 4, 4) == 1
    assert c_coeff_by_recurrence(9, 4, 3) == 24


@pytest.mark.parametrize("i", range(1, 13))
def test_recurrence_equals_closed_form(i):
    for j in range(0, i + 1):
        for k in range(0, i + 1):
            assert c_coeff_by_recurrence(i, j, k) == c_coeff(i, j, k)


@pytest.mark.parametrize("i", range(1, 13))
def test_row_sum_law(i):
    # total remainders equal the composition count of the source shape
    for j in range(1, i + 1):
        total = sum(c_tableau(i, j, k) for k in range(i + 1))
        assert total == demoivre(j, i)


def test_c_prime_examples():
    # the two-deletion coefficient C' is c_general at s = 1
    assert c_general(1, 5, 2, 1) == 4
    assert c_general(1, 6, 3, 1) == 9
    assert c_general(1, 4, 2, 0) == 1
    assert c_general(1, 4, 2, 0) == binomial(2, 4 - 2)


def two_deletion_sum(i, j, k):
    """C' as the sum over the intermediate dimension f of C(j,f) C(f,k) M(k, i-j-f)."""
    return sum(
        binomial(j, f) * binomial(f, k) * demoivre(k, i - j - f)
        for f in range(k, j + 1)
        if i - j - f >= 0
    )


def test_c_general_reduces():
    assert c_general(0, 6, 2, 2) == c_coeff(6, 2, 2) == 3
    assert c_general(1, 5, 2, 1) == two_deletion_sum(5, 2, 1) == 4
    for i in range(1, 9):
        for j in range(0, i + 1):
            for k in range(0, i + 1):
                assert c_general(0, i, j, k) == c_tableau(i, j, k)
                assert c_general(1, i, j, k) == two_deletion_sum(i, j, k)


# The paper's descending chains, the reference for the inclusion-exclusion
# and restricted-composition sums: after the first deletion, each further
# deletion keeps f of the prev surviving rows and takes f boxes out of what
# is left.
def dimension_chain(depth, prev, left, k):
    """Sum over chains prev >= f_1 >= ... >= f_depth >= k with left boxes to spend."""
    if depth == 0:
        return binomial(prev, k) * demoivre(k, left)
    return sum(
        binomial(prev, f) * dimension_chain(depth - 1, f, left - f, k)
        for f in range(k, min(prev, left) + 1)
    )


def weight_chain(depth, prev, left, g):
    """Sum over chains prev >= f_1 >= ... >= f_depth spending exactly left boxes,
    closed by every remainder of weight g."""
    if depth == 0:
        return 0 if left else sum(binomial(prev, k) * demoivre(k, g) for k in range(prev + 1))
    return sum(
        binomial(prev, f) * weight_chain(depth - 1, f, left - f, g)
        for f in range(min(prev, left) + 1)
    )


# far past any enumeration: at s = 1 the chain is a sum of O(j) terms
DEEP_CHAIN_POINTS = {1: [(600, 300, 40), (1200, 500, 100), (900, 880, 3), (600, 400, 0)],
                     2: [(640, 200, 30)]}


@pytest.mark.parametrize("s", range(1, 5))
def test_restricted_compositions_equal_the_descending_chain(s):
    for i, j, k in DEEP_CHAIN_POINTS.get(s, []):
        assert c_general(s, i, j, k) == dimension_chain(s, j, i - j, k), (i, j, k)
    for i in range(1, 15):
        for j in range(0, i + 1):
            for k in range(0, i + 1):
                assert c_general(s, i, j, k) == dimension_chain(s, j, i - j, k), (i, j, k)
    for m in range(0, 15):
        for h in range(0, m + 1):
            for g in range(0, m + 1):
                want = weight_chain(s, h, m - h - g, g)
                assert c_weight_tableau(s, m, g, h) == want, (m, g, h)


@pytest.mark.parametrize("s", range(6))
def test_deletion_census_matches_a_scan_of_the_compositions(s):
    rows, boxes = deletion_census(s, 10)
    want_rows, want_boxes = deletion_scan(s, 10)
    assert rows == want_rows
    assert boxes == want_boxes


def test_c_general_deep_chain():
    assert c_general(2, 9, 3, 1) == 24
    # three extra deletions, spot-checked against direct enumeration
    rows, _ = deletion_census(3, 12)
    for i, j, k in [(9, 2, 0), (10, 2, 1), (12, 3, 2), (8, 2, 0)]:
        assert c_general(3, i, j, k) == rows[i, j, k]


def test_one_composition_walk_matches_column_deletion_enumeration():
    # the census the verify ledger reads: every composition of every i <= 12,
    # and the empty one, tallied once by dimension and once by weight
    rows, boxes = deletion_census(1, 12)
    assert (rows, boxes) == deletion_scan(1, 12)
    assert sum(rows.values()) == sum(boxes.values()) == 2**12
    # at most j parts survive, holding at most the i - j boxes past the first column
    assert set(rows) <= {(i, j, k) for i in range(13) for j in range(i + 1) for k in range(j + 1)}
    assert set(boxes) <= {(i, j, g) for i in range(13) for j in range(i + 1) for g in range(i - j + 1)}


@pytest.mark.parametrize("s", range(6))
def test_dimension_counts_match_enumeration(s):
    rows, _ = deletion_census(s, 10)
    for i in range(1, 11):
        for j in range(0, i + 1):
            for k in range(0, i + 1):
                if s == 0:
                    assert c_tableau(i, j, k) == rows[i, j, k]
                else:
                    assert c_general(s, i, j, k) == rows[i, j, k]


@pytest.mark.parametrize("s", range(6))
def test_weight_counts_match_enumeration(s):
    _, boxes = deletion_census(s, 10)
    for m in range(1, 11):
        for h in range(1, m + 1):
            for g in range(0, m + 1):
                assert c_weight_tableau(s, m, g, h) == boxes[m, h, g]


def test_c_weight_examples():
    assert c_weight(1, 7, 3, 3) == 3
    assert c_weight(1, 7, 2, 3) == 9
    for h in range(1, 8):
        assert c_weight(0, 7, 3, h) == binomial(6, 3)


def test_weight_index_range_law():
    # one extra deletion: nonzero weights lie in max(0, m-2h) .. m-h-1,
    # plus the empty remainder at weight 0 when m <= 2h
    for m in range(2, 11):
        for h in range(1, m + 1):
            lo, hi = max(0, m - 2 * h), m - h - 1
            for g in range(0, m + 1):
                v = c_weight_tableau(1, m, g, h)
                if v:
                    assert lo <= g <= max(hi, 0)


def test_appendix_published_cells():
    defects = {
        (d["kind"], d["fixed_index"], d["cell"]): d for d in PRINT_DEFECTS
    }
    checked = 0
    for (kind, fixed), cells in APPENDIX_PUBLISHED.items():
        for (row, col), published in cells.items():
            computed = appendix_cell(kind, fixed, row, col)
            defect = defects.get((kind, fixed, (row, col)))
            if defect is None:
                assert computed == published, (kind, fixed, row, col)
            else:
                assert computed == defect["corrected"]
                assert published == defect["published"] != defect["corrected"]
            checked += 1
    assert checked > 300


def test_appendix_cells_equal_their_enumeration():
    # every emitted cell but the matrix-convention corner c(i, i, 0), i >= 2
    corners = {"c_by_k": 0, "c_by_i": 0}
    for kind in ("c_by_k", "c_by_i", "cprime_by_k", "cprime_weight"):
        for block in appendix_tables(kind):
            fixed = block["fixed_index"]
            for row, values in enumerate(block["rows"], start=1):
                for col, value in enumerate(values, start=0 if kind == "c_by_i" else 1):
                    enumerated = appendix_cell_enumerated(kind, fixed, row, col)
                    if value == enumerated:
                        continue
                    i, j, k = (fixed, row, col) if kind == "c_by_i" else (row, col, fixed)
                    assert kind in corners and i == j >= 2 and k == 0, (kind, fixed, row, col)
                    assert (value, enumerated) == (i, 1)
                    corners[kind] += 1
    assert corners == {"c_by_k": 11, "c_by_i": 8}


def test_appendix_rows_shape():
    blocks = appendix_tables("c_by_k", 2)
    assert len(blocks) == 1
    block = blocks[0]
    assert block["fixed_index"] == 2
    assert block["rows"][11] == [0, 9, 24, 42, 60, 75, 84, 84, 72, 45, 0, 0]
    blocks = appendix_tables("c_by_i", 3)
    assert blocks[0]["rows"][0] == [0, 1, 0, 0, 0, 0]
    assert blocks[0]["rows"][2] == [3, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        appendix_tables("nope")
    with pytest.raises(ValueError):
        appendix_tables("c_by_k", 9)


def test_appendix_cprime_row():
    blocks = appendix_tables("cprime_by_k", 3)
    row12 = blocks[0]["rows"][11]
    assert row12 == [0, 0, 10, 36, 50, 20, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_pascal_identity(k):
    # the two-deletion matrix is the one-deletion matrix times the upper
    # Pascal matrix, both in tableau convention (the k = 0 corner counts the
    # empty remainder once)
    for i in range(1, 13):
        for j in range(0, i + 1):
            right = sum(c_tableau(i - j, f, k) * binomial(j, f) for f in range(0, j + 1))
            assert c_general(1, i, j, k) == right, (i, j)


@pytest.mark.parametrize("i, j, k", [(-1, 0, 0), (3, -1, 0), (3, 1, -1)])
def test_c_tableau_refuses_a_negative_index(i, j, k):
    with pytest.raises(ValueError, match="indices must be nonnegative") as exc:
        c_tableau(i, j, k)
    assert exc.type is ValueError
