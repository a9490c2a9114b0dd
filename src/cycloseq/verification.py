"""Oracle-equivalence sweeps and the audit of known print defects.

`run_equivalence_suite` replays every shipped closed form against brute-force
enumeration up to a size bound.  `typo_ledger` evaluates each cataloged
inconsistency in the published tables and formulas: for every item it states
the published reading, the corrected reading, and the verdict of an
independent check (enumeration for counts; for the approximation rows and
moment pairs, the live formulas against the slip catalogs and the frozen
computed values).  Every suite check and every ledger verdict is one `_check`
over (case, closed, oracle) comparisons, and the pattern counts of both come
from one `_pattern_comparisons` over a census of the requested patterns.

`run_verify` does each piece of work once: it refuses a family over the
oracle cap before any sweep, enumerates each family once and lets every
tally of it read those classes, builds each pattern's distribution once per
family, and walks the compositions for the deletion matrix once.
"""

from collections.abc import Callable, Iterable
from functools import cache
from itertools import chain, product
from math import comb

from . import analytics, coeffs, oracle, patterncounts, tnumbers
from .reference_tables import (
    ASYMPTOTIC_ROW_BAD_CELLS,
    ASYMPTOTIC_ROW_COMPUTED,
    ASYMPTOTIC_ROW_PUBLISHED,
    BINOMIAL_ROW_BAD_CELLS,
    BINOMIAL_ROW_COMPUTED,
    BINOMIAL_ROW_PUBLISHED,
    MOMENT_PAIRS_BAD_CELLS,
    MOMENT_PAIRS_COMPUTED,
    MOMENT_PAIRS_PUBLISHED,
    PRINT_DEFECTS,
)

SOLVED_UP_TO_4 = [
    pattern
    for L in range(1, 5)
    for pattern in map("".join, product("01", repeat=L))
    if patterncounts.is_solved_pattern(pattern)
]


# the ledger's families that no size bound limits
MARGINAL_001_FAMILIES = ((4, 4), (5, 3), (6, 3), (3, 6))
RUN_PAIR_FAMILIES = tuple((m, n) for m in range(1, 7) for n in range(1, 7) if m + n >= 3)

ClassesOf = Callable[[int, int], list]


def _families(max_n: int) -> list[tuple[int, int]]:
    """Every nondegenerate family (m, n) with m + n <= max_n."""
    return [(m, N - m) for N in range(2, max_n + 1) for m in range(1, N)]


def _sweeps() -> ClassesOf:
    """classes(m, n): the family's rotation classes, enumerated on first use and kept.

    One verify run shares one of these, so every tally of a family reads one
    sweep of it; the classes go when the run does.
    """
    return cache(lambda m, n: list(oracle.rotation_classes(m, n)))


def _check(name: str, max_n: int, comparisons: Iterable[tuple[dict, object, object]]) -> dict:
    """Run (case, closed, oracle) comparisons; each case whose sides differ is a failure."""
    failures = []
    cases = 0
    for case, closed, brute in comparisons:
        cases += 1
        if closed != brute:
            failures.append({**case, "closed": closed, "oracle": brute})
    return {"name": name, "max_n": max_n, "cases": cases, "failures": failures, "ok": not failures}


def _pattern_comparisons(max_n: int, patterns: list[str], classes: ClassesOf):
    """Every occurrence count of the patterns shorter than N, and one more, on every family."""
    for m, n in _families(max_n):
        census = oracle.pattern_census(m, n, [p for p in patterns if len(p) < m + n],
                                       classes=classes(m, n))
        for pattern, expected in census.items():
            dist = patterncounts.pattern_distribution(m, n, pattern)
            for h in range(max(expected) + 2):
                yield ({"m": m, "n": n, "pattern": pattern, "h": h}, dist[h], expected.get(h, 0))


def _census(pairs) -> list[tuple]:
    """A type census as sorted (zero blocks, one blocks, multiplicity) rows, JSON-safe."""
    return sorted((*t, mult) for t, mult in pairs)


def run_equivalence_suite(max_n: int = 12, classes: ClassesOf | None = None) -> list[dict]:
    """Closed form vs enumeration for every family with N <= max_n.

    The all-words check compares the closed jump counts with 2 C(N, tau), the
    number of all 2^N words with tau jumps.  classes(m, n) gives each
    family's rotation classes; by default each family is swept once here.
    """
    classes = classes or _sweeps()
    totals_n, census_n = max(max_n, 14), min(max_n, 10)
    return [
        _check("pattern closed forms vs enumeration", max_n,
               _pattern_comparisons(max_n, SOLVED_UP_TO_4, classes)),
        _check("jump distributions vs enumeration", max_n, (
            ({"m": m, "n": n}, tnumbers.t_distribution(m, n).entries,
             oracle.jump_distribution(m, n, classes=classes(m, n)))
            for m, n in _families(max_n))),
        _check("all-words jump totals are 2 C(N, tau)", totals_n, (
            ({"N": N, "tau": tau}, sum(tnumbers.t_number(m, N - m, tau) for m in range(1, N)),
             2 * comb(N, tau))
            for N in range(1, totals_n + 1) for tau in range(2, N + 1, 2))),
        _check("type census vs enumeration", census_n, (
            ({"m": m, "n": n}, _census(tnumbers.type_census(m, n)),
             _census(oracle.type_census(m, n, classes=classes(m, n)).items()))
            for m, n in _families(census_n))),
    ]


def _judged(item: dict, max_n: int, comparisons, verdict: str, oracle_text: str | None = None):
    """Complete a ledger item from its (case, closed, oracle) comparisons.

    The verdict is the confirmed text when at least one comparison ran and
    every one holds.  A failing item reads UNRESOLVED and lists its failing
    cases; an item whose size bound admits no case reads UNCHECKED.  An
    oracle text, when given, reads "mismatch" or "not run" in those cases.
    """
    check = _check(item["id"], max_n, comparisons)
    if not check["ok"]:
        verdict, oracle_text = "UNRESOLVED", oracle_text and "mismatch"
    elif not check["cases"]:
        verdict, oracle_text = f"UNCHECKED: no case with N <= {max_n}", oracle_text and "not run"
    if oracle_text is not None:
        item["oracle"] = oracle_text
    item["verdict"] = verdict
    if check["failures"]:
        item["failures"] = check["failures"]
    return item


def _judged_slips(item: dict, max_n: int, published: dict, live: dict, cataloged: tuple,
                  frozen: dict, rel_tol: float) -> dict:
    """Complete a ledger item on printed approximations.

    Each printed cell is off by more than 0.01 exactly when it is cataloged,
    and each live value keeps its frozen computed value within rel_tol (0
    means exactly).
    """
    off = [({"cell": key, "check": "off by more than 0.01"},
            abs(live[key] - value) > 0.01, key in cataloged) for key, value in published.items()]
    kept = [({"cell": key, "check": "keeps its frozen value"},
             abs(value - frozen[key]) <= rel_tol * abs(frozen[key]), True)
            for key, value in live.items()]
    return _judged(item, max_n, off + kept,
                   f"cells off by more than 0.01: {sorted(cataloged)}, as cataloged")


def _corner_cells(max_n: int, classes: ClassesOf):
    """Aligned corner cells (h, m - h, 0) of the (01;001;0001) joint table."""
    for m in range(2, 9):
        for n in range(max(1, 5 - m), min(8, max_n - m) + 1):
            closed = patterncounts.triple_01_001_0001(m, n).entries
            brute = oracle.joint_distribution(m, n, ["01", "001", "0001"], classes=classes(m, n))
            for h in range((m + 1) // 2, min(m, n) + 1):
                key = (h, m - h, 0)
                yield {"m": m, "n": n, "cell": list(key)}, closed.get(key, 0), brute.get(key, 0)


def _nonzero(d: dict[int, int]) -> dict[int, int]:
    return {k: v for k, v in d.items() if v}


def typo_ledger(max_n: int = 12, classes: ClassesOf | None = None) -> list[dict]:
    """Verdicts on every cataloged inconsistency in the published material.

    classes(m, n) gives each family's rotation classes, as in
    run_equivalence_suite.
    """
    classes = classes or _sweeps()
    marginal = patterncounts.joint_01_001(4, 4).marginal(1)
    brute = oracle.pattern_distribution(4, 4, "001", classes=classes(4, 4))
    items = [
        _judged({
            "id": "joint-001-marginal-extra-cell",
            "location": "marginal row of the (4,4) joint (01;001) table",
            "published_reading": "2 56 12 9 0 (sums to 79 over a 70-sequence family)",
            "corrected_reading": "2 56 12 (all later counts vanish)",
            "oracle": {str(h): str(count) for h, count in brute.items()},
        }, max_n, [({"m": 4, "n": 4}, marginal, brute), ({"m": 4, "n": 4, "h": 3}, 0, brute.get(3, 0))],
            "published extra cell 9 is spurious"),
        _judged({
            "id": "triple-corner-binomial-sign",
            "location": "aligned corner of the (01;001;0001) joint formula",
            "published_reading": "binomial argument n - m - h (negative whenever it matters)",
            "corrected_reading": "binomial argument n - m + h",
        }, max_n, _corner_cells(max_n, classes), "sign corrected",
            "corner cells match enumeration with the + sign"),
        _judged({
            "id": "deletion-chain-direction",
            "location": "index chains in the multi-deletion occurrence formula",
            "published_reading": "chain written ascending toward the (01) count",
            "corrected_reading": "the (01) count bounds the chain from above, "
                                 "descending to the innermost index",
        }, max_n, _pattern_comparisons(min(max_n, 10), ["0001", "00001"], classes),
            "descending order confirmed",
            "inclusion-exclusion closed form matches enumeration for 0001 and 00001; "
            "tests/test_coeffs.py checks that form against the descending chain"),
        _judged({
            "id": "marginal-001-prefactor",
            "location": "first display of the (001) marginal formula",
            "published_reading": "a 1/h prefactor left outside the sum over h",
            "corrected_reading": "per-term weight N/h, equivalently (N/n) C(n,h) inside the sum",
        }, max_n, (
            ({"m": m, "n": n}, _nonzero(patterncounts.pattern_distribution(m, n, "001").entries),
             _nonzero(oracle.pattern_distribution(m, n, "001", classes=classes(m, n))))
            for m, n in MARGINAL_001_FAMILIES
        ), "prefactor canonicalized", "canonical form matches enumeration"),
        _judged({
            "id": "run-pair-identity",
            "location": "claimed pointwise equality of the (00) and (11) counts",
            "published_reading": "same-family counts equal (with a stray binomial argument m - h)",
            "corrected_reading": "equality holds across digit swap: "
                                 "(00) on (m,n) matches (11) on (n,m)",
        }, max_n, (
            ({"m": m, "n": n}, oracle.pattern_distribution(m, n, "00", classes=classes(m, n)),
             oracle.pattern_distribution(n, m, "11", classes=classes(n, m)))
            for m, n in RUN_PAIR_FAMILIES
        ), "identity holds under digit swap only", "swap identity verified by enumeration"),
    ]

    for defect in PRINT_DEFECTS:
        kind, fixed, (row, col) = defect["kind"], defect["fixed_index"], defect["cell"]
        enumerated = coeffs.appendix_cell_enumerated(kind, fixed, row, col)
        cell = {"kind": kind, "fixed_index": fixed, "cell": [row, col]}
        items.append(_judged({
            "id": f"matrix-cell-{kind}-{fixed}-{row}-{col}",
            "location": f"{kind} matrix, fixed index {fixed}, cell ({row}, {col})",
            "published_reading": str(defect["published"]),
            "corrected_reading": str(defect["corrected"]),
            "oracle": str(enumerated),
        }, max_n, [(cell, coeffs.appendix_cell(kind, fixed, row, col), enumerated),
                   (cell, defect["corrected"], enumerated)], "published cell corrected"))

    k0 = {(i, j): coeffs.c_general(1, i, j, 0) for i in range(1, 13) for j in range(1, 12)}
    enumerated, _ = coeffs.deletion_census(1, 12)
    omitted = sum(1 for (i, j), v in k0.items() if v and j != i - 1)
    items.append(_judged({
        "id": "cprime-k0-matrix-omissions",
        "location": "two-deletion matrix at dimension index 0",
        "published_reading": "only the first subdiagonal is printed",
        "corrected_reading": f"{omitted} further nonzero cells from the closed form",
    }, max_n, (
        ({"i": i, "j": j}, v, enumerated[i, j, 0]) for (i, j), v in k0.items()
    ), "published matrix incomplete", "closed form matches column-deletion enumeration"))

    scale = comb(10, 5)
    live = {tau: analytics.binomial_jump_pmf(5, 5, tau) * scale for tau in BINOMIAL_ROW_PUBLISHED}
    items.append(_judged_slips({
        "id": "binomial-row-cells",
        "location": "published binomial-model row for the (5,5) family",
        "published_reading": str(BINOMIAL_ROW_PUBLISHED),
        "corrected_reading": str({tau: round(v, 4) for tau, v in live.items()}),
        "oracle": "exact rational evaluation of the stated probability model",
    }, max_n, BINOMIAL_ROW_PUBLISHED, live, BINOMIAL_ROW_BAD_CELLS,
       BINOMIAL_ROW_COMPUTED, 1e-12))

    live = {tau: analytics.t_asymptotic(5, 5, tau) for tau in ASYMPTOTIC_ROW_PUBLISHED}
    items.append(_judged_slips({
        "id": "asymptotic-row-cells",
        "location": "published asymptotic row for the (5,5) family",
        "published_reading": str(ASYMPTOTIC_ROW_PUBLISHED),
        "corrected_reading": str({tau: round(v, 4) for tau, v in live.items()}),
        "oracle": "the entries at jump counts 4 and 6, and at 2 and 8, share their "
                  "exponential factor, so they must stand in ratios 2:3 and 1:4; "
                  "neither published pair does",
    }, max_n, ASYMPTOTIC_ROW_PUBLISHED, live, ASYMPTOTIC_ROW_BAD_CELLS,
       ASYMPTOTIC_ROW_COMPUTED, 1e-12))

    printed = {key: approx for key, (_, _, approx) in MOMENT_PAIRS_PUBLISHED.items()}
    live = {
        (m, n, r): analytics.moment_approx(m, n, r) / divisor
        for (m, n, r), (divisor, _, _) in MOMENT_PAIRS_PUBLISHED.items()
    }
    items.append(_judged_slips({
        "id": "moment-approx-pairs",
        "location": "Stirling-expansion member of the quoted moment pairs (m, n, r)",
        "published_reading": str(printed),
        "corrected_reading": "; ".join(f"{key}: {v} = {float(v):.4f}" for key, v in live.items()),
        "oracle": "exact rational evaluation of the expansion",
    }, max_n, printed, live, MOMENT_PAIRS_BAD_CELLS, MOMENT_PAIRS_COMPUTED, 0))

    return items


def run_verify(max_n: int = 12) -> dict:
    if max_n < 2:
        # below N = 2 no check has a case, and zero cases would read as ok
        raise ValueError(f"verify needs --max-N >= 2, got {max_n}")
    # an over-cap family is refused before any sweep, naming the first one the
    # checks reach: the suite's N = 2..max_n in turn, then the ledger's own families
    ledger_lengths = (m + n for m, n in MARGINAL_001_FAMILIES + RUN_PAIR_FAMILIES)
    for N in chain(range(2, max_n + 1), ledger_lengths):
        oracle.check_cap(N)
    classes = _sweeps()
    checks = run_equivalence_suite(max_n, classes)
    ledger = typo_ledger(max_n, classes)
    return {
        "max_n": max_n,
        "checks": checks,
        "typo_ledger": ledger,
        "all_equivalent": all(c["ok"] for c in checks),
    }
