"""Exact checks on the output of every benchmarked query.

Each check recomputes what it needs with the benchmark's own ``math.comb``
and integer arithmetic, outside the timed interval:

- entry totals against C(N, n);
- the jump first moment  sum tau T_tau = 2 N C(N-2, n-1);
- the occurrence first moment  sum h c_h = N C(N-|U|, n - ones(U))  for |U| < N;
- published cells of ``reference_tables`` where a query hits them;
- the program's closed form for solved patterns answered by the oracle;
- ising and walk floats against a log-domain evaluation from exact counts,
  at relative tolerance FLOAT_RTOL;
- verify's case counts against an enumeration of the benchmark's own.

``check_output`` returns None for a correct answer and a one-line reason
otherwise.  ``known_defect`` names the catalogued defect (see notes.json)
that explains a failed query, or returns None.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache

FLOAT_RTOL = 1e-9
# Below the normal range a double has no relative precision left to check.
FLOAT_ATOL = sys.float_info.min

# The patterns verify replays against enumeration (closed forms up to length 4).
VERIFY_PATTERNS = (
    "0", "1", "00", "01", "10", "11",
    "000", "001", "010", "011", "100", "101", "110", "111",
    "0000", "0001", "1000", "0111", "1110", "1111",
)


def comb0(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def options(argv: list[str]) -> dict[str, str]:
    """The --name value pairs of a generated argv; bare flags map to ""."""
    out = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                out[tok[2:]] = argv[i + 1]
                i += 2
                continue
            out[tok[2:]] = ""
        i += 1
    return out


def _ints(payload: dict[str, str]) -> dict[int, int]:
    return {int(k): int(v) for k, v in payload.items()}


def t_counts(m: int, n: int) -> dict[int, int]:
    """Jump distribution by the ratio T_{2h+2} = T_{2h} (m-h)(n-h) / (h(h+1))."""
    if m == 0 or n == 0:
        return {0: 1}
    out = {2: m + n}
    value = m + n
    for h in range(1, min(m, n)):
        value = value * (m - h) * (n - h) // (h * (h + 1))
        out[2 * h + 2] = value
    return out


def check_jump_distribution(m: int, n: int, dist: dict[int, int]) -> str | None:
    N = m + n
    want_keys = list(range(2, 2 * min(m, n) + 1, 2)) if m and n else [0]
    if sorted(dist) != want_keys:
        return f"jump indices {sorted(dist)[:3]}... differ from {want_keys[:3]}..."
    if sum(dist.values()) != math.comb(N, n):
        return "jump counts do not sum to C(N, n)"
    if m and n and sum(t * c for t, c in dist.items()) != 2 * N * comb0(N - 2, n - 1):
        return "jump first moment differs from 2N C(N-2, n-1)"
    return None


def check_occurrences(m: int, n: int, pattern: str, dist: dict[int, int]) -> str | None:
    N, L = m + n, len(pattern)
    if sum(dist.values()) != math.comb(N, n):
        return "occurrence counts do not sum to C(N, n)"
    if L < N:
        want = N * comb0(N - L, n - pattern.count("1"))
        if sum(h * c for h, c in dist.items()) != want:
            return "occurrence first moment differs from N C(N-|U|, n-ones(U))"
    return None


def _log_sum_exp(logs: list[float]) -> float:
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def ising_log(N: int, n: int, nu: float) -> float:
    """log of sum_tau T_tau exp((N - 2 tau) nu) over the (N - n, n) family."""
    return _log_sum_exp([math.log(c) + (N - 2 * t) * nu for t, c in t_counts(N - n, n).items()])


def walk_log(N: int, k: int, alpha: float) -> float:
    """log of sum_tau T_tau alpha^tau (1 - alpha)^(N - tau)."""
    la, lb = math.log(alpha), math.log(1.0 - alpha)
    counts = t_counts((N + k) // 2, (N - k) // 2)
    return _log_sum_exp([math.log(c) + t * la + (N - t) * lb for t, c in counts.items()])


def _float_error(what: str, got, log_want: float) -> str | None:
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return f"{what} is not a finite float"
    if log_want > math.log(sys.float_info.max) or not math.isclose(
        got, math.exp(log_want), rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL
    ):
        return f"{what} differs"
    return None


def _moment_sum(m: int, n: int, r: int) -> int:
    total, cm, cn = (1 if r == 0 else 0), 1, 1
    for h in range(1, min(m, n) + 1):
        cm = cm * (m - h + 1) // h
        cn = cn * (n - h + 1) // h
        total += h**r * cm * cn
    return total


@lru_cache(maxsize=None)
def _max_occurrences(N: int) -> dict[tuple[int, str], int]:
    """{(ones, pattern): largest cyclic occurrence count} over all words of length N."""
    patterns = [p for p in VERIFY_PATTERNS if len(p) < N]
    coded = [(p, len(p), int(p[::-1], 2)) for p in patterns]
    best: dict[tuple[int, str], int] = {}
    for word in range(1 << N):
        ones = bin(word).count("1")
        doubled = word | (word << N)
        windows = [doubled >> i for i in range(N)]
        for p, L, target in coded:
            mask = (1 << L) - 1
            h = sum(1 for w in windows if w & mask == target)
            key = (ones, p)
            if h > best.get(key, -1):
                best[key] = h
    return best


def verify_case_counts(max_n: int) -> dict[str, int]:
    """Cases each verify check must run, recomputed from the check definitions."""
    pattern_cases = 0
    for N in range(2, max_n + 1):
        best = _max_occurrences(N)
        for n in range(1, N):
            pattern_cases += sum(best[(n, p)] + 2 for p in VERIFY_PATTERNS if len(p) < N)
    return {
        "pattern closed forms vs enumeration": pattern_cases,
        "jump distributions vs enumeration": sum(N - 1 for N in range(2, max_n + 1)),
        "all-words jump totals are 2 C(N, tau)":
            sum(N // 2 for N in range(1, max(max_n, 14) + 1)),
        "type census vs enumeration": sum(N - 1 for N in range(2, min(max_n, 10) + 1)),
    }


def _check_verify(max_n: int, report: dict) -> str | None:
    if not report.get("all_equivalent"):
        return "verify reports closed forms that differ from enumeration"
    cases = {c["name"]: c["cases"] for c in report["checks"]}
    if cases != verify_case_counts(max_n):
        return f"verify case counts {cases} differ from the recount"
    if any(c["failures"] or not c["ok"] for c in report["checks"]):
        return "verify check lists failures"
    for item in report["typo_ledger"]:
        if "UNRESOLVED" in item["verdict"]:
            return f"ledger item {item['id']} is unresolved"
        if item["id"] == "joint-001-marginal-extra-cell":
            err = check_occurrences(4, 4, "001", _ints(item["oracle"]))
            if err:
                return f"ledger oracle table: {err}"
    return None


def _check_appendix(which: str, payload: list[dict]) -> str | None:
    from cycloseq import reference_tables as ref

    corrected = {
        (d["kind"], d["fixed_index"], d["cell"]): d["corrected"] for d in ref.PRINT_DEFECTS
    }
    # every matrix's rows start at 1; only c_by_i has a column 0
    col_start = 0 if which == "c_by_i" else 1
    seen = 0
    for block in payload:
        cells = ref.APPENDIX_PUBLISHED.get((which, block["fixed_index"]), {})
        for (row, col), published in cells.items():
            want = corrected.get((which, block["fixed_index"], (row, col)), published)
            try:
                got = int(block["rows"][row - 1][col - col_start])
            except IndexError:
                return f"{which} block {block['fixed_index']} lacks cell ({row}, {col})"
            if got != want:
                return f"{which} block {block['fixed_index']} cell ({row}, {col}) is {got}, published {want}"
            seen += 1
    return None if seen else f"{which}: no published cell checked"


def _check_coeff_grid(s: int, i: int, payload: dict) -> str | None:
    # Deleting s+1 columns from the C(i-1, j-1) compositions of i into j parts
    # leaves each one some dimension k, and j C(i-s-2, j-1) parts survive in all.
    for j, row in zip(payload["row_labels"], payload["rows"]):
        row = [int(v) for v in row]
        if sum(row) != (comb0(i - 1, j - 1) if j else 0):
            return f"coeff row j={j} does not sum to C(i-1, j-1)"
        if sum(k * v for k, v in enumerate(row)) != (j * comb0(i - s - 2, j - 1) if j else 0):
            return f"coeff row j={j} first moment differs from j C(i-s-2, j-1)"
    return None


def check_output(argv: list[str], stdout: bytes) -> str | None:
    """None when the output of a successful query is right, else the reason."""
    try:
        env = json.loads(stdout)
        payload = env["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    cmd, opt = argv[0], options(argv)
    try:
        return _CHECKS[cmd](opt, payload, argv)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
        return f"malformed {cmd} payload: {exc!r}"


def _tnum(opt, payload, argv):
    m, n = int(opt["m"]), int(opt["n"])
    if "tau" in opt:
        tau = int(opt["tau"])
        want = t_counts(m, n).get(tau, 0)
        return None if int(payload) == want else f"T({m},{n},{tau}) differs"
    dist = _ints(payload)
    from cycloseq import reference_tables as ref

    grid = ref.JUMP_GRID.get((m + n, m))
    if grid is not None and dist != grid:
        return "jump distribution differs from the published grid"
    return check_jump_distribution(m, n, dist)


def _dist(opt, payload, argv):
    m, n, pattern = int(opt["m"]), int(opt["n"]), opt["pattern"]
    dist = _ints(payload)
    if sorted(dist) != list(range(len(dist))):
        return "occurrence indices are not contiguous from 0"
    err = check_occurrences(m, n, pattern, dist)
    if err:
        return err
    from cycloseq import patterncounts, reference_tables as ref

    if (m, n) == (5, 3) and pattern in ref.T53_TABLE:
        if [dist.get(h, 0) for h in range(4)] != list(ref.T53_TABLE[pattern]):
            return "occurrence table differs from the published (5,3) table"
    if opt.get("via") == "oracle" and patterncounts.is_solved_pattern(pattern):
        if patterncounts.pattern_distribution(m, n, pattern).entries != dist:
            return "oracle and closed form disagree"
    return None


def _ising(opt, payload, argv):
    N, n, nu = int(opt["N"]), int(opt["n"]), float(opt["nu"])
    return _float_error("ising value", payload, ising_log(N, n, nu))


def _walk(opt, payload, argv):
    N, k, alpha = int(opt["N"]), int(opt["k"]), float(opt["alpha"])
    m, n = (N + k) // 2, (N - k) // 2
    coeffs = _ints(payload["coefficients"])
    if sum(coeffs.values()) != math.comb(N, n):
        return "walk coefficients do not sum to C(N, (N+k)/2)"
    if m and n:
        err = check_jump_distribution(m, n, coeffs)
        if err:
            return err
    err = _float_error("walk scalar", payload["scalar"], walk_log(N, k, alpha))
    if err and _float_error("walk scalar", payload["scalar"], _walk_in_doubles(N, k, alpha)) is None:
        return "walk scalar underflows"
    return err


def _walk_in_doubles(N: int, k: int, alpha: float) -> float:
    """log of the walk scalar summed term by term in doubles, as the program
    does; -inf when every term underflows to zero."""
    beta = 1.0 - alpha
    counts = sorted(t_counts((N + k) // 2, (N - k) // 2).items())
    total = math.fsum(c * alpha**t * beta ** (N - t) for t, c in counts)
    return math.log(total) if total > 0 else -math.inf


def _moments(opt, payload, argv):
    m, n, r = int(opt["m"]), int(opt["n"]), int(opt["r"])
    want = _moment_sum(m, n, r)
    if "approx" not in opt:
        return None if int(payload) == want else "moment sum differs"
    if int(payload["exact"]) != want:
        return "moment sum differs"
    num, den = (int(x) for x in payload["approx_rational"].split("/"))
    if not math.isclose(payload["approx"], num / den, rel_tol=FLOAT_RTOL):
        return "approx float differs from approx_rational"
    if r <= 1 and num != want * den:
        return "approx differs from the exact sum at r <= 1"
    return None


def _coeff(opt, payload, argv):
    if opt["kind"] != "cs" or "j" in opt:
        return f"no check for coeff {argv}"
    return _check_coeff_grid(int(opt["s"]), int(opt["i"]), payload)


def _appendix(opt, payload, argv):
    return _check_appendix(opt["which"], payload)


def _verify(opt, payload, argv):
    return _check_verify(int(opt["max-N"]), payload)


_CHECKS = {
    "tnum": _tnum, "dist": _dist, "ising": _ising, "walk": _walk, "moments": _moments,
    "coeff": _coeff, "appendix": _appendix, "verify": _verify,
}


def known_defect(argv: list[str], exit_code: int, stderr_tail: str, reason: str | None) -> str | None:
    """The notes.json id of the known defect behind a failed query, if any."""
    cmd = argv[0]
    if exit_code == 2 and cmd == "tnum" and "Exceeds the limit" in stderr_tail:
        return "tnum-str-digits"
    if cmd in ("ising", "walk", "moments") and (
        (exit_code == 1 and "OverflowError" in stderr_tail)
        or (exit_code == 0 and reason is not None and reason.endswith("is not a finite float"))
    ):
        return "float-overflow"
    if exit_code == 0 and reason == "walk scalar underflows":
        return "walk-underflow"
    return None
