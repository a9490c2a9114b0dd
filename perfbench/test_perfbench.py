"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _output(payload) -> bytes:
    return json.dumps({"command": "x", "params": {}, "format_version": "1",
                       "provenance": "closed-form", "payload": payload}).encode()


def _dist(counts: dict[int, int]) -> dict[str, str]:
    return {str(k): str(v) for k, v in counts.items()}


def test_same_seed_gives_same_queries():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7, rounds=5) == workloads.generate(name, 7, rounds=5)
    assert workloads.generate("closed_large", 7, rounds=5) != workloads.generate("closed_large", 8, rounds=5)


def test_corrupted_count_is_a_failed_query():
    argv = ["tnum", "--m", "7", "--n", "5", "--format", "json"]
    counts = checks.t_counts(7, 5)
    assert run.judge(argv, 0, _output(_dist(counts)), "") == {
        "reason": None, "ok": True, "defect": None, "unexplained": False}
    for delta in ({4: 1}, {4: 1, 6: -1}):  # the second keeps the total
        bad = {k: v + delta.get(k, 0) for k, v in counts.items()}
        verdict = run.judge(argv, 0, _output(_dist(bad)), "")
        assert not verdict["ok"] and verdict["unexplained"] and verdict["defect"] is None


def test_verify_mismatch_makes_the_run_incorrect():
    argv = ["verify", "--max-N", "9", "--format", "json"]
    report = {"max_n": 9, "all_equivalent": False, "checks": [], "typo_ledger": []}
    verdict = run.judge(argv, 1, _output(report), "")
    assert verdict["unexplained"] and "differ from enumeration" in verdict["reason"]
    # exit 1 on a report that claims every closed form agrees is no better
    report["all_equivalent"] = True
    assert run.judge(argv, 1, _output(report), "")["unexplained"]


def test_unexpected_exits_make_the_run_incorrect():
    argv = ["dist", "--m", "5", "--n", "3", "--pattern", "01", "--format", "json"]
    for code, tail in ((1, "ZeroDivisionError: division by zero"), (2, "usage error: bad"),
                       (3, "error: outside the domain"), (-9, "")):
        verdict = run.judge(argv, code, b"", tail)
        assert verdict["unexplained"] and verdict["reason"] == f"exit {code}: {tail}"
    # the overflow catalogued for the float commands is not excused elsewhere
    assert run.judge(argv, 1, b"", "OverflowError: int too large")["unexplained"]
    # a deadline kill fails the query but is a matter of time, not of answers
    verdict = run.judge(argv, -9, b"", "", timed_out=True)
    assert not verdict["ok"] and not verdict["unexplained"]


def test_known_defects_fail_without_making_the_run_incorrect():
    argv = ["tnum", "--m", "8000", "--n", "8000", "--tau", "8000", "--format", "json"]
    tail = "usage error: Exceeds the limit (4300 digits) for integer string conversion"
    verdict = run.judge(argv, 2, b"", tail)
    assert verdict == {"reason": f"exit 2: {tail}", "ok": False, "defect": "tnum-str-digits",
                       "unexplained": False}

    argv = ["ising", "fixed", "--N", "2000", "--n", "1000", "--nu", "1", "--format", "json"]
    verdict = run.judge(argv, 1, b"", "OverflowError: int too large to convert to float")
    assert verdict["defect"] == "float-overflow" and not verdict["unexplained"]

    argv = ["walk", "--N", "2000", "--k", "1740", "--alpha", "0.4", "--format", "json"]
    coefficients = _dist(checks.t_counts(1870, 130))
    verdict = run.judge(argv, 0, _output({"coefficients": coefficients, "scalar": 0.0}), "")
    assert verdict["defect"] == "walk-underflow" and not verdict["unexplained"]

    # a wrong scalar with nothing to underflow stays a wrong answer
    argv = ["walk", "--N", "7", "--k", "1", "--alpha", "0.3", "--format", "json"]
    coefficients = _dist(checks.t_counts(4, 3))
    scalar = math.exp(checks.walk_log(7, 1, 0.3))
    assert run.judge(argv, 0, _output({"coefficients": coefficients, "scalar": scalar}), "")["ok"]
    verdict = run.judge(argv, 0, _output({"coefficients": coefficients, "scalar": scalar * 1.01}), "")
    assert verdict["unexplained"] and verdict["defect"] is None


def test_timed_queries_stay_where_the_program_can_answer():
    # The catalogued defects are reproduced by the probes in notes.json; no
    # timed closed_large query may reach them, or the count of failed
    # queries would depend on how many fit in a run.
    top, bottom = math.log(1e300), math.log(1e-300)
    for seed in range(10):
        for argv in workloads.generate("closed_large", seed, rounds=20):
            opt = checks.options(argv)
            if argv[0] == "tnum" and "tau" in opt:
                m, n = int(opt["m"]), int(opt["n"])
                assert math.comb(m + n, n).bit_length() * math.log10(2) < 4300
            elif argv[0] == "ising":
                assert checks.ising_log(int(opt["N"]), int(opt["n"]), float(opt["nu"])) < top
            elif argv[0] == "walk":
                N, k, alpha = int(opt["N"]), int(opt["k"]), float(opt["alpha"])
                exact = checks.walk_log(N, k, alpha)
                assert bottom < exact < top
                assert math.isclose(checks._walk_in_doubles(N, k, alpha), exact, rel_tol=1e-12)
            elif argv[0] == "moments" and "approx" in opt:
                assert checks._moment_sum(int(opt["m"]), int(opt["n"]), int(opt["r"])) < 10**300


def test_probes_reach_their_defects():
    notes = json.loads((HERE / "notes.json").read_text())
    for defect in notes["known_defects"]:
        for argv in defect["probes"]:
            opt = checks.options(argv)
            if defect["id"] == "tnum-str-digits":
                m, n = int(opt["m"]), int(opt["n"])
                assert checks.t_counts(m, n)[int(opt["tau"])].bit_length() * math.log10(2) > 4300
            elif defect["id"] == "walk-underflow":
                N, k, alpha = int(opt["N"]), int(opt["k"]), float(opt["alpha"])
                assert checks._walk_in_doubles(N, k, alpha) == -math.inf
                assert checks.walk_log(N, k, alpha) > math.log(sys.float_info.min)
            elif argv[0] == "ising":
                ising = checks.ising_log(int(opt["N"]), int(opt["n"]), float(opt["nu"]))
                assert ising > math.log(sys.float_info.max)
            elif argv[0] == "walk":
                N, k = int(opt["N"]), int(opt["k"])
                assert math.comb(N, (N - k) // 2) > sys.float_info.max
            else:
                m, n, r = int(opt["m"]), int(opt["n"]), int(opt["r"])
                assert checks._moment_sum(m, n, r) > sys.float_info.max


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(100) == (90, 90)
    assert run.tail_percentile(1000) == (99, 990)
    assert run.tail_percentile(37) == (72, 27)
    assert run.tail_percentile(11) == (9, 1)
    assert run.tail_percentile(10) is None
    for n in range(11, 3000):
        p, rank = run.tail_percentile(n)
        assert n - rank >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10


def test_metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert end_to_end == set(run.END_TO_END_UNITS)
    assert per_layer == set(run.per_layer_units())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        units = run.END_TO_END_UNITS if metric["name"] in end_to_end else run.per_layer_units()
        assert metric["unit"] == units[metric["name"]]


def test_checks_accept_the_published_tables():
    from cycloseq import reference_tables as ref

    for (N, m), dist in ref.JUMP_GRID.items():
        assert checks.check_jump_distribution(m, N - m, dist) is None
    for pattern, row in ref.T53_TABLE.items():
        assert checks.check_occurrences(5, 3, pattern, dict(enumerate(row))) is None


def test_verify_case_recount_matches_the_suite():
    from cycloseq import verification

    for max_n in (4, 7):
        suite = verification.run_equivalence_suite(max_n)
        assert {c["name"]: c["cases"] for c in suite} == checks.verify_case_counts(max_n)
