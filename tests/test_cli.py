import ast
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycloseq
from cycloseq import exactmath, oracle, patterncounts, tnumbers, verification
from cycloseq.cli import main
from cycloseq.errors import InexactDivision

SRC = str(Path(cycloseq.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_tnum_distribution(capsys):
    env = run_json(capsys, "tnum", "--m", "3", "--n", "4")
    assert env["payload"] == {"2": "7", "4": "21", "6": "7"}
    assert env["provenance"] == "closed-form"
    assert env["format_version"] == "1"


def _tnum_output_matches_the_int_walk(capsys, m, n):
    # the CLI walks the row in Decimals; the default int walk is the oracle
    expected = [(str(k), str(v)) for k, v in sorted(tnumbers.t_distribution(m, n).entries.items())]
    argv = ["tnum", "--m", str(m), "--n", str(n), "--format"]
    env = run_json(capsys, *argv[:-1])
    assert env["payload"] == dict(expected)
    code, out, err = run(capsys, *argv, "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["index,value", *(f"{k},{v}" for k, v in expected)]
    code, out, err = run(capsys, *argv, "pretty")
    assert (code, err) == (0, "")
    width = max(len(k) for k, _ in expected)
    assert out.splitlines()[1:] == [f"{k.rjust(width)}  {v}" for k, v in expected]


def test_tnum_prints_the_int_walk_on_every_small_family(capsys):
    for m in range(26):
        for n in range(26):
            if m + n:
                _tnum_output_matches_the_int_walk(capsys, m, n)


@pytest.mark.parametrize("m, n", [(1, 4000), (4000, 1), (2050, 2080)])
def test_tnum_prints_the_int_walk_on_large_families(capsys, m, n):
    _tnum_output_matches_the_int_walk(capsys, m, n)


# a small interpreter starts the query and reads its peak RSS from wait4: a
# child started from the test process would take that process's peak as its own
PEAK_RSS_PROBE = """import os, sys
argv = [sys.executable, "-m", "cycloseq.cli", *sys.argv[1:]]
pid = os.posix_spawn(sys.executable, argv, os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(*argv):
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", PEAK_RSS_PROBE, *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=120)
    code, kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kb


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kilobytes, as Linux has it")
def test_tnum_streams_a_long_row_in_the_memory_of_a_short_one():
    # the row is walked while it is written, so no more than one count is alive at a time
    short = _peak_rss_kb("tnum", "--m", "60", "--n", "60", "--format", "json")
    long = _peak_rss_kb("tnum", "--m", "6000", "--n", "6000", "--format", "json")
    assert long - short <= 2048, (short, long)


def test_an_engine_defect_mid_row_ends_in_a_traceback_after_a_partial_envelope(capsys,
                                                                               monkeypatch):
    # the row is walked as it is written, so a remainder in the walk, which is a
    # defect and no refusal, surfaces after the cells before it
    def spy(num, den):
        if den == 9:  # the step to C(5, 3)^2, the product of the tau = 6 cell
            raise InexactDivision("a counting formula left a remainder in an exact division")
        return num // den

    monkeypatch.setattr(exactmath, "exact_div", spy)
    with pytest.raises(InexactDivision):
        main(["tnum", "--m", "5", "--n", "5", "--format", "csv"])
    assert capsys.readouterr().out == (
        '# tnum {"m": 5, "n": 5} v1 closed-form\nindex,value\n2,10\n4,80\n')


def test_tnum_point(capsys):
    env = run_json(capsys, "tnum", "--m", "5", "--n", "5", "--tau", "6")
    assert env["payload"] == "120"
    assert run(capsys, "tnum", "--m", "5", "--n", "5", "--tau", "6") == (
        0, '# tnum {"m": 5, "n": 5, "tau": 6} (closed-form)\n120\n', "")


def test_tnum_beyond_the_int_str_digit_limit(capsys):
    # the count has 4813 digits, past CPython's default int-to-str limit of 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    env = run_json(capsys, "tnum", "--m", "8000", "--n", "8000", "--tau", "8000")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored
    value = tnumbers.t_number(8000, 8000, 8000)
    assert len(env["payload"]) == 4813
    # the expected digits, converted in 1000-digit chunks that each stay within the limit
    assert env["payload"] == "".join(
        str(value // 10**e % 10**1000).zfill(1000) for e in range(4000, -1, -1000)
    ).lstrip("0")


def test_dist_closed(capsys):
    env = run_json(capsys, "dist", "--m", "5", "--n", "3", "--pattern", "000")
    assert env["payload"] == {"0": "8", "1": "24", "2": "16", "3": "8"}


def test_dist_oracle_identical(capsys):
    for pattern in ("01", "000", "001", "101", "0001"):
        closed = run_json(capsys, "dist", "--m", "5", "--n", "3", "--pattern", pattern)
        brute = run_json(
            capsys, "dist", "--m", "5", "--n", "3", "--pattern", pattern, "--via", "oracle"
        )
        assert closed["payload"] == brute["payload"]
        assert brute["provenance"] == "oracle"


SOLVED = [
    "0", "1", "00", "01", "10", "11",
    "000", "001", "010", "011", "100", "101", "110", "111",
    "0000", "0001", "1000", "0111", "1110", "1111",
]


def test_dist_routes_agree_across_families(capsys):
    # both CLI routes emit byte-identical payloads for every solved pattern
    for N in range(2, 9):
        for m in range(1, N):
            for pattern in SOLVED:
                if len(pattern) >= N:
                    continue
                args = ["dist", "--m", str(m), "--n", str(N - m), "--pattern", pattern]
                closed = run_json(capsys, *args)
                brute = run_json(capsys, *args, "--via", "oracle")
                assert closed["payload"] == brute["payload"], (m, N - m, pattern)


def test_dist_unsupported_pattern_exit_3(capsys):
    for fmt in ("json", "csv", "pretty"):
        code, out, err = run(capsys, "dist", "--m", "4", "--n", "4", "--pattern", "0110",
                             "--format", fmt)
        assert (code, out) == (3, "")
        assert "oracle" in err
    env = run_json(
        capsys, "dist", "--m", "4", "--n", "4", "--pattern", "0110", "--via", "oracle"
    )
    assert env["provenance"] == "oracle"
    assert env["payload"] == {"0": "34", "1": "24", "2": "12"}


def test_domain_error_exit_3(capsys):
    # a constant family still has a distribution, but no point query
    env = run_json(capsys, "tnum", "--m", "0", "--n", "5")
    assert env["payload"] == {"0": "1"}
    code, out, err = run(capsys, "tnum", "--m", "0", "--n", "5", "--tau", "2")
    assert (code, out) == (3, "") and "constant" in err
    code, out, err = run(capsys, "tnum", "--m", "3", "--n", "4", "--tau", "3")
    assert (code, out) == (3, "")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tnum", "--m", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ising", "fixed", "--N", "6", "--nu", "0.5"])  # missing --n
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    # out-of-range numerics are usage errors, not tracebacks, refused before the
    # first byte of the row that tnum writes as it walks it
    for fmt in ("json", "csv", "pretty"):
        for m, n in (("0", "0"), ("-3", "3"), ("3", "-3")):
            code, out, err = run(capsys, "tnum", "--m", m, "--n", n, "--format", fmt)
            assert (code, out) == (2, "") and "usage error" in err, (m, n, fmt)
    code, _, err = run(capsys, "fib", "--N", "4", "--r", "1", "--h", "0")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["asym", "--m", "3", "--n", "3", "--tau", "2", "--sweep"],
     "argument --sweep: not allowed with argument --tau"),
    (["ising", "total", "--N", "8", "--n", "3", "--nu", "0.5"], "ising total takes no --n"),
])
def test_an_option_the_query_would_ignore_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f": error: {message}\n")


def test_negative_digit_count_exit_2(capsys):
    # both routes refuse a family with a negative digit count as a usage error,
    # and the closed route does so before it looks for a pattern's closed form
    for m, n in ((-1, 3), (3, -1)):
        for pattern, via in (("0", "closed"), ("0", "oracle"), ("0110", "closed")):
            code, out, err = run(capsys, "dist", "--m", str(m), "--n", str(n),
                                 "--pattern", pattern, "--via", via, "--format", "json")
            assert (code, out) == (2, ""), (m, n, pattern, via)
            assert "need m, n >= 0" in err
    # the oracle reads the pattern before it starts enumerating the family
    code, out, err = run(capsys, "dist", "--m", "-1", "--n", "3", "--pattern", "x",
                         "--via", "oracle", "--format", "json")
    assert (code, out) == (3, "")
    assert "pattern must be" in err


def test_bad_oracle_cap_names_its_variable(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOSEQ_ORACLE_CAP", "abc")
    assert run(capsys, "dist", "--m", "3", "--n", "3", "--pattern", "001", "--via", "oracle") == (
        2, "", "usage error: CYCLOSEQ_ORACLE_CAP must be an integer, got 'abc'\n")


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check in the package may be one
    for path in sorted(Path(cycloseq.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("module, absent", [
    ("cycloseq.cli", ["cycloseq.analytics", "cycloseq.oracle", "cycloseq.verification",
                      "cycloseq.reference_tables", "fractions", "decimal", "dataclasses",
                      "inspect", "csv", "typing"]),
    ("cycloseq.oracle", ["cycloseq.patterncounts", "cycloseq.coeffs", "cycloseq.tnumbers"]),
])
def test_a_fresh_import_loads_only_what_the_module_calls(module, absent):
    # the CLI defers the layers few commands run; the oracle imports no closed form.
    # -S keeps site, whose .pth files may import modules such as typing, out of the probe
    probe = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, {module}; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert set(absent).isdisjoint(probe.stdout.split())


def test_exactness_checks_survive_python_O():
    # python -O strips assert statements; the exactness checks must not be among them
    env = {**os.environ, "PYTHONPATH": SRC}
    probe = subprocess.run(
        [sys.executable, "-O", "-c",
         "from cycloseq.errors import InexactDivision\n"
         "from cycloseq.exactmath import exact_decimal, exact_div\n"
         "try:\n    exact_div(7, 2)\nexcept InexactDivision:\n    print('raised')\n"
         "with exact_decimal(10) as one:\n"
         "    try:\n        exact_div(7 * one, 2)\n    except InexactDivision:\n"
         "        print('raised on a decimal')"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "raised\nraised on a decimal\n"
    verify = subprocess.run(
        [sys.executable, "-O", "-m", "cycloseq.cli", "verify", "--max-N", "8", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert verify.returncode == 0, verify.stderr
    assert json.loads(verify.stdout)["payload"]["all_equivalent"] is True


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the full device /dev/full")
def test_a_failed_write_ends_in_one_error_line():
    # a full device and a pipe its reader closed both end in exit 4 and one
    # error line, and the interpreter's last flush at exit adds nothing
    cli = [sys.executable, "-m", "cycloseq.cli"]
    env = {**os.environ, "PYTHONPATH": SRC}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([*cli, "tnum", "--m", "3", "--n", "3"], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        4, "error: cannot write the output: No space left on device\n")
    proc = subprocess.Popen([*cli, "tnum", "--m", "3000", "--n", "3000", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(100).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (4, b"error: cannot write the output: Broken pipe\n")


def test_the_exit_code_holds_when_the_reader_closes_stdout_and_stderr():
    # the error line meets the same closed pipe as the output and is dropped
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycloseq.cli", "tnum", "--m", "3000", "--n", "3000", "--format",
         "json"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.read(50).startswith(b"{")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 4


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the full device /dev/full")
@pytest.mark.parametrize("argv, stdout_full, code", [
    (["tnum", "--m", "3", "--n", "3"], True, 4),
    (["verify", "--max-N", "3", "--format", "json"], True, 4),
    (["tnum", "--m", "-3", "--n", "3"], False, 2),
    (["tnum", "--m", "0", "--n", "3", "--tau", "2"], False, 3),
])
def test_the_exit_code_holds_when_stderr_is_a_full_device(argv, stdout_full, code):
    # the error line cannot be printed, yet the exit code still says what went wrong
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cycloseq.cli", *argv],
                              stdout=full if stdout_full else subprocess.PIPE, stderr=full,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, None if stdout_full else b"")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACE_BOOT = PERFBENCH / "trace_boot.py"


def _traced(tmp_path, *argv):
    # the benchmark's traced mode wraps the layers' public functions by name,
    # so renaming or removing one it reads breaks its per-layer metrics
    summary = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(TRACE_BOOT), str(summary), *argv, "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(summary.read_text())


def test_traced_mode_counts_oracle_words(tmp_path):
    summary = _traced(tmp_path, "dist", "--m", "6", "--n", "6", "--pattern", "0110",
                      "--via", "oracle")
    assert summary["words"] == 80  # rotation classes of the 924 words


def test_traced_mode_counts_verify_cases(tmp_path):
    summary = _traced(tmp_path, "verify", "--max-N", "6")
    cases = sum(check["cases"] for check in verification.run_equivalence_suite(6))
    assert summary["cases"] == cases
    assert summary["entries"] > 0


def test_asym_distribution_mode(capsys):
    env = run_json(capsys, "asym", "--m", "5", "--n", "5")
    assert set(env["payload"]) == {"2", "4", "6", "8", "10", "12"}
    assert env["payload"]["2"] == pytest.approx(8.6206, abs=1e-3)


@pytest.mark.parametrize("mode", [[], ["--tau", "2"], ["--sweep"]])
def test_asym_refuses_a_negative_digit_count_in_every_mode(capsys, mode):
    code, out, err = run(capsys, "asym", "--m", "-1", "--n", "3", *mode)
    assert (code, out, err) == (3, "", "error: asymptotic form needs both digits present\n")


@pytest.mark.parametrize("m, tau, expected", [(1900, 3900, 2.8006e226), (2000, 10000, 0.0)])
def test_asym_point_query_answers_past_the_overflow_of_the_tau_0_value(capsys, m, tau, expected):
    # at tau = 0 the exponent is (log 2 - 1/2) N, past the float range here
    env = run_json(capsys, "asym", "--m", str(m), "--n", str(m), "--tau", str(tau))
    assert env["payload"] == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize("argv, what", [
    (["asym", "--m", "2000", "--n", "2000"], "the asymptotic jump count at (2000, 2000, 2)"),
    (["asym", "--m", "2000", "--n", "2000", "--sweep"],
     "the asymptotic jump count at (2000, 2000, 0.1)"),
    (["ising", "total", "--N", "5000", "--nu", "1"], "Z at N = 5000, nu = 1.0"),
])
def test_floats_beyond_the_double_range_are_domain_errors(capsys, argv, what):
    assert run(capsys, *argv) == (3, "", f"error: {what} exceeds the double range\n")


@pytest.mark.parametrize("alpha", ["-0.1", "1.5", "nan"])
def test_walk_refuses_alpha_outside_the_unit_interval(capsys, alpha):
    code, out, err = run(capsys, "walk", "--N", "6", "--k", "0", "--alpha", alpha)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: alpha must lie in [0, 1]")


@pytest.mark.parametrize("nu", ["nan", "inf"])
@pytest.mark.parametrize("mode", [["fixed", "--n", "2"], ["total"]])
def test_ising_refuses_a_non_finite_coupling(capsys, mode, nu):
    code, out, err = run(capsys, "ising", *mode, "--N", "4", "--nu", nu)
    assert (code, out, err) == (2, "", f"usage error: nu must be finite, got {nu}\n")


@pytest.mark.parametrize("n, code, err", [
    ("-1", 2, "usage error: n must lie in 0..5, got -1\n"),
    ("7", 2, "usage error: n must lie in 0..5, got 7\n"),
    ("0", 3, "error: n = 0 leaves a single aligned configuration with Z = exp(5*nu)\n"),
    ("5", 3, "error: n = 5 leaves a single aligned configuration with Z = exp(5*nu)\n"),
])
def test_ising_fixed_refuses_n_outside_the_ring_as_usage(capsys, n, code, err):
    assert run(capsys, "ising", "fixed", "--N", "5", "--n", n, "--nu", "1") == (code, "", err)


@pytest.mark.parametrize("tau", ["-2", "-1"])
def test_asym_refuses_a_negative_jump_count(capsys, tau):
    code, out, err = run(capsys, "asym", "--m", "5", "--n", "5", "--tau", tau)
    assert (code, out, err) == (3, "", f"error: jump count must be >= 0, got {tau}\n")


# how each catalogued defect probe must read: the float and digit-limit
# defects are mended, while ising fixed and moments --approx still overflow
PROBE_STATUS = {
    ("tnum-str-digits", "tnum"): "fixed",
    ("float-overflow", "ising"): "reproduces",
    ("float-overflow", "walk"): "fixed",
    ("float-overflow", "moments"): "reproduces",
    ("walk-underflow", "walk"): "fixed",
}


def _perfbench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_defect_probe_reads_as_expected(monkeypatch):
    # each probe runs through the CLI as the benchmark runs it and is judged by
    # the benchmark's own judge, so no probe may fail in an uncatalogued way
    bench = _perfbench_run(monkeypatch)
    env = {**os.environ, "PYTHONPATH": SRC}
    statuses = {}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the judge reads the probes' long decimal counts
    try:
        for defect in bench.NOTES["known_defects"]:
            for argv in defect["probes"]:
                argv = [*argv, "--format", "json"]
                proc = subprocess.run([sys.executable, *bench.CLI, *argv], capture_output=True,
                                      env=env, timeout=120)
                err = proc.stderr.decode(errors="replace").strip().splitlines()
                verdict = bench.judge(argv, proc.returncode, proc.stdout, err[-1] if err else "")
                assert not verdict["unexplained"], (argv, verdict)
                status = ("fixed" if verdict["ok"] else
                          "reproduces" if verdict["defect"] == defect["id"] else verdict["defect"])
                statuses[(defect["id"], argv[0])] = status
    finally:
        sys.set_int_max_str_digits(limit)
    assert statuses == PROBE_STATUS


def test_fib_and_kaplansky(capsys):
    assert run_json(capsys, "fib", "--N", "5", "--r", "3", "--h", "0")["payload"] == "20"
    assert run_json(capsys, "kaplansky", "--N", "6", "--n", "2", "--p", "2")["payload"] == "9"


def test_coeff(capsys):
    env = run_json(capsys, "coeff", "--kind", "c", "--i", "6", "--j", "2", "--k", "1")
    assert env["payload"] == "2"
    env = run_json(
        capsys, "coeff", "--kind", "cweight", "--s", "1", "--m", "7", "--g", "3", "--j", "3"
    )
    assert env["payload"] == "3"
    env = run_json(capsys, "coeff", "--kind", "cs", "--s", "2", "--i", "9", "--j", "3", "--k", "1")
    assert env["payload"] == "24"


@pytest.mark.parametrize("kind, s, own", [
    ("c", "1", 0), ("c", "-1", 0), ("cprime", "2", 1), ("cprime", "-1", 1),
])
def test_coeff_refuses_an_s_its_kind_does_not_compute_with(capsys, kind, s, own):
    for cell in ([], ["--j", "2", "--k", "1"]):
        assert run(capsys, "coeff", "--kind", kind, "--s", s, "--i", "6", *cell) == (
            2, "", f"usage error: --kind {kind} fixes s = {own}, got --s {s}\n")


def test_coeff_echoes_the_s_its_kind_computes_with(capsys):
    cell = ["--i", "6", "--j", "2", "--k", "1"]
    cprime = [run_json(capsys, "coeff", "--kind", "cprime", *s, *cell)
              for s in ([], ["--s", "0"], ["--s", "1"])]
    assert cprime[0] == cprime[1] == cprime[2]
    assert cprime[0]["params"]["s"] == 1
    cs = run_json(capsys, "coeff", "--kind", "cs", "--s", "1", *cell)
    assert cprime[0]["payload"] == cs["payload"]
    assert run_json(capsys, "coeff", "--kind", "c", "--s", "0", *cell)["params"]["s"] == 0


def test_coeff_grid_mode(capsys):
    env = run_json(capsys, "coeff", "--kind", "c", "--i", "4")
    grid = env["payload"]
    assert grid["row_labels"] == [0, 1, 2, 3, 4]
    assert grid["rows"][2] == ["0", "2", "1", "0", "0"]  # j = 2
    assert grid["rows"][4][0] == "4"  # matrix-convention diagonal


@pytest.mark.parametrize("cell", [["--j", "2"], ["--k", "1"], ["--g", "1"]])
def test_coeff_with_one_cell_index_is_a_usage_error(capsys, cell):
    assert run(capsys, "coeff", "--kind", "c", "--i", "4", *cell) == (
        2, "", "usage error: coeff takes --j and --k (or --g) together, or neither\n")


@pytest.mark.parametrize("kind, s, i", [
    ("c", 0, -3), ("c", 0, 0), ("cprime", 0, 0), ("cs", 2, -1), ("cs", -1, -1),
    ("cweight", 0, 0), ("cweight", 1, -1), ("cweight", -1, 0),
])
def test_coeff_grid_refuses_what_point_queries_refuse(capsys, kind, s, i):
    # the grid's first cell is (j, k) = (1, 0) for cweight and (0, 0) otherwise
    first = ["--j", "1" if kind == "cweight" else "0", "--k", "0"]
    base = ["coeff", "--kind", kind, "--s", str(s), "--i", str(i)]
    point = run(capsys, *base, *first)
    assert point[:2] == (2, "")
    for fmt in ("json", "csv", "pretty"):
        assert run(capsys, *base, "--format", fmt) == point, fmt


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("height, weight", [(9, -1), (-2, 1)])
def test_cweight_refuses_negative_indices_at_every_s(capsys, s, height, weight):
    argv = ["coeff", "--kind", "cweight", "--s", str(s), "--i", "3",
            "--j", str(height), "--k", str(weight)]
    assert run(capsys, *argv) == (2, "", "usage error: indices must be nonnegative\n")


def test_coeff_empty_grid(capsys):
    # i = 0 is a valid index for cweight at s >= 1, and its grid has no rows
    argv = ["coeff", "--kind", "cweight", "--s", "1", "--i", "0"]
    assert run_json(capsys, *argv)["payload"]["rows"] == []
    for fmt in ("csv", "pretty"):
        code, _, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, ""), fmt


def test_oracle_rejects_overlong_pattern(capsys):
    code, out, err = run(
        capsys, "dist", "--m", "1", "--n", "1", "--pattern", "101", "--via", "oracle"
    )
    assert (code, out) == (3, "") and "exceeds" in err
    # length equal to the cycle is still a valid window set for the oracle
    env = run_json(capsys, "dist", "--m", "1", "--n", "1", "--pattern", "01", "--via", "oracle")
    assert env["payload"] == {"0": "0", "1": "2"}


def test_appendix_roundtrip(capsys):
    env = run_json(capsys, "appendix", "--which", "c_by_k", "--index", "2")
    block = env["payload"][0]
    assert block["kind"] == "c_by_k" and block["fixed_index"] == 2
    rows = [[int(v) for v in row] for row in block["rows"]]
    assert rows[11][1:10] == [9, 24, 42, 60, 75, 84, 84, 72, 45]
    # machine format round-trips through JSON untouched
    assert json.loads(json.dumps(env)) == env


def test_ising_and_walk(capsys):
    env = run_json(capsys, "ising", "total", "--N", "8", "--nu", "0.0")
    assert env["payload"] == pytest.approx(256.0)
    assert run(capsys, "ising", "total", "--N", "8", "--nu", "0.0") == (
        0, '# ising {"N": 8, "mode": "total", "nu": 0.0} (closed-form)\n256.0\n', "")
    env = run_json(capsys, "ising", "fixed", "--N", "4", "--n", "2", "--nu", "0.0")
    assert env["payload"] == pytest.approx(6.0)
    env = run_json(capsys, "walk", "--N", "7", "--k", "1", "--alpha", "0.5")
    assert env["payload"]["coefficients"] == {"2": "7", "4": "21", "6": "7"}
    assert env["payload"]["scalar"] == pytest.approx(35 / 128)


def test_walk_spreads_its_coefficients_one_level_in_csv_and_pretty(capsys):
    argv = ("walk", "--N", "7", "--k", "1", "--alpha", "0.5")
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    *lines, scalar = out.splitlines()[1:]
    assert lines == ["index,value", "coefficients.2,7", "coefficients.4,21", "coefficients.6,7"]
    assert scalar.startswith("scalar,") and float(scalar[7:]) == pytest.approx(35 / 128)
    code, out, err = run(capsys, *argv, "--format", "pretty")
    assert code == 0, err
    *lines, scalar = out.splitlines()[1:]
    assert lines == ["coefficients.2  7", "coefficients.4  21", "coefficients.6  7"]
    assert scalar.startswith("        scalar  ") and float(scalar[16:]) == pytest.approx(35 / 128)


def test_moments(capsys):
    env = run_json(capsys, "moments", "--m", "4", "--n", "2", "--r", "3")
    assert env["payload"] == "56"
    env = run_json(capsys, "moments", "--m", "4", "--n", "2", "--r", "3", "--approx")
    assert env["payload"]["exact"] == "56"
    assert env["payload"]["approx"] == pytest.approx(58.6667, abs=1e-3)


@pytest.mark.parametrize("m, n, r, exact, approx", [
    (1, 1, 500, 1, 1.0), (2, 3, 700, 6 + 3 * 2**700, 1.349e278),
], ids=["1-1-500", "2-3-700"])
def test_moments_approx_answers_at_high_orders(capsys, m, n, r, exact, approx):
    exactmath.stirling2.cache_clear()  # cold, as in a fresh process
    env = run_json(capsys, "moments", "--m", str(m), "--n", str(n), "--r", str(r), "--approx")
    assert env["payload"]["exact"] == str(exact)
    num, den = map(int, env["payload"]["approx_rational"].split("/"))
    assert env["payload"]["approx"] == num / den == pytest.approx(approx, rel=1e-3)


def test_asym(capsys):
    env = run_json(capsys, "asym", "--m", "5", "--n", "5", "--tau", "2")
    assert env["payload"] == pytest.approx(8.6206, abs=1e-3)
    env = run_json(capsys, "asym", "--m", "5", "--n", "5", "--sweep")
    pairs = env["payload"]
    assert pairs[0] == ["0.0", "0.000000"]
    assert len(pairs) == 121
    assert float(pairs[60][1]) == pytest.approx(128.095, abs=1e-2)
    assert run(capsys, "asym", "--m", "5", "--n", "5", "--sweep") == (
        0, '# asym {"m": 5, "n": 5, "sweep": true} (closed-form)\n'
        + "".join(f"{x} {value}\n" for x, value in pairs), "")


@pytest.mark.parametrize("argv, params", [
    (["tnum", "--n", "4", "--m", "3"], {"m": 3, "n": 4}),
    (["tnum", "--tau", "2", "--m", "3", "--n", "4"], {"m": 3, "n": 4, "tau": 2}),
    (["dist", "--pattern", "01", "--m", "3", "--n", "3"],
     {"m": 3, "n": 3, "pattern": "01", "via": "closed"}),
    (["dist", "--m", "3", "--n", "3", "--via", "oracle", "--pattern", "0110"],
     {"m": 3, "n": 3, "pattern": "0110", "via": "oracle"}),
    (["coeff", "--i", "4", "--kind", "cs"], {"kind": "cs", "s": 0, "i": 4}),
    (["coeff", "--kind", "cweight", "--s", "1", "--m", "7", "--g", "3", "--j", "3"],
     {"kind": "cweight", "s": 1, "i": 7, "j": 3, "k": 3}),
    (["appendix", "--which", "c_by_k"], {"which": "c_by_k"}),
    (["appendix", "--index", "2", "--which", "c_by_k"], {"which": "c_by_k", "index": 2}),
    (["fib", "--h", "0", "--r", "3", "--N", "5"], {"N": 5, "r": 3, "h": 0}),
    (["kaplansky", "--N", "6", "--n", "2", "--p", "2"], {"N": 6, "n": 2, "p": 2}),
    (["ising", "fixed", "--nu", "0.5", "--n", "2", "--N", "4"],
     {"mode": "fixed", "N": 4, "n": 2, "nu": 0.5}),
    (["ising", "total", "--N", "8", "--nu", "0.5"], {"mode": "total", "N": 8, "nu": 0.5}),
    (["walk", "--N", "7", "--k", "1", "--alpha", "0.3"], {"N": 7, "k": 1, "alpha": 0.3}),
    (["moments", "--m", "4", "--n", "2", "--r", "3"], {"m": 4, "n": 2, "r": 3, "approx": False}),
    (["moments", "--approx", "--m", "4", "--n", "2", "--r", "3"],
     {"m": 4, "n": 2, "r": 3, "approx": True}),
    (["asym", "--m", "3", "--n", "3"], {"m": 3, "n": 3}),
    (["asym", "--tau", "2", "--m", "3", "--n", "3"], {"m": 3, "n": 3, "tau": 2}),
    (["asym", "--sweep", "--m", "3", "--n", "3"], {"m": 3, "n": 3, "sweep": True}),
    (["verify", "--max-N", "4"], {"max_N": 4}),
])
def test_the_envelope_echoes_every_given_or_defaulted_option_in_declaration_order(
        capsys, argv, params):
    code, out, err = run(capsys, argv[0], "--format", "json", *argv[1:])
    assert code == 0, err
    env = json.loads(out)
    assert env["command"] == argv[0]
    assert list(env["params"].items()) == list(params.items())


def test_deterministic_output(capsys):
    first = run(capsys, "tnum", "--m", "6", "--n", "4", "--format", "json")
    second = run(capsys, "tnum", "--m", "6", "--n", "4", "--format", "json")
    assert first == second
    first = run(capsys, "appendix", "--which", "cprime_weight", "--format", "pretty")
    second = run(capsys, "appendix", "--which", "cprime_weight", "--format", "pretty")
    assert first == second


def _csv_writer_rows(payload) -> str:
    # the reference: the payload's rows as csv.writer writes them, comment lines left out
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if isinstance(payload, dict) and "rows" in payload:
        writer.writerows(payload["rows"])
    elif isinstance(payload, list) and isinstance(payload[0], dict):
        for block in payload:
            writer.writerows(block["rows"])
    elif isinstance(payload, dict):
        writer.writerow(["index", "value"])
        for k, v in payload.items():
            writer.writerows([(f"{k}.{i}", w) for i, w in v.items()] if isinstance(v, dict)
                             else [(k, v)])
    elif isinstance(payload, list):
        writer.writerows(payload)
    else:
        writer.writerows([["value"], [payload]])
    return out.getvalue()


def test_csv_format(capsys):
    code, out, _ = run(capsys, "tnum", "--m", "3", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# tnum")
    assert lines[1] == "index,value"
    assert lines[2] == "2,7"
    # every payload shape prints the rows csv.writer would
    for argv in (["tnum", "--m", "30", "--n", "40"], ["tnum", "--m", "5", "--n", "5", "--tau", "6"],
                 ["walk", "--N", "7", "--k", "1", "--alpha", "0.3"],
                 ["moments", "--m", "10", "--n", "10", "--r", "4", "--approx"],
                 ["asym", "--m", "3", "--n", "3", "--sweep"], ["coeff", "--kind", "c", "--i", "5"],
                 ["appendix", "--which", "c_by_k"], ["ising", "total", "--N", "8", "--nu", "0.5"]):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        payload = run_json(capsys, *argv)["payload"]
        rows = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("#"))
        assert rows == _csv_writer_rows(payload), argv


def test_verify_small(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--max-N", "6", "--format", "json")
    assert code == 0
    report = json.loads(out)["payload"]
    assert report["all_equivalent"] is True
    ids = {item["id"] for item in report["typo_ledger"]}
    assert "joint-001-marginal-extra-cell" in ids
    assert "triple-corner-binomial-sign" in ids
    assert "deletion-chain-direction" in ids
    assert "marginal-001-prefactor" in ids
    code, out, _ = run(capsys, "verify", "--max-N", "6")
    assert code == 0 and "typo ledger:" in out
    # a bound over the oracle cap is refused before any family is swept or listed
    swept = []
    monkeypatch.setattr(oracle, "rotation_classes", lambda m, n: swept.append((m, n)) or iter(()))
    for max_n in ("21", str(10**12)):
        assert run(capsys, "verify", "--max-N", max_n) == (
            3, "", "error: N = 21 exceeds the oracle cap 20\n")
    assert swept == []


@pytest.mark.parametrize("cap, max_n, first", [
    ("1", "4", 2), ("5", "9", 6), ("5", "4", 8), ("8", "4", 9), ("9", "13", 10), ("11", "4", 12),
])
def test_verify_names_the_first_over_cap_family_it_would_reach(capsys, monkeypatch, cap, max_n,
                                                              first):
    # the suite reaches N = 2..max_n in turn and the ledger's own families
    # (N = 8..12) after it; the refusal names the first over the cap
    monkeypatch.setenv("CYCLOSEQ_ORACLE_CAP", cap)
    assert run(capsys, "verify", "--max-N", max_n) == (
        3, "", f"error: N = {first} exceeds the oracle cap {cap}\n")


@pytest.mark.parametrize("max_n", ["-3", "0", "1"])
@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_verify_refuses_a_bound_that_compares_no_family(capsys, max_n, fmt):
    assert run(capsys, "verify", "--max-N", max_n, "--format", fmt) == (
        2, "", f"usage error: verify needs --max-N >= 2, got {max_n}\n")


def test_verify_runs_cases_in_every_check_from_n2(capsys):
    report = run_json(capsys, "verify", "--max-N", "2")["payload"]
    assert report["all_equivalent"] is True
    assert all(check["cases"] > 0 for check in report["checks"])


def test_verify_does_not_confirm_ledger_items_it_did_not_check(capsys):
    # both items compare families with N >= 5, so a bound of 4 runs none of
    # their cases and must not print their confirmed verdicts
    report = run_json(capsys, "verify", "--max-N", "4")["payload"]
    ledger = {item["id"]: item for item in report["typo_ledger"]}
    for item_id in ("triple-corner-binomial-sign", "deletion-chain-direction"):
        assert ledger[item_id]["verdict"] == "UNCHECKED: no case with N <= 4", item_id
        assert ledger[item_id]["oracle"] == "not run", item_id
    assert not any("failures" in item for item in report["typo_ledger"])
    code, out, _ = run(capsys, "verify", "--max-N", "4")
    assert code == 0
    assert "  triple-corner-binomial-sign: UNCHECKED: no case with N <= 4\n" in out


def test_verify_confirms_bounded_ledger_items_from_n5(capsys):
    report = run_json(capsys, "verify", "--max-N", "5")["payload"]
    ledger = {item["id"]: item for item in report["typo_ledger"]}
    assert ledger["triple-corner-binomial-sign"]["verdict"] == "sign corrected"
    assert ledger["triple-corner-binomial-sign"]["oracle"] == (
        "corner cells match enumeration with the + sign")
    assert ledger["deletion-chain-direction"]["verdict"] == "descending order confirmed"
    assert ledger["deletion-chain-direction"]["oracle"].startswith(
        "inclusion-exclusion closed form matches enumeration")


def _bump_pattern_distribution(real):
    def patched(m, n, p):
        dist = real(m, n, p)
        if (m, n, p) == (2, 1, "0"):
            dist.entries[2] += 1
        return dist
    return patched


def _bump_t_distribution(real):
    def patched(m, n):
        dist = real(m, n)
        if (m, n) == (2, 3):
            dist.entries[2] += 1
        return dist
    return patched


def _bump_t_number(real):
    return lambda m, n, tau: real(m, n, tau) + ((m, n, tau) == (1, 2, 2))


def _bump_type_census(real):
    def patched(m, n):
        census = real(m, n)
        if (m, n) == (3, 2):
            t, mult = census[0]
            census[0] = (t, mult + 1)
        return census
    return patched


@pytest.mark.parametrize("module, name, bump, check, case", [
    (patterncounts, "pattern_distribution", _bump_pattern_distribution,
     "pattern closed forms vs enumeration", {"m": 2, "n": 1, "pattern": "0", "h": 2}),
    (tnumbers, "t_distribution", _bump_t_distribution,
     "jump distributions vs enumeration", {"m": 2, "n": 3}),
    (tnumbers, "t_number", _bump_t_number,
     "all-words jump totals are 2 C(N, tau)", {"N": 3, "tau": 2}),
    (tnumbers, "type_census", _bump_type_census,
     "type census vs enumeration", {"m": 3, "n": 2}),
])
def test_verify_reports_a_wrong_closed_form(capsys, monkeypatch, module, name, bump, check, case):
    # a closed form off by one on a single case must fail verify with a
    # JSON report that lists exactly that case under its check
    monkeypatch.setattr(module, name, bump(getattr(module, name)))
    code, out, err = run(capsys, "verify", "--max-N", "6", "--format", "json")
    assert code == 1, err
    report = json.loads(out)["payload"]
    assert report["all_equivalent"] is False
    failed = {c["name"]: c for c in report["checks"]}[check]
    assert not failed["ok"]
    assert [{k: f[k] for k in case} for f in failed["failures"]] == [case]
