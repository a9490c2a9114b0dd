"""cycloseq CLI benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload closed_large --seed 1 --seconds 40 --trace 0

The runner times ``cycloseq`` invocations as a user runs them: one fresh
interpreter per query, started from this single process one at a time, a
closed loop with one client.  Queries come from ``workloads.generate`` and
the program sees only their argv.  Every answer is checked exactly by
``checks`` after its timed interval.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs one round of the workload's
queries untraced and then through ``trace_boot.py``, as often as time
allows, and reports the per-layer metrics.  Runs of closed_large first run
the probes of every catalogued defect (see ``notes.json``), untimed, and
report whether each defect still reproduces.  A human-readable report goes
to stdout, a full record to ``.perfbench_out/``, and the last stdout line is
the JSON result.  The exit code is 1 when a query or probe fails in a way no
catalogued defect explains, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from trace_boot import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NOTES = json.loads((HERE / "notes.json").read_text())
# The workloads whose commands reach the catalogued defects.
PROBED = ("closed_large",)

# What the installed console script runs.
CLI = ["-c", "import sys; from cycloseq.cli import main; sys.exit(main())"]
SETUP = ["-c", "import cycloseq.cli"]
# Set-up is timed before every third query, so its median spans the whole
# run rather than one moment of the machine's load.
SETUP_EVERY = 3
# Hard stop for the whole run, inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
TRACE_ROUNDS = 1
# Rounding allowed when a query's layer self times are summed against the
# time its cli.main ran.
SELF_SUM_TOLERANCE_S = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "exactmath.binomial_calls": "count",
        "exactmath.stirling2_hit_ratio": "ratio",
        "exactmath.partition_count_hit_ratio": "ratio",
        "oracle.words": "count",
        "oracle.words_per_s": "1/s",
        "patterncounts.count_pattern_calls_per_entry": "ratio",
        "verification.cases": "count",
        "verification.cases_per_s": "1/s",
        "cli.bytes_out": "bytes",
        "trace.wall_s": "s",
        "trace_overhead_share": "share",
    })
    return units


class Runner:
    """Starts queries one at a time, through spawner.py, and keeps what each did."""

    def __init__(self, out_dir: Path, started: float) -> None:
        self.out_dir = out_dir
        self.stdout_path = out_dir / "query.out"
        self.stderr_path = out_dir / "query.err"
        self.deadline = started + RUN_DEADLINE_S
        self.env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC)}
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        """Stop the spawner; closing its stdin also kills a child still running."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, args: list[str]) -> dict:
        """Run the interpreter with args; wall time is spawn to exit."""
        request = {
            "argv": [sys.executable, *args],
            "env": self.env,
            "stdout": str(self.stdout_path),
            "stderr": str(self.stderr_path),
            "timeout": max(1.0, self.deadline - time.monotonic()),
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        rec = json.loads(self.spawner.stdout.readline())
        err = self.stderr_path.read_text(errors="replace").strip().splitlines()
        rec["stdout"] = self.stdout_path.read_bytes()
        rec["stderr_tail"] = err[-1] if err else ""
        return rec

    def query(self, argv: list[str], traced: bool = False) -> dict:
        """One query, checked after its timed interval."""
        if traced:
            summary_path = self.out_dir / "trace_summary.json"
            summary_path.unlink(missing_ok=True)
            rec = self.spawn([str(HERE / "trace_boot.py"), str(summary_path), *argv])
            rec["trace"] = json.loads(summary_path.read_text())
            rec["wall_s"] -= rec["trace"]["post_s"]  # reducing spans is not the query's time
        else:
            rec = self.spawn([*CLI, *argv])
        rec["argv"] = argv
        stdout = rec.pop("stdout")
        rec["bytes_out"] = len(stdout)
        rec["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        rec.update(judge(argv, rec["exit"], stdout, rec["stderr_tail"], rec["timed_out"]))
        return rec


def judge(argv: list[str], exit_code: int, stdout: bytes, stderr_tail: str,
          timed_out: bool = False) -> dict:
    """Whether a finished query failed, why, and whether no catalogued defect
    explains the failure (a wrong answer, a crash or any other unexpected
    exit), which makes the run incorrect.  A query killed at the run
    deadline fails without being unexplained: its time shows in the run."""
    if timed_out:
        reason = "killed at the run deadline"
    elif exit_code == 0 or (exit_code == 1 and argv[0] == "verify"):
        # verify exits 1 when a closed form differs from enumeration, and its
        # report, checked here, says which
        reason = checks.check_output(argv, stdout)
        if reason is None and exit_code:
            reason = "verify exits 1 on a report that checks out"
    else:
        reason = f"exit {exit_code}: {stderr_tail}"
    ok = reason is None
    defect = None if ok else checks.known_defect(argv, exit_code, stderr_tail, reason)
    unexplained = not ok and defect is None and not timed_out
    return {"reason": reason, "ok": ok, "defect": defect, "unexplained": unexplained}


def tail_percentile(n: int) -> tuple[int, int] | None:
    """(p, rank): the highest whole percentile with at least ten samples
    beyond its nearest-rank sample, and that sample's 1-based rank."""
    for p in range(99, -1, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, rank
    return None


def latency_summary(walls: list[float]) -> dict:
    ordered = sorted(walls)
    tail = tail_percentile(len(ordered))
    if tail is None:  # too few samples for the rule; report the slowest
        p, rank = 100, len(ordered)
    else:
        p, rank = tail
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_percentile": p,
        "samples": len(ordered),
        "beyond_tail": len(ordered) - rank,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(runner: Runner, seed: int) -> dict:
    probe = runner.spawn(["-c", "import sys; print(sys.get_int_max_str_digits())"])
    digest = hashlib.sha256()
    for path in sorted((SRC / "cycloseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "int_max_str_digits": int(probe["stdout"]),
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def build(runner: Runner) -> bool:
    """Byte-compile the sources so no timed query pays for it."""
    rec = runner.spawn(["-m", "compileall", "-q", str(SRC / "cycloseq")])
    return rec["exit"] == 0 and runner.spawn(SETUP)["exit"] == 0


def probe_defects(runner: Runner) -> list[dict]:
    """Run every catalogued defect's probes and record whether each still
    reproduces, is fixed, or fails in another way."""
    probes = []
    for defect in NOTES["known_defects"]:
        for argv in defect["probes"]:
            rec = runner.query([*argv, "--format", "json"])
            if rec["ok"]:
                status = "fixed"
            elif rec["defect"] == defect["id"]:
                status = "reproduces"
            else:
                status = f"fails as {rec['defect'] or 'an uncatalogued failure'}"
            probes.append({"probe_of": defect["id"], "status": status, **rec})
    return probes


def timed_run(runner: Runner, rounds: list[list[list[str]]], seconds: float) -> tuple[dict, list[dict]]:
    """Whole rounds while the next one is expected to end within seconds, so
    every run times the same mix of queries."""
    records = []
    setups = []
    done = 0
    start = time.monotonic()
    for queries in rounds:
        elapsed = time.monotonic() - start
        if done and elapsed + elapsed / done > seconds:
            break
        for argv in queries:
            if time.monotonic() >= runner.deadline:
                break
            if len(records) % SETUP_EVERY == 0:
                setups.append(runner.spawn(SETUP)["wall_s"])
            records.append(runner.query(argv))
        done += 1
    walls = [r["wall_s"] for r in records]
    lat = latency_summary(walls)
    ok = sum(r["ok"] for r in records)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": lat["p50"],
        "latency_tail_s": lat["tail"],
        "throughput_qps": ok / sum(walls),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
    }
    extra = {
        "latency_tail_percentile": lat["tail_percentile"],
        "latency_samples": lat["samples"],
        "latency_beyond_tail": lat["beyond_tail"],
        "failed_share": (len(records) - ok) / len(records),
        "setup_repeats": len(setups),
        "rounds": done,
    }
    return {"metrics": metrics, "extra": extra}, records


def traced_run(runner: Runner, queries: list[list[str]], seconds: float) -> tuple[dict, list[dict]]:
    """Passes of (untraced, traced) over the same queries while time remains."""
    records: list[dict] = []
    passes = []
    start = time.monotonic()
    while not passes or (
        time.monotonic() - start + (time.monotonic() - start) / len(passes) <= seconds
        and time.monotonic() < runner.deadline
    ):
        plain = [runner.query(argv) for argv in queries]
        traced = [runner.query(argv, traced=True) for argv in queries]
        for a, b in zip(plain, traced):
            if a["exit"] == b["exit"] == 0 and a["stdout_sha256"] != b["stdout_sha256"]:
                b["reason"], b["ok"], b["unexplained"] = "traced output differs from untraced", False, True
        records += plain + traced
        passes.append((plain, traced))
    # All spans lie inside cli.main, so in each query the layers' self times
    # add up to no more than the time cli.main ran; more means spans are
    # counted twice or child time is not subtracted.
    for rec in records:
        if "trace" in rec:
            query_sum = sum(layer["self_s"] for layer in rec["trace"]["layers"].values())
            if query_sum > rec["trace"]["main_s"] + SELF_SUM_TOLERANCE_S:
                raise RuntimeError(f"layer self times {query_sum} s exceed the"
                                   f" {rec['trace']['main_s']} s of cli.main in {rec['argv']}")
    metrics = layer_metrics(passes)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if self_sum > metrics["trace.wall_s"]:
        raise RuntimeError(f"layer self times {self_sum} s exceed the traced wall time")
    return {"metrics": metrics, "extra": {"passes": len(passes), "self_s_sum": self_sum}}, records


def layer_metrics(passes: list[tuple[list[dict], list[dict]]]) -> dict:
    k = len(passes)
    traced = [rec for _, t in passes for rec in t]
    summaries = [rec["trace"] for rec in traced]

    def total(fn) -> float:
        return sum(fn(s) for s in summaries) / k

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total(lambda s: s["layers"][layer]["self_s"])
        out[f"{layer}.calls"] = total(lambda s: s["layers"][layer]["calls"])

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    def hit_ratio(name: str) -> float:
        return per(sum(s["cache"][name][0] for s in summaries),
                   sum(sum(s["cache"][name]) for s in summaries))

    words = total(lambda s: s["words"])
    cases = total(lambda s: s["cases"])
    plain_wall = sum(rec["wall_s"] for p, _ in passes for rec in p) / k
    traced_wall = sum(rec["wall_s"] for rec in traced) / k
    out.update({
        "exactmath.binomial_calls": total(lambda s: s["functions"].get("exactmath.binomial", 0)),
        "exactmath.stirling2_hit_ratio": hit_ratio("stirling2"),
        "exactmath.partition_count_hit_ratio": hit_ratio("partition_count"),
        "oracle.words": words,
        "oracle.words_per_s": per(words, total(lambda s: s["layers"]["oracle"]["incl_s"])),
        "patterncounts.count_pattern_calls_per_entry": per(
            total(lambda s: s["functions"].get("patterncounts.count_pattern", 0)),
            total(lambda s: s["entries"])),
        "verification.cases": cases,
        "verification.cases_per_s": per(cases, total(lambda s: s["layers"]["verification"]["incl_s"])),
        "cli.bytes_out": sum(rec["bytes_out"] for rec in traced) / k,
        "trace.wall_s": traced_wall,
        "trace_overhead_share": (traced_wall - plain_wall) / plain_wall,
    })
    return out


def report(workload: str, seed: int, trace: int, env: dict, result: dict,
           records: list[dict], probes: list[dict], units: dict[str, str]) -> None:
    failed = [r for r in records if not r["ok"]]
    causes: dict[str, int] = {}
    for r in failed:
        key = r["defect"] or r["reason"]
        causes[key] = causes.get(key, 0) + 1
    print(f"perfbench workload={workload} seed={seed} trace={trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"queries: attempted={len(records)} failed={len(failed)} "
          f"unexplained={sum(r['unexplained'] for r in records)}")
    for cause, count in sorted(causes.items()):
        print(f"  failed {count}x: {cause}")
    for p in probes:
        print(f"known defect {p['probe_of']} {p['status']}: {' '.join(p['argv'])}"
              f" -> {p['reason'] or 'correct answer'}")
    extra = result["extra"]
    for name, value in result["metrics"].items():
        note = ""
        if name == "latency_tail_s":
            note = (f"  (p{extra['latency_tail_percentile']} of {extra['latency_samples']} samples,"
                    f" {extra['latency_beyond_tail']} beyond)")
        elif name == "setup_s":
            note = f"  (median of {extra['setup_repeats']} imports)"
        print(f"{name} = {value:.6g} {units[name]}{note}")
    if "failed_share" in extra:
        print(f"failed_share = {extra['failed_share']:.6g} share")
    if "self_s_sum" in extra:
        print(f"layers' self time {extra['self_s_sum']:.6g} s <= traced wall time"
              f" {result['metrics']['trace.wall_s']:.6g} s, over {extra['passes']} passes"
              " (and in each query, <= the time its cli.main ran)")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "cycloseq" / "cli.py").is_file():
        print(f"perfbench: no cycloseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks read reference tables and closed forms
    sys.set_int_max_str_digits(0)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    # a terminated run still stops the spawner, and with it the running query
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(out_dir, started)
    try:
        if not build(runner):
            print("perfbench: cycloseq does not build or import", file=sys.stderr)
            return 2
        env = environment(runner, args.seed)
        probes = probe_defects(runner) if args.workload in PROBED else []
        if args.trace:
            queries = workloads.generate(args.workload, args.seed, TRACE_ROUNDS)
            result, records = traced_run(runner, queries, args.seconds)
            units = per_layer_units()
        else:
            rounds = workloads.generate_rounds(args.workload, args.seed)
            result, records = timed_run(runner, rounds, args.seconds)
            units = END_TO_END_UNITS
    finally:
        runner.close()
    correct = not any(r["unexplained"] for r in records + probes)
    report(args.workload, args.seed, args.trace, env, result, records, probes, units)
    (out_dir / "report.json").write_text(json.dumps({
        "environment": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "correct": correct,
        "metrics": result["metrics"],
        "extra": result["extra"],
        "queries": [{k: v for k, v in r.items() if k != "trace"} for r in records],
        "defect_probes": probes,
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
