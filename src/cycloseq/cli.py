"""Deterministic command-line front end.

Every command prints an output envelope carrying the command echo, its
parameters, a format version and the payload; identical invocations produce
byte-identical output.  Exact counts are serialized as decimal strings so
arbitrary precision survives JSON.  Exit codes: 0 success, 2 usage error
(argparse), 3 domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

# analytics, oracle and verification load fractions, the enumerator and the
# published tables, so only the runners that call them import them
from . import coeffs, patterncounts, physics, tnumbers
from .errors import DegenerateFamily, DomainError

FORMAT_VERSION = "1"


def _envelope(command: str, params: dict, payload, provenance: str) -> dict:
    return {
        "command": command,
        "params": params,
        "format_version": FORMAT_VERSION,
        "provenance": provenance,
        "payload": payload,
    }


def _dist_payload(entries: dict[int, int]) -> dict[str, str]:
    return {str(k): str(v) for k, v in sorted(entries.items())}


def _emit_json(env: dict) -> str:
    return json.dumps(env, indent=2) + "\n"


def _emit_csv(env: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    payload = env["payload"]
    buf.write(f"# {env['command']} {json.dumps(env['params'], sort_keys=True)} "
              f"v{env['format_version']} {env['provenance']}\n")
    if isinstance(payload, dict) and "rows" in payload:
        for row in payload["rows"]:
            writer.writerow(row)
    elif isinstance(payload, list) and payload and isinstance(payload[0], dict) and "rows" in payload[0]:
        for block in payload:
            buf.write(f"# kind={block['kind']} fixed_index={block['fixed_index']}\n")
            for row in block["rows"]:
                writer.writerow(row)
    elif isinstance(payload, dict):
        writer.writerow(["index", "value"])
        for k, v in payload.items():
            writer.writerow([k, v])
    elif isinstance(payload, list):
        for item in payload:
            writer.writerow(item if isinstance(item, (list, tuple)) else [item])
    else:
        writer.writerow(["value"])
        writer.writerow([payload])
    return buf.getvalue()


def _matrix_pretty(block: dict) -> str:
    rows = block["rows"]
    labels = block.get("row_labels") or list(range(1, len(rows) + 1))
    cells = [["" if v == "0" or v == 0 else str(v) for v in row] for row in rows]
    width = max((len(c) for row in cells for c in row), default=1)
    label_w = max((len(str(lab)) for lab in labels), default=1)
    lines = [f"{block['kind']}  fixed index {block['fixed_index']}"]
    for lab, row in zip(labels, cells):
        body = " ".join(c.rjust(width) for c in row).rstrip()
        lines.append(f"{str(lab).rjust(label_w)} | {body}".rstrip())
    return "\n".join(lines) + "\n"


def _emit_pretty(env: dict) -> str:
    payload = env["payload"]
    head = (f"# {env['command']} {json.dumps(env['params'], sort_keys=True)} "
            f"({env['provenance']})\n")
    if isinstance(payload, dict) and "rows" in payload:
        return head + _matrix_pretty(payload)
    if isinstance(payload, list) and payload and isinstance(payload[0], dict) and "rows" in payload[0]:
        return head + "\n".join(_matrix_pretty(b) for b in payload)
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=1)
        body = "".join(f"{str(k).rjust(width)}  {v}\n" for k, v in payload.items())
        return head + body
    if isinstance(payload, list):
        return head + "".join(
            (" ".join(str(x) for x in item) if isinstance(item, (list, tuple)) else str(item)) + "\n"
            for item in payload
        )
    return head + f"{payload}\n"


def _emit(env: dict, fmt: str) -> str:
    if fmt == "json":
        return _emit_json(env)
    if fmt == "csv":
        return _emit_csv(env)
    return _emit_pretty(env)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloseq",
        description="Exact occurrence statistics of digit strings in cyclic binary sequences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("tnum", parents=[common], help="jump-count distribution or point value")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=int)

    p = sub.add_parser("dist", parents=[common], help="occurrence distribution of a pattern")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--via", choices=("closed", "oracle"), default="closed")

    p = sub.add_parser("coeff", parents=[common], help="column-deletion coefficients")
    p.add_argument("--kind", choices=("c", "cprime", "cs", "cweight"), required=True)
    p.add_argument("--s", type=int, default=0, help="extra deletions beyond the first column")
    p.add_argument("--i", "--m", dest="i", type=int, required=True)
    p.add_argument("--j", type=int, help="column count (height) index")
    p.add_argument("--k", "--g", dest="k", type=int, help="dimension or weight index")

    p = sub.add_parser("appendix", parents=[common], help="emit the coefficient matrix families")
    p.add_argument("--which", choices=coeffs.APPENDIX_KINDS, required=True)
    p.add_argument("--index", type=int, help="restrict to one fixed index")

    p = sub.add_parser("fib", parents=[common], help="cyclic run-count subset numbers")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=int, required=True)

    p = sub.add_parser("kaplansky", parents=[common], help="spaced circular selections")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("ising", parents=[common], help="ring partition functions")
    p.add_argument("mode", choices=("fixed", "total"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--nu", type=float, required=True)

    p = sub.add_parser("walk", parents=[common], help="memory-walk weight polynomial")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("moments", parents=[common], help="weighted binomial moment sums")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--approx", action="store_true")

    p = sub.add_parser("asym", parents=[common], help="asymptotic jump-count estimates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=int)
    p.add_argument("--sweep", action="store_true", help="emit (x, value) pairs along the curve")

    p = sub.add_parser("verify", parents=[common], help="oracle equivalence suite and typo ledger")
    p.add_argument("--max-N", dest="max_n", type=int, default=12)

    return parser


def _run_tnum(args) -> dict:
    if args.tau is not None:
        value = tnumbers.t_number(args.m, args.n, args.tau)
        return _envelope("tnum", {"m": args.m, "n": args.n, "tau": args.tau},
                         str(value), "closed-form")
    dist = tnumbers.t_distribution(args.m, args.n)
    return _envelope("tnum", {"m": args.m, "n": args.n},
                     _dist_payload(dist.entries), "closed-form")


def _run_dist(args) -> dict:
    params = {"m": args.m, "n": args.n, "pattern": args.pattern, "via": args.via}
    if args.via == "oracle":
        from . import oracle

        entries = oracle.pattern_distribution(args.m, args.n, args.pattern)
        top = max((h for h, v in entries.items() if v), default=0)
        entries = {h: entries.get(h, 0) for h in range(top + 1)}
        return _envelope("dist", params, _dist_payload(entries), "oracle")
    dist = patterncounts.pattern_distribution(args.m, args.n, args.pattern)
    return _envelope("dist", params, _dist_payload(dist.entries), "closed-form")


def _coeff_value(kind: str, s: int, i: int, j: int, k: int) -> int:
    if kind == "c":
        return coeffs.c_coeff(i, j, k)
    if kind == "cprime":
        return coeffs.c_general(1, i, j, k)
    if kind == "cs":
        return coeffs.c_general(s, i, j, k)
    return coeffs.c_weight(s, i, k, j)  # cweight: j is the height, k the weight


def _run_coeff(args) -> dict:
    params = {"kind": args.kind, "s": args.s, "i": args.i, "j": args.j, "k": args.k}
    if (args.j is None) != (args.k is None):
        raise DomainError("coeff takes --j and --k (or --g) together, or neither")
    if args.j is not None:
        value = _coeff_value(args.kind, args.s, args.i, args.j, args.k)
        return _envelope("coeff", params, str(value), "closed-form")
    # no cell given: emit the whole grid for this fixed upper index, evaluating
    # its first cell even when it is empty, to refuse what point queries refuse
    row_lo = 1 if args.kind == "cweight" else 0
    _coeff_value(args.kind, args.s, args.i, row_lo, 0)
    labels = list(range(row_lo, args.i + 1))
    rows = [
        [str(_coeff_value(args.kind, args.s, args.i, j, k)) for k in range(args.i + 1)]
        for j in labels
    ]
    payload = {"kind": args.kind, "fixed_index": args.i, "row_labels": labels, "rows": rows}
    return _envelope("coeff", params, payload, "closed-form")


def _run_appendix(args) -> dict:
    blocks = coeffs.appendix_tables(args.which, args.index)
    payload = [
        {"kind": b["kind"], "fixed_index": b["fixed_index"],
         "rows": [[str(v) for v in row] for row in b["rows"]]}
        for b in blocks
    ]
    params = {"which": args.which}
    if args.index is not None:
        params["index"] = args.index
    return _envelope("appendix", params, payload, "closed-form")


def _run_moments(args) -> dict:
    from . import analytics

    exact = analytics.moment_sum(args.m, args.n, args.r)
    params = {"m": args.m, "n": args.n, "r": args.r, "approx": args.approx}
    if not args.approx:
        return _envelope("moments", params, str(exact), "closed-form")
    approx = analytics.moment_approx(args.m, args.n, args.r)
    payload = {
        "exact": str(exact),
        "approx": float(approx),
        "approx_rational": f"{approx.numerator}/{approx.denominator}",
    }
    return _envelope("moments", params, payload, "closed-form")


def _run_asym(args) -> dict:
    from . import analytics

    params = {"m": args.m, "n": args.n}
    if args.m < 1 or args.n < 1:
        raise DegenerateFamily("asymptotic form needs both digits present")
    if args.sweep:
        top = 2 * min(args.m, args.n) + 2
        pairs = []
        for step in range(0, 10 * top + 1):
            x = step / 10.0
            pairs.append([f"{x:.1f}", f"{analytics.t_asymptotic(args.m, args.n, x):.6f}"])
        params["sweep"] = True
        return _envelope("asym", params, pairs, "closed-form")
    if args.tau is not None:
        params["tau"] = args.tau
        value = analytics.t_asymptotic(args.m, args.n, args.tau)
        return _envelope("asym", params, value, "closed-form")
    dist = {
        tau: analytics.t_asymptotic(args.m, args.n, tau)
        for tau in range(2, 2 * min(args.m, args.n) + 3, 2)
    }
    return _envelope("asym", params, {str(k): v for k, v in dist.items()}, "closed-form")


def _run_verify(args) -> tuple[dict, int]:
    from . import verification

    report = verification.run_verify(args.max_n)
    env = _envelope("verify", {"max_N": args.max_n}, report, "both")
    return env, 0 if report["all_equivalent"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact counts outgrow the interpreter's int-to-str digit limit (4300 by
    # default, where it has one) long before they are costly to compute
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return _run(parser, args)
    sys.set_int_max_str_digits(0)
    try:
        return _run(parser, args)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(parser: argparse.ArgumentParser, args) -> int:
    out = sys.stdout
    try:
        if args.cmd == "tnum":
            env = _run_tnum(args)
        elif args.cmd == "dist":
            env = _run_dist(args)
        elif args.cmd == "coeff":
            env = _run_coeff(args)
        elif args.cmd == "appendix":
            env = _run_appendix(args)
        elif args.cmd == "fib":
            value = patterncounts.fibonacci_gf(args.N, args.r, args.h)
            env = _envelope("fib", {"N": args.N, "r": args.r, "h": args.h},
                            str(value), "closed-form")
        elif args.cmd == "kaplansky":
            value = patterncounts.kaplansky(args.N, args.n, args.p)
            env = _envelope("kaplansky", {"N": args.N, "n": args.n, "p": args.p},
                            str(value), "closed-form")
        elif args.cmd == "ising":
            if args.mode == "fixed":
                if args.n is None:
                    parser.error("ising fixed needs --n")
                value = physics.ising_partition_fixed(args.N, args.n, args.nu)
                env = _envelope("ising", {"mode": "fixed", "N": args.N, "n": args.n,
                                          "nu": args.nu}, value, "closed-form")
            else:
                value = physics.ising_partition_total(args.N, args.nu)
                env = _envelope("ising", {"mode": "total", "N": args.N, "nu": args.nu},
                                value, "closed-form")
        elif args.cmd == "walk":
            poly = physics.walk_weight_polynomial(args.N, args.k)
            payload = {
                "coefficients": _dist_payload(poly.coefficients),
                "scalar": poly.scalar(args.alpha),
            }
            env = _envelope("walk", {"N": args.N, "k": args.k, "alpha": args.alpha},
                            payload, "closed-form")
        elif args.cmd == "moments":
            env = _run_moments(args)
        elif args.cmd == "asym":
            env = _run_asym(args)
        elif args.cmd == "verify":
            env, code = _run_verify(args)
            out.write(_emit_json(env) if args.format != "pretty" else _emit_pretty_verify(env))
            return code
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.cmd!r}")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    out.write(_emit(env, args.format))
    return 0


def _emit_pretty_verify(env: dict) -> str:
    report = env["payload"]
    lines = [f"# verify max_N={report['max_n']}"]
    for check in report["checks"]:
        status = "ok" if check["ok"] else f"FAILED ({len(check['failures'])} cases)"
        lines.append(f"check: {check['name']}: {check['cases']} cases: {status}")
    lines.append("typo ledger:")
    for item in report["typo_ledger"]:
        lines.append(f"  {item['id']}: {item['verdict']}")
        lines.append(f"    published: {item['published_reading']}")
        lines.append(f"    corrected: {item['corrected_reading']}")
    lines.append(f"all closed forms equivalent to enumeration: {report['all_equivalent']}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
