"""Deterministic command-line front end.

Every command prints an output envelope carrying the command echo, its
parameters, a format version, the route that answered and the payload;
identical invocations produce byte-identical output.  The parameters are
every option the query was given or defaulted, except --format and those
left None, in declaration order.  Exact counts are serialized as decimal
strings so arbitrary precision survives JSON.  The rows of tnum and dist
stream one cell at a time, each count walked and printed as it is written.
Exit codes: 0 success, 1 a failed `verify` check, 2 usage error, 3 domain
error, 4 the output could not be written (a closed pipe or a full device).
Every refusal (exit 2 or 3) comes before the first byte; an engine defect
mid-row (InexactDivision, a trapped decimal rounding) ends in a traceback,
exit 1, after a partial envelope.
"""

import argparse
import json
import os
import sys
from collections.abc import Iterator, Sequence

# analytics, oracle and verification load fractions, the enumerator and the
# published tables, so only the runners that call them import them
from . import coeffs, exactmath, patterncounts, physics, tnumbers
from .errors import DomainError

FORMAT_VERSION = "1"


def _envelope(args: argparse.Namespace, payload) -> dict:
    """The query's envelope, echoing every option that is not None, in declaration order.

    Its provenance is the route that answered: both for verify, the oracle for
    dist --via oracle, a closed form for every other query.
    """
    return {
        "command": args.cmd,
        "params": {k: v for k, v in vars(args).items()
                   if k not in ("cmd", "format") and v is not None},
        "format_version": FORMAT_VERSION,
        "provenance": ("both" if args.cmd == "verify" else
                       "oracle" if getattr(args, "via", None) == "oracle" else "closed-form"),
        "payload": payload,
    }


class _Row:
    """A payload row walked as it is written, one decimal count alive at a time.

    Its integer keys are known up front, so pretty can align them.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: Sequence[int], values: Iterator[str]) -> None:
        self.keys, self.values = keys, values

    def items(self) -> Iterator[tuple[str, str]]:
        return zip(map(str, self.keys), self.values, strict=True)


def _row(entries: dict[int, int]) -> _Row:
    """entries as a row from index 0 to the last key, an absent index counted as 0.

    Each count is printed only as it is written.
    """
    keys = range(max(entries, default=0) + 1)
    return _Row(keys, (str(entries.get(k, 0)) for k in keys))


def _flat_items(payload: dict | _Row):
    """The payload's (key, value) pairs, a nested dict spread one level under outer.inner keys."""
    for k, v in payload.items():
        if isinstance(v, dict):
            yield from ((f"{k}.{inner}", w) for inner, w in v.items())
        else:
            yield k, v


def _emit_json(env: dict, out) -> None:
    payload = env["payload"]
    if not isinstance(payload, _Row):
        json.dump(env, out, indent=2)
        out.write("\n")
        return
    # the envelope up to its last field, the payload, whose cells follow as they
    # are walked; a cell is digits only, so none needs escaping
    out.write(json.dumps({**env, "payload": None}, indent=2)[:-len("null\n}")])
    lead = "{"
    for k, v in payload.items():
        out.write(f'{lead}\n    "{k}": "{v}"')
        lead = ","
    out.write("{}\n}\n" if lead == "{" else "\n  }\n}\n")


def _emit_csv(env: dict, out) -> None:
    payload = env["payload"]
    out.write(f"# {env['command']} {json.dumps(env['params'], sort_keys=True)} "
              f"v{env['format_version']} {env['provenance']}\n")
    if isinstance(payload, dict) and "rows" in payload:
        rows = payload["rows"]
    elif isinstance(payload, list) and payload and isinstance(payload[0], dict) and "rows" in payload[0]:
        # each block opens with its comment line, written as a row of one cell
        rows = [row for b in payload
                for row in [[f"# kind={b['kind']} fixed_index={b['fixed_index']}"], *b["rows"]]]
    elif isinstance(payload, (dict, _Row)):
        out.write("index,value\n")
        rows = _flat_items(payload)
    elif isinstance(payload, list):
        rows = payload
    else:
        rows = [("value",), (payload,)]
    # every cell is a decimal count, a float or a fixed key: none holds a comma,
    # a quote or a line break, so none needs quoting
    out.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _matrix_pretty(block: dict) -> str:
    rows = block["rows"]
    labels = block.get("row_labels") or list(range(1, len(rows) + 1))
    cells = [["" if v == "0" else v for v in row] for row in rows]
    width = max((len(c) for row in cells for c in row), default=1)
    label_w = max((len(str(lab)) for lab in labels), default=1)
    lines = [f"{block['kind']}  fixed index {block['fixed_index']}"]
    for lab, row in zip(labels, cells):
        body = " ".join(c.rjust(width) for c in row).rstrip()
        lines.append(f"{str(lab).rjust(label_w)} | {body}".rstrip())
    return "\n".join(lines) + "\n"


def _emit_pretty(env: dict, out) -> None:
    payload = env["payload"]
    out.write(f"# {env['command']} {json.dumps(env['params'], sort_keys=True)} "
              f"({env['provenance']})\n")
    if isinstance(payload, dict) and "rows" in payload:
        out.write(_matrix_pretty(payload))
    elif isinstance(payload, list) and payload and isinstance(payload[0], dict) and "rows" in payload[0]:
        out.write("\n".join(_matrix_pretty(b) for b in payload))
    elif isinstance(payload, _Row):
        width = max((len(str(k)) for k in payload.keys), default=1)
        out.writelines(f"{k.rjust(width)}  {v}\n" for k, v in payload.items())
    elif isinstance(payload, dict):
        items = list(_flat_items(payload))
        width = max((len(k) for k, _ in items), default=1)
        out.writelines(f"{k.rjust(width)}  {v}\n" for k, v in items)
    elif isinstance(payload, list):
        out.writelines(" ".join(map(str, item)) + "\n" for item in payload)
    else:
        out.write(f"{payload}\n")


def _emit(env: dict, fmt: str, out) -> None:
    """Write env to out in the format fmt as it is encoded, a row one cell at a time.

    verify's report has no table, so its csv is its json.
    """
    if env["command"] == "verify" and fmt == "pretty":
        out.write(_emit_pretty_verify(env))
    elif fmt == "json" or env["command"] == "verify":
        _emit_json(env, out)
    elif fmt == "csv":
        _emit_csv(env, out)
    else:
        _emit_pretty(env, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloseq",
        description="Exact occurrence statistics of digit strings in cyclic binary sequences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--m", type=int, required=True)
    family.add_argument("--n", type=int, required=True)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("tnum", parents=[common, family], help="jump-count distribution or point value")
    p.add_argument("--tau", type=int)

    p = sub.add_parser("dist", parents=[common, family], help="occurrence distribution of a pattern")
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

    p = sub.add_parser("moments", parents=[common, family], help="weighted binomial moment sums")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--approx", action="store_true")

    p = sub.add_parser("asym", parents=[common, family], help="asymptotic jump-count estimates")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--tau", type=int)
    mode.add_argument("--sweep", action="store_true", default=None,
                      help="emit (x, value) pairs along the curve")

    p = sub.add_parser("verify", parents=[common], help="oracle equivalence suite and typo ledger")
    p.add_argument("--max-N", dest="max_N", type=int, default=12)

    return parser


def _run_tnum(args):
    if args.tau is not None:
        return str(tnumbers.t_number(args.m, args.n, args.tau))
    exactmath.SequenceFamily(args.m, args.n)  # refused here, before the first byte is written
    taus = range(2, 2 * min(args.m, args.n) + 1, 2) or range(1)  # a constant family: tau = 0
    return _Row(taus, _decimal_counts(args.m, args.n))


def _decimal_counts(m: int, n: int) -> Iterator[str]:
    """The counts of tnumbers.jump_row as digits, walked as they are drawn.

    Decimal cells print in linear time, where str() of a long int is
    quadratic.  Outside the context a Decimal silently rounds to 28 digits,
    so it stays open until the last cell is drawn.
    """
    with exactmath.exact_decimal(m + n) as one:
        yield from (str(count) for _, count in tnumbers.jump_row(m, n, one))


def _run_dist(args):
    if args.via == "oracle":
        from . import oracle

        return _row(oracle.pattern_distribution(args.m, args.n, args.pattern))
    dist = patterncounts.pattern_distribution(args.m, args.n, args.pattern)
    return _row(dist.entries)


def _coeff_value(kind: str, s: int, i: int, j: int, k: int) -> int:
    if kind == "c":
        return coeffs.c_coeff(i, j, k)
    if kind == "cweight":
        return coeffs.c_weight(s, i, k, j)  # j is the height, k the weight
    return coeffs.c_general(s, i, j, k)  # cprime is cs at s = 1


def _run_coeff(args):
    own = {"c": 0, "cprime": 1}.get(args.kind, args.s)  # c and cprime fix their own s
    if args.s not in (0, own):
        raise ValueError(f"--kind {args.kind} fixes s = {own}, got --s {args.s}")
    args.s = own  # echoed as the s the kind computes with
    if (args.j is None) != (args.k is None):
        raise ValueError("coeff takes --j and --k (or --g) together, or neither")
    if args.j is not None:
        return str(_coeff_value(args.kind, args.s, args.i, args.j, args.k))
    # no cell given: emit the whole grid for this fixed upper index, evaluating
    # its first cell even when it is empty, to refuse what point queries refuse
    row_lo = 1 if args.kind == "cweight" else 0
    _coeff_value(args.kind, args.s, args.i, row_lo, 0)
    labels = list(range(row_lo, args.i + 1))
    rows = [
        [str(_coeff_value(args.kind, args.s, args.i, j, k)) for k in range(args.i + 1)]
        for j in labels
    ]
    return {"kind": args.kind, "fixed_index": args.i, "row_labels": labels, "rows": rows}


def _run_appendix(args):
    blocks = coeffs.appendix_tables(args.which, args.index)
    return [
        {"kind": b["kind"], "fixed_index": b["fixed_index"],
         "rows": [[str(v) for v in row] for row in b["rows"]]}
        for b in blocks
    ]


def _run_moments(args):
    from . import analytics

    exactmath.SequenceFamily(args.m, args.n)  # moment_sum alone would answer (0, 0)
    exact = analytics.moment_sum(args.m, args.n, args.r)
    if not args.approx:
        return str(exact)
    approx = analytics.moment_approx(args.m, args.n, args.r)
    return {
        "exact": str(exact),
        "approx": float(approx),
        "approx_rational": f"{approx.numerator}/{approx.denominator}",
    }


def _run_asym(args):
    from . import analytics

    exactmath.nondegenerate_family(args.m, args.n)  # the ranges below can be empty
    if args.sweep:
        top = 2 * min(args.m, args.n) + 2
        pairs = []
        for step in range(0, 10 * top + 1):
            x = step / 10.0
            pairs.append([f"{x:.1f}", f"{analytics.t_asymptotic(args.m, args.n, x):.6f}"])
        return pairs
    if args.tau is not None:
        return analytics.t_asymptotic(args.m, args.n, args.tau)
    dist = {
        tau: analytics.t_asymptotic(args.m, args.n, tau)
        for tau in range(2, 2 * min(args.m, args.n) + 3, 2)
    }
    return {str(k): v for k, v in dist.items()}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact counts outgrow the interpreter's int-to-str digit limit (4300 by
    # default) long before they are costly to compute
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(parser, args)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(parser: argparse.ArgumentParser, args) -> int:
    out = sys.stdout
    try:
        if args.cmd == "tnum":
            payload = _run_tnum(args)
        elif args.cmd == "dist":
            payload = _run_dist(args)
        elif args.cmd == "coeff":
            payload = _run_coeff(args)
        elif args.cmd == "appendix":
            payload = _run_appendix(args)
        elif args.cmd == "fib":
            payload = str(patterncounts.fibonacci_gf(args.N, args.r, args.h))
        elif args.cmd == "kaplansky":
            payload = str(patterncounts.kaplansky(args.N, args.n, args.p))
        elif args.cmd == "ising":
            if args.mode == "fixed":
                if args.n is None:
                    parser.error("ising fixed needs --n")
                payload = physics.ising_partition_fixed(args.N, args.n, args.nu)
            else:
                if args.n is not None:
                    parser.error("ising total takes no --n")
                payload = physics.ising_partition_total(args.N, args.nu)
        elif args.cmd == "walk":
            poly = physics.walk_weight_polynomial(args.N, args.k)
            payload = {
                "coefficients": {str(k): str(v) for k, v in sorted(poly.coefficients.items())},
                "scalar": poly.scalar(args.alpha),
            }
        elif args.cmd == "moments":
            payload = _run_moments(args)
        elif args.cmd == "asym":
            payload = _run_asym(args)
        elif args.cmd == "verify":
            from . import verification

            payload = verification.run_verify(args.max_N)
    except DomainError as exc:
        return _fail(3, f"error: {exc}")
    except ValueError as exc:
        return _fail(2, f"usage error: {exc}")
    env = _envelope(args, payload)
    try:
        _emit(env, args.format, out)
        out.flush()
    except OSError as exc:  # a closed pipe or a full device
        _to_null(out)
        return _fail(4, f"error: cannot write the output: {exc.strerror or exc}")
    return 0 if args.cmd != "verify" or payload["all_equivalent"] else 1


def _to_null(stream) -> None:
    """Point stream at the null device, where the interpreter flushes its unwritten rest at exit."""
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    except OSError:  # a stream with no file descriptor
        pass


def _fail(code: int, line: str) -> int:
    """Print line on stderr and return code, which holds when stderr is broken too."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:  # a closed pipe or a full device
        _to_null(sys.stderr)
    return code


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
