"""Seeded query generators for the benchmark workloads.

A workload is a list of rounds.  Each round holds one query per stratum of
the workload, with parameters drawn from the seed inside that stratum's
band, in a seeded order.  Fixed strata keep the mix of cheap and expensive
queries the same from seed to seed, so run-to-run spread comes from the
program and the machine rather than from the draw.  The bands are set by
the time budget of one query (about a second) and, for closed_large, by the
range in which the answer can be printed at all (under 4300 digits, inside
the double range).  Outside that range the program fails in catalogued
ways; run.py reproduces each of those failures on every closed_large run
with the fixed probes listed in notes.json, so they stay visible without
making the count of failed timed queries depend on how many fit in a run.

Every query is the argv a user would pass to the ``cycloseq`` command, and
the program sees nothing but that argv.
"""

from __future__ import annotations

import random

WORKLOADS = ("closed_large", "oracle_enum", "verify_audit")

# More rounds than any run can use in 60 seconds.
ROUNDS = 400


# The benchmark keeps its own list of solved patterns, so the seeded queries
# stay the same when the program's set of solved patterns changes.
def _solved_of_length(L: int) -> list[str]:
    """The solved patterns of the closed forms: length <= 3, single-digit runs,
    0^r 1 and its reversal and complement images."""
    if L <= 3:
        return [format(v, f"0{L}b") for v in range(1 << L)]
    z = L - 1
    return ["0" * L, "1" * L, "0" * z + "1", "1" + "0" * z, "1" * z + "0", "0" + "1" * z]


def _unsolved_of_length(L: int) -> list[str]:
    solved = set(_solved_of_length(L))
    return [p for p in (format(v, f"0{L}b") for v in range(1 << L)) if p not in solved]


def _json(*argv: str) -> list[str]:
    return [*argv, "--format", "json"]


# The middle of a closed_large round: solved patterns of length 5 to 8 at
# sizes where each takes the closed forms about a tenth of a second.  Runs of
# one digit cost far more per size than the images of 0^(L-1)1, and both grow
# steeply with L, m and n (a few per cent per unit of m), so each stratum
# has its own narrow band; the seed picks the digit or image and the sizes
# inside the band.
_DIST_STRATA = (
    # (runs of one digit?, L, band of m and n)
    (True, 5, (41, 42)),
    (True, 6, (35, 36)),
    (True, 7, (32, 33)),
    (True, 8, (30, 31)),
    (False, 7, (47, 48)),
    (False, 8, (43, 44)),
)


def _banded_dist(rng: random.Random, run: bool, L: int, band: tuple[int, int]) -> list[str]:
    pool = ["0" * L, "1" * L] if run else _solved_of_length(L)[2:]
    return _json("dist", "--m", str(rng.randint(*band)), "--n", str(rng.randint(*band)),
                 "--pattern", rng.choice(pool))


def _closed_large_round(rng: random.Random) -> list[list[str]]:
    # A round, by cost: five cheap queries and one short-pattern dist, six
    # banded dist queries in the middle (so the median falls on patterncounts
    # work of nearly fixed cost), two moment sums, and three full jump
    # distributions on top (so the tail percentile falls inside them).
    # The float commands and tnum point queries stay where the answer is
    # representable: below 4300 digits and inside the normal double range.
    # Beyond it the program fails in catalogued ways (notes.json), which
    # run.py reproduces with fixed probes on every closed_large run.
    r = rng.randint
    # C(N, n) < 10^4213 for N <= 14000, so no point query reaches 4300 digits
    m, n = r(1000, 7000), r(1000, 7000)
    out = [_json("tnum", "--m", str(m), "--n", str(n), "--tau", str(2 * r(1, min(m, n))))]
    # log Z <= log C(4000, 60) + 4000 * 0.05 < 520, far below log(1e308)
    N = r(1000, 4000)
    out.append(_json("ising", "fixed", "--N", str(N), "--n", str(r(20, 60)),
                     "--nu", f"{rng.uniform(0.005, 0.05):.4f}"))
    # alpha^tau >= 0.02^120 and (1 - alpha)^N >= 0.85^3000, both above 1e-300,
    # and every count is below C(3000, 60) < 10^130
    N, low = r(1000, 3000), r(20, 60)
    out.append(_json("walk", "--N", str(N), "--k", str(rng.choice((1, -1)) * (N - 2 * low)),
                     "--alpha", f"{rng.uniform(0.02, 0.15):.4f}"))
    # sum h^r C(m,h) C(n,h) <= C(600, 300) 300^40 < 10^279
    out.append(_json("moments", "--m", str(r(150, 300)), "--n", str(r(150, 300)),
                     "--r", str(r(2, 40)), "--approx"))
    if rng.random() < 0.5:
        out.append(_json("coeff", "--kind", "cs", "--s", str(r(1, 3)), "--i", str(r(30, 50))))
    else:
        kind = rng.choice(["c_by_k", "c_by_i", "cprime_by_k", "cprime_weight"])
        out.append(_json("appendix", "--which", kind))
    # 0000 and 1111 would cost several times more than the rest at these sizes
    short = [p for L in (2, 3) for p in _solved_of_length(L)] + _solved_of_length(4)[2:]
    out.append(_json("dist", "--m", str(r(60, 90)), "--n", str(r(60, 90)),
                     "--pattern", rng.choice(short)))
    out += [_banded_dist(rng, *stratum) for stratum in _DIST_STRATA]
    # orders from 4 on are summed term by term (orders 0-3 are closed forms)
    out += [_json("moments", "--m", str(r(1400, 1600)), "--n", str(r(1400, 1600)),
                  "--r", str(r(4, 40))) for _ in range(2)]
    out += [_json("tnum", "--m", str(r(2000, 2100)), "--n", str(r(2000, 2100))) for _ in range(3)]
    return out


def _oracle_enum_round(rng: random.Random) -> list[list[str]]:
    # Family sizes 14 to 20 at the balanced split, where C(N, n) and so the
    # cost is largest and the same for either orientation.  N = 17 takes the
    # middle of every round, so the median rests on many samples of one
    # size; N = 18 holds the tail, and N = 20, the oracle's cap, lies beyond it.
    out = []
    for N in (14, 15, 16, 17, 17, 17, 18, 18, 18, 20):
        n = N // 2 + rng.randint(0, N % 2)
        solved = rng.random() < 0.5
        L = rng.randint(3, 6) if solved else rng.randint(4, 6)
        pool = _solved_of_length(L) if solved else _unsolved_of_length(L)
        out.append(_json("dist", "--m", str(N - n), "--n", str(n), "--pattern", rng.choice(pool),
                         "--via", "oracle"))
    return out


def _verify_audit_round(rng: random.Random) -> list[list[str]]:
    # k = 11 holds the middle three of eight, so the median sits inside that
    # group; two k = 13 per round put the tail inside their group
    return [_json("verify", "--max-N", str(k)) for k in (9, 10, 11, 11, 11, 12, 13, 13)]


_ROUND = {
    "closed_large": _closed_large_round,
    "oracle_enum": _oracle_enum_round,
    "verify_audit": _verify_audit_round,
}


def generate_rounds(workload: str, seed: int, rounds: int = ROUNDS) -> list[list[list[str]]]:
    """The workload's query rounds for a seed; the same seed gives the same rounds."""
    if workload not in _ROUND:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        queries = _ROUND[workload](rng)
        rng.shuffle(queries)
        out.append(queries)
    return out


def generate(workload: str, seed: int, rounds: int = ROUNDS) -> list[list[str]]:
    """The workload's queries for a seed, round after round."""
    return [q for rnd in generate_rounds(workload, seed, rounds) for q in rnd]
