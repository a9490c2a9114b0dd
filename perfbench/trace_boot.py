"""Run one cycloseq CLI query with every layer's public functions traced.

Usage: python trace_boot.py SUMMARY_JSON ARGV...

Before ``cli.main`` runs, each public function (and public method) defined
in a layer module is replaced by a wrapper, in its own module and wherever
``from .x import y`` bound it under another module.  A call records a span
(function, start, end, parent span) in memory.  When the query ends, the
spans are reduced to per-layer self time (span time minus the time its
child spans cover) and call counts, and that summary is written to
SUMMARY_JSON together with the layer counters below.

Counters:
- words: words yielded by the oracle's enumerators (outermost generator only);
- entries: distribution entries from ``pattern_distribution``, plus one per
  ``count_pattern`` call made from outside ``patterncounts``;
- cases: cases run by ``verification.run_equivalence_suite``;
- cache: ``cache_info()`` of ``exactmath.stirling2`` and ``partition_count``.

Generator functions get no span: their bodies run inside the consumer's
span, which is where their time is charged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "verification", "physics", "analytics", "patterncounts",
          "coeffs", "tnumbers", "oracle", "exactmath")

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # function id -> "layer.qualname"
        self.layer_of: list[str] = []
        self.fids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.gen_calls: dict[int, int] = {}
        self.gen_depth = 0
        self.words = 0
        self.entries = 0
        self.cases = 0

    def _fid(self, layer: str, qualname: str) -> int:
        self.names.append(f"{layer}.{qualname}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, layer: str, fn, on_result=None):
        fid = self._fid(layer, fn.__qualname__)
        if inspect.isgeneratorfunction(fn):
            return functools.update_wrapper(self._wrap_generator(fid, layer, fn), fn)
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends

        def traced(*args, **kwargs):
            parent = self.current
            sid = len(fids)
            fids.append(fid)
            parents.append(parent)
            ends.append(0.0)
            starts.append(clock())
            self.current = sid
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                self.current = parent
            if on_result is not None:
                on_result(self, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, fid: int, layer: str, fn):
        count_words = layer == "oracle"

        def traced_gen(*args, **kwargs):
            self.gen_calls[fid] = self.gen_calls.get(fid, 0) + 1
            inner = fn(*args, **kwargs)
            if not count_words:
                return inner
            return self._counted(inner)

        return traced_gen

    def _counted(self, inner):
        # an enumerator that delegates to another resumes it at depth 1, so
        # only the outermost one counts its words
        while True:
            self.gen_depth += 1
            try:
                word = next(inner)
            except StopIteration:
                return
            finally:
                self.gen_depth -= 1
            if self.gen_depth == 0:
                self.words += 1
            yield word

    def summary(self) -> dict:
        n = len(self.fids)
        nf = len(self.names)
        self_s = [0.0] * nf
        calls = [0] * nf
        child = array("d", bytes(8 * n))
        incl: dict[str, float] = {}
        fids, parents, starts, ends, layer_of = (
            self.fids, self.parents, self.starts, self.ends, self.layer_of)
        cp = self.names.index("patterncounts.count_pattern")
        direct_point_queries = 0
        # a child span always has a larger index than its parent, so walking
        # backwards finishes every child before its parent
        for i in range(n - 1, -1, -1):
            d = ends[i] - starts[i]
            f = fids[i]
            calls[f] += 1
            self_s[f] += d - child[i]
            p = parents[i]
            if p >= 0:
                child[p] += d
            if p < 0 or layer_of[fids[p]] != layer_of[f]:
                incl[layer_of[f]] = incl.get(layer_of[f], 0.0) + d
                if f == cp:
                    direct_point_queries += 1
        for f, c in self.gen_calls.items():
            calls[f] += c
        layers = {name: {"self_s": 0.0, "calls": 0, "incl_s": incl.get(name, 0.0)} for name in LAYERS}
        for f, name in enumerate(self.names):
            layers[self.layer_of[f]]["self_s"] += self_s[f]
            layers[self.layer_of[f]]["calls"] += calls[f]
        return {
            "layers": layers,
            "functions": {name: calls[f] for f, name in enumerate(self.names) if calls[f]},
            "spans": n,
            "words": self.words,
            "entries": self.entries + direct_point_queries,
            "cases": self.cases,
        }


def _count_entries(tracer: Tracer, dist) -> None:
    tracer.entries += len(dist.entries)


def _count_cases(tracer: Tracer, checks) -> None:
    tracer.cases += sum(check["cases"] for check in checks)


RESULT_HOOKS = {
    ("patterncounts", "pattern_distribution"): _count_entries,
    ("verification", "run_equivalence_suite"): _count_cases,
}


def install(tracer: Tracer) -> dict:
    """Wrap every layer's public functions; return the original lru caches."""
    modules = {name: importlib.import_module(f"cycloseq.{name}") for name in LAYERS}
    home = {f"cycloseq.{name}": name for name in LAYERS}
    replaced = {}  # id(original) -> wrapper
    caches = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or home.get(getattr(obj, "__module__", None)) != layer:
                continue
            if inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(layer, fn))
            elif callable(obj):
                if hasattr(obj, "cache_info"):
                    caches[attr] = obj
                replaced[id(obj)] = tracer.wrap(layer, obj, RESULT_HOOKS.get((layer, attr)))
    for mod in [*modules.values(), importlib.import_module("cycloseq")]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    return caches


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    caches = install(tracer)
    from cycloseq import cli

    t0 = clock()
    try:
        return cli.main(argv)
    finally:
        t1 = clock()
        summary = tracer.summary()
        summary["main_s"] = t1 - t0
        summary["cache"] = {
            name: [fn.cache_info().hits, fn.cache_info().misses] for name, fn in caches.items()
        }
        summary["post_s"] = clock() - t1
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
