"""Span tracer that wraps powfrac's public functions from outside.

Each wrapped call records one span: name, start, end, busy time, parent
span and query id.  For a generator the span covers only the time spent
inside its ``next()`` calls, so ``busy`` is that accumulated time rather
than ``end - start``.  The program is single-threaded and spans nest, so
a span's self time is its busy time minus the busy time of its direct
children.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("fraccore", "paircount", "sieve", "expsum", "cli")

# (module, function) pairs wrapped in the traced run.  Helpers called once
# per tuple (circle_distance, PowerFraction.value) stay unwrapped: their time
# is charged to the caller, and wrapping them would dominate the overhead.
TRACED = {
    "fraccore": ("enumerate_tuples", "tuple_count"),
    "paircount": ("count_pairs_interval", "count_pairs_bruteforce", "coverage_profile",
                  "exceptional_measure", "window_count", "count_pairs_block",
                  "sharpness_study"),
    "sieve": ("sieve_rows", "row_count", "sieve_matrix", "gram_matrix",
              "sieve_gram_eigenvalue", "dense_gram_eigenvalue", "l1_sieve_sum",
              "dual_quadratic_form", "classical_bounds"),
    "expsum": ("mean_value_integral", "phase_pair_count", "direct_monomial_sum",
               "vdc_transform_sum", "stationary_phase_generic", "kusmin_landau_check",
               "calibrate_pair_count_vs_mean_value", "calibrate_mean_value_shortening"),
    "cli": ("main",),
}

# Short metric prefix for a span name, where it differs from "module.function".
_ALIASES = {"fraccore.enumerate_tuples": "fraccore.enumerate"}


def _work_count(name: str, args: tuple, result) -> tuple[str, int] | None:
    """Work done by one call, as (counter name, amount), counted where it happens."""
    if name == "sieve.sieve_matrix":
        return "sieve.sieve_matrix.entries", int(result.size)
    if name == "expsum.mean_value_integral":
        (spec,) = args
        return ("expsum.mean_value_integral.phases",
                (spec.i1[1] - spec.i1[0] + 1) * (spec.i2[1] - spec.i2[0] + 1))
    if name == "expsum.direct_monomial_sum":
        from powfrac.expsum import monomial_term_count
        return "expsum.direct_monomial_sum.terms", monomial_term_count(args[0])
    return None


class Tracer:
    def __init__(self) -> None:
        # span: [id, name, start, end, busy, parent, query]
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.query_id: tuple | None = None  # (round, index in round)
        self.query_scale: dict[tuple, float] = {}  # query id -> reference-speed factor
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, 0.0, parent, self.query_id]
        self.spans.append(span)
        return span

    def _wrap_function(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            tracer._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[name.split(".")[0] + ".raised"] += 1
                raise
            finally:
                tracer._stack.pop()
                span[3] = time.perf_counter()
                span[4] = span[3] - span[2]
            work = _work_count(name, args, result)
            if work is not None:
                tracer.counters[work[0]] += work[1]
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self
        counter = _ALIASES.get(name, name) + ".tuples"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            inner = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                tracer._stack.append(span[0])
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException:
                    tracer.counters[name.split(".")[0] + ".raised"] += 1
                    raise
                finally:
                    tracer._stack.pop()
                    span[3] = time.perf_counter()
                    span[4] += span[3] - t0
                tracer.counters[counter] += 1
                yield item

        return wrapper

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function, under every name that refers to it.

        Modules that imported a function by name (``paircount`` imports
        ``enumerate_tuples``, ``cli`` imports both) hold their own reference,
        so each such reference is patched as well.
        """
        import powfrac.cli  # noqa: F401  (loads every powfrac module)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "powfrac" or n.startswith("powfrac.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"powfrac.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                span_name = f"{layer}.{fname}"
                if inspect.isgeneratorfunction(original):
                    wrapped = self._wrap_generator(span_name, original)
                else:
                    wrapped = self._wrap_function(span_name, original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)
                        self._undo.append((module, fname, original))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._undo):
            setattr(module, fname, original)
        self._undo.clear()

    # -- reporting ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name, each span scaled by its query's speed factor."""
        child_busy = defaultdict(float)
        for span in self.spans:
            if span[5] is not None:
                child_busy[span[5]] += span[4]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            scale = self.query_scale.get(span[6], 1.0)
            totals[span[1]] += (span[4] - child_busy[span[0]]) * scale
        return dict(totals)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, each divided by the number of traced rounds."""
        per_name = self.self_times()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in per_name.items()
                                         if k.split(".")[0] == layer) / rounds
            out[f"{layer}.raised"] = self.counters.get(f"{layer}.raised", 0) / rounds
        for layer, names in TRACED.items():
            if layer == "cli":  # cli.main is the whole cli layer: cli.self_s above
                continue
            for fname in names:
                name = f"{layer}.{fname}"
                out[_ALIASES.get(name, name) + ".self_s"] = per_name.get(name, 0.0) / rounds
        out["paircount.calls"] = sum(1 for s in self.spans
                                     if s[1].startswith("paircount.")) / rounds
        for name in ("fraccore.enumerate.tuples", "sieve.sieve_matrix.entries",
                     "expsum.mean_value_integral.phases", "expsum.direct_monomial_sum.terms"):
            out[name] = self.counters.get(name, 0) / rounds
        out["sieve.sieve_matrix.computed_bytes"] = 16 * out["sieve.sieve_matrix.entries"]
        return out

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line, and the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "busy",
                                            "parent", "query"],
                                 "counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
