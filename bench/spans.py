"""Span tracing around tnormlab's public functions, for the per-layer metrics.

``install`` replaces each traced function by a wrapper in every module that
binds it (analysis, classify and cli import ``tnorm_values`` and friends by
name).  A span records name, start, end, parent and op id; spans stay in
memory and are reduced to metrics at the end.

Definitions:

- self time: a span's duration minus the durations of its direct children.
  Spans nest strictly (one thread), so this is the time no child covers.
  A generator span (``residual_rows``) lasts only while the consumer is
  inside ``next``; the time the consumer spends between rows is its own.
- ``calls`` counts every span of that name.  ``elements`` counts output
  elements only where the span is the outermost core span of a call, so an
  ordinal sum's recursion or ``eval_tnorm``'s inner array call adds none.
- ``core.tnorm_values.ns_per_element``: total duration of the outermost
  ``tnorm_values`` spans per element they produced.
- ``core.tnorm_values.repeat_share``: among those elements, the share whose
  (spec, x, y) input the same op had already evaluated (64-bit hash of the
  two float bit patterns; collisions are negligible at these sizes).
- ``analysis.check_archimedean.steps``: ``eval_tnorm`` spans under it.
- bookkeeping of the repeat hashes is recorded as a ``trace.bookkeeping``
  span, so it is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

import tnormlab
from tnormlab import analysis, cli, core, dsl, rng

# the package rebinds the name ``classify`` to the function
classify = importlib.import_module("tnormlab.classify")

_NAME, _START, _END, _PARENT, _OP, _INSIDE = range(6)

#: span name -> (home object, attribute); the name is the metric prefix.
TARGETS = {
    "core.tnorm_values": (core, "tnorm_values"),
    "core.companion_values": (core, "companion_values"),
    "core.eval_tnorm": (core, "eval_tnorm"),
    "core.t_power": (core, "t_power"),
    "core.diagonal_pseudo_inverse": (core, "diagonal_pseudo_inverse"),
    "dsl.eval_expr": (dsl, "eval_expr"),
    "rng.unit_tuples": (rng.SplitMix64, "unit_tuples"),
    "analysis.check_gph": (analysis, "check_gph"),
    "analysis.check_axioms": (analysis, "check_axioms"),
    "analysis.check_archimedean": (analysis, "check_archimedean"),
    "analysis.scan_diagonal": (analysis, "scan_diagonal"),
    "analysis.find_gph_counterexample": (analysis, "find_gph_counterexample"),
    "analysis.residual_rows": (analysis, "residual_rows"),
    "classify.classify": (classify, "classify"),
    "classify.fit_beta_from_triples": (classify, "fit_beta_from_triples"),
    "cli.main": (cli, "main"),
}

_BINDERS = (tnormlab, core, dsl, rng, rng.SplitMix64, analysis, classify, cli)
_ARRAY_CORE = ("core.tnorm_values", "core.companion_values")
_GENERATORS = ("analysis.residual_rows",)

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)


def _pair_hash(x, y) -> np.ndarray:
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                 np.asarray(y, dtype=np.float64))
    hx = np.ascontiguousarray(xb).reshape(-1).view(np.uint64)
    hy = np.ascontiguousarray(yb).reshape(-1).view(np.uint64)
    with np.errstate(over="ignore"):
        h = hx * _M1 ^ hy
        h ^= h >> np.uint64(29)
        h *= _M2
        h ^= h >> np.uint64(32)
    return h


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._core_depth = 0
        self.op = None
        self.elements: dict[str, int] = {n: 0 for n in _ARRAY_CORE}
        self.outer_tnorm_s = 0.0
        self.rows = 0
        self.repeats = 0
        self._seen: dict = {}  # spec -> list of hash arrays, for the current op

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> list:
        """Record a new span as the child of the innermost open one."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def wrap(self, name: str, fn):
        if name in _GENERATORS:
            return self._wrap_generator(name, fn)
        is_core = name.startswith("core.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = is_core and tracer._core_depth == 0
            tracer._core_depth += is_core
            rec = tracer._open(name)
            rec[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                tracer._stack.pop()
                tracer._core_depth -= is_core
            if outermost and name in _ARRAY_CORE:
                tracer._count_elements(name, rec, args, result)
            return result

        return traced

    def _count_elements(self, name, rec, args, result):
        self.elements[name] += int(np.size(result))
        if name != "core.tnorm_values":
            return
        self.outer_tnorm_s += rec[_END] - rec[_START]
        book = self._open("trace.bookkeeping")
        book[_START] = time.perf_counter()
        spec, x, y = args[:3]
        self._seen.setdefault(spec, []).append(_pair_hash(x, y))
        book[_END] = time.perf_counter()
        self._stack.pop()

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            index = tracer._stack.pop()  # the span is open only inside next()
            inner = fn(*args, **kwargs)
            inside = 0.0
            rec[_START] = time.perf_counter()
            try:
                while True:
                    tracer._stack.append(index)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        inside += time.perf_counter() - t0
                        tracer._stack.pop()
                    tracer.rows += 1
                    yield item
            finally:
                rec[_END] = time.perf_counter()
                rec[_INSIDE] = inside

        return traced

    def end_op(self):
        """Close the current op: count repeated (spec, x, y) inputs."""
        for arrays in self._seen.values():
            h = np.sort(np.concatenate(arrays))
            self.repeats += int(np.count_nonzero(h[1:] == h[:-1]))
        self._seen = {}

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [(r[_INSIDE] if r[_INSIDE] is not None else r[_END] - r[_START])
               for r in self.spans]
        own = list(dur)
        for i, r in enumerate(self.spans):
            if r[_PARENT] >= 0:
                own[r[_PARENT]] -= dur[i]
        return own

    def metrics(self) -> dict:
        own = self.self_times()
        calls = {n: 0 for n in TARGETS}
        self_s = {n: 0.0 for n in TARGETS}
        under_arch = [False] * len(self.spans)
        steps = 0
        for i, r in enumerate(self.spans):
            name = r[_NAME]
            p = r[_PARENT]
            if p >= 0:
                under_arch[i] = (under_arch[p]
                                 or self.spans[p][_NAME] == "analysis.check_archimedean")
            if name not in calls:
                continue
            calls[name] += 1
            self_s[name] += own[i]
            if name == "core.eval_tnorm" and under_arch[i]:
                steps += 1
        elements = self.elements["core.tnorm_values"]
        m = {
            "core.tnorm_values.calls": calls["core.tnorm_values"],
            "core.tnorm_values.elements": elements,
            "core.tnorm_values.self_s": self_s["core.tnorm_values"],
            "core.tnorm_values.ns_per_element":
                1e9 * self.outer_tnorm_s / elements if elements else 0.0,
            "core.tnorm_values.repeat_share":
                self.repeats / elements if elements else 0.0,
            "core.companion_values.calls": calls["core.companion_values"],
            "core.companion_values.elements": self.elements["core.companion_values"],
            "core.companion_values.self_s": self_s["core.companion_values"],
            "core.eval_tnorm.calls": calls["core.eval_tnorm"],
            "core.eval_tnorm.self_s": self_s["core.eval_tnorm"],
            "core.t_power.self_s": self_s["core.t_power"],
            "core.diagonal_pseudo_inverse.self_s":
                self_s["core.diagonal_pseudo_inverse"],
            "dsl.eval_expr.calls": calls["dsl.eval_expr"],
            "dsl.eval_expr.self_s": self_s["dsl.eval_expr"],
            "rng.unit_tuples.calls": calls["rng.unit_tuples"],
            "rng.unit_tuples.self_s": self_s["rng.unit_tuples"],
        }
        for check in ("check_gph", "check_axioms", "check_archimedean",
                      "scan_diagonal", "find_gph_counterexample", "residual_rows"):
            m[f"analysis.{check}.self_s"] = self_s[f"analysis.{check}"]
        m["analysis.check_archimedean.steps"] = steps
        m["analysis.residual_rows.rows"] = self.rows
        m["classify.classify.self_s"] = self_s["classify.classify"]
        m["classify.fit_beta_from_triples.self_s"] = \
            self_s["classify.fit_beta_from_triples"]
        m["cli.main.self_s"] = self_s["cli.main"]
        m["spans.self_s_total"] = sum(own)
        m["spans.self_s_min"] = min(own, default=0.0)
        return m


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function by its wrapper."""
    for name, (home, attr) in TARGETS.items():
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original)
        for binder in _BINDERS:
            for key, value in list(vars(binder).items()):
                if value is original:
                    setattr(binder, key, wrapped)
