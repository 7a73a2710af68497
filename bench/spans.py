"""Span recorder for the traced benchmark pass and the layer metrics it yields.

Spans are recorded only around the benchmark's own calls into the library
(and around the moment callables it passes in), never inside the library.
Each span holds its name (``<module>.<function>``), start and end time, the
index of the enclosing span, the job id, a work count (``units``) and whether
an exception left it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext

# Layers with a public call that a workload makes; ``symtensor`` is measured
# inside the slices/helmholtz spans and ``cli`` only formats output.
LAYERS = ("fields", "ray", "helmholtz", "slices", "john")

# Counts that must repeat exactly for a fixed seed and source tree.
EXACT_COUNTS = (
    "ray.moment_oracle.calls",
    "john.distinct_points",
    "ray.lines_integrated",
    "helmholtz.bins_solved",
    "slices.systems_assembled",
)


class NullRecorder:
    """Untraced runs: a span is a no-op context and callables stay unwrapped."""

    def span(self, name: str, units: int = 1):
        return nullcontext()

    def oracle(self, fn):
        return fn


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "units", "error", "key")

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job,
                self.units, self.error]


class _Open:
    __slots__ = ("rec", "span")

    def __init__(self, rec: "Recorder", span: Span):
        self.rec, self.span = rec, span

    def __enter__(self):
        rec, sp = self.rec, self.span
        sp.parent = rec._stack[-1] if rec._stack else None
        sp.job = rec.job
        rec._stack.append(len(rec.spans))
        rec.spans.append(sp)
        sp.start = time.perf_counter()
        return sp

    def __exit__(self, exc_type, exc, tb):
        sp = self.span
        sp.end = time.perf_counter()
        sp.error = exc_type is not None and issubclass(exc_type, Exception)
        self.rec._stack.pop()
        return False


class Recorder:
    """Keeps every span of a traced pass in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []

    def span(self, name: str, units: int = 1, key=None) -> _Open:
        sp = Span()
        sp.name, sp.units, sp.key = name, units, key
        return _Open(self, sp)

    def oracle(self, fn):
        """Wrap a moment callable (x, xi) -> float so each call is a span.

        The wrapper also keeps the (x, xi) key for the distinct-point count.
        """
        def traced(x, xi):
            with self.span("ray.moment_oracle",
                           key=(tuple(map(float, x)), tuple(map(float, xi)))):
                return fn(x, xi)
        return traced


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts, unit costs, self times and errors from the spans.

    A span's self time is its duration minus that of its child spans.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    units = defaultdict(int)
    errors = dict.fromkeys(LAYERS, 0)
    child_s = defaultdict(float)
    oracle_keys = defaultdict(set)     # range_test span index -> distinct keys
    oracle_in_range = 0
    for sp in spans:
        dur = sp.end - sp.start
        total[sp.name] += dur
        calls[sp.name] += 1
        units[sp.name] += sp.units
        if sp.error:
            errors[sp.name.split(".", 1)[0]] += 1
        if sp.parent is not None:
            child_s[sp.parent] += dur
            if (sp.name == "ray.moment_oracle"
                    and spans[sp.parent].name == "john.range_test"):
                oracle_keys[sp.parent].add(sp.key)
                oracle_in_range += 1

    def per(name: str, scale: float) -> float:
        # zero when the workload makes no such call (see the bypass lists)
        return scale * total[name] / units[name] if units[name] else 0.0

    self_s = defaultdict(float)
    for i, sp in enumerate(spans):
        self_s[sp.name] += sp.end - sp.start - child_s[i]
    distinct = sum(len(keys) for keys in oracle_keys.values())
    out = {
        "ray.moment_oracle.calls": calls["ray.moment_oracle"],
        "ray.moment_oracle.us_per_call": per("ray.moment_oracle", 1e6),
        "john.range_test.self_s": self_s["john.range_test"],
        "john.distinct_points": distinct,
        "john.distinct_point_ratio": distinct / oracle_in_range if oracle_in_range else 0.0,
        "john.chi.us_per_point": per("john.chi", 1e6),
        "ray.batch_transform.us_per_line": per("ray.batch_transform", 1e6),
        "ray.moment_numeric.us_per_line": per("ray.moment_numeric", 1e6),
        "ray.lines_integrated": units["ray.batch_transform"] + units["ray.moment_numeric"],
        "slices.kernel_check.us_per_line": per("slices.kernel_check", 1e6),
        "slices.slice_check.us_per_offset": per("slices.slice_check", 1e6),
        "slices.rank_probe.us_per_system": per("slices.rank_probe", 1e6),
        "slices.systems_assembled": calls["slices.rank_probe"],
        "fields.sample.us_per_point": per("fields.sample", 1e6),
        "helmholtz.decompose_k.us_per_bin": per("helmholtz.decompose_k", 1e6),
        "helmholtz.verify_decomposition.us_per_bin":
            per("helmholtz.verify_decomposition", 1e6),
        "helmholtz.bins_solved": units["helmholtz.decompose_k"],
        "fields.grid_io.s_per_job": per("fields.grid_io", 1.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for name, t in self_s.items()
                                     if name.startswith(layer + "."))
        out[f"{layer}.errors"] = errors[layer]
    return out
