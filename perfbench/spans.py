"""In-memory span tracer for the benchmark's traced runs.

A span is recorded around every call one module makes into another
module's public function.  The wrapper is installed where the caller
looks the name up: ``lifeframes.detector.step`` is wrapped, not
``lifeframes.engine.step``, so a module's calls to its own functions
stay inside its span.  Nothing under ``src/lifeframes`` is edited; the
wrappers are set on the module objects while a traced call runs and
the originals are put back afterwards.

Spans are kept as ``[name, start, end, parent, work]`` lists and
written out only when the benchmark ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from fractions import Fraction

LAYERS = ("engine", "detector", "catalog", "patterns", "kinematics", "tokens", "cli")


# Work done by a call, read from its arguments (by parameter name) and
# its result.  Keyed by span name; each entry returns counts to add up.
_WORK = {
    "engine.step_n": lambda a, r: {"gens": a["n"]},
    "detector.detect_emissions": lambda a, r: {
        "gens": a["horizon"],
        "events": len(r),
    },
    "catalog.named_ship_catalog": lambda a, r: {"reports": len(r)},
    "tokens.exhaustive_check": lambda a, r: {"cases": r.cases},
    "kinematics.max_deviation_scan": lambda a, r: {
        "grid_points": (int(1 / Fraction(a["step"])) + 1) ** 2
    },
    "patterns.parse": lambda a, r: {"bytes": len(a["text"])},
    "patterns.emit": lambda a, r: {"bytes": len(r)},
}


def span_name(fn: types.FunctionType) -> str:
    """``<layer>.<function>``; the RLE/plaintext codecs share one name each."""
    layer = fn.__module__.rsplit(".", 1)[-1]
    name = fn.__name__
    if layer == "patterns" and name.startswith(("parse_", "emit_")):
        name = name.split("_", 1)[0]
    return f"{layer}.{name}"


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn: types.FunctionType):
        name = span_name(fn)
        work = _WORK.get(name)
        bind = inspect.signature(fn).bind if work else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work:
                span[4] = work(bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self, callers: list[types.ModuleType]) -> None:
        """Wrap each public lifeframes function a caller imported from another module."""
        for module in callers:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith("lifeframes.")
                    and value.__module__ != module.__name__
                ):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrap(value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, out, label: str) -> None:
        """One JSON line per span: label, name, start, end, parent, work."""
        for span in self.spans:
            out.write(json.dumps([label, *span]) + "\n")


def summarize(*tracers: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, work counts."""
    out: dict[str, dict[str, float]] = {}
    for tracer in tracers:
        spans = tracer.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, work) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            for key, value in (work or {}).items():
                row[key] = row.get(key, 0) + value
    return out


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer figures the benchmark reports, from ``summarize`` output."""

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in (
        "engine.step",
        "engine.step_n",
        "engine.canonicalize",
        "detector.detect_ship",
    ):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in (
        "detector.detect_emissions",
        "catalog.named_ship_catalog",
        "patterns.parse",
        "patterns.emit",
        "tokens.exhaustive_check",
        "kinematics.max_deviation_scan",
        "cli.main",
    ):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["engine.step_n.gens"] = get("engine.step_n", "gens")
    out["engine.us_per_gen"] = 1e6 * ratio(
        get("engine.step", "self_s") + get("engine.step_n", "self_s"),
        get("engine.step", "calls") + get("engine.step_n", "gens"),
    )
    out["detector.us_per_gen"] = 1e6 * ratio(
        get("detector.detect_emissions", "self_s"), get("detector.detect_emissions", "gens")
    )
    out["detector.events"] = get("detector.detect_emissions", "events")
    out["catalog.ship_reports"] = get("catalog.named_ship_catalog", "reports")
    out["patterns.bytes"] = get("patterns.parse", "bytes") + get("patterns.emit", "bytes")
    out["tokens.cases"] = get("tokens.exhaustive_check", "cases")
    out["tokens.cases_per_s"] = ratio(out["tokens.cases"], get("tokens.exhaustive_check", "total_s"))
    out["kinematics.grid_points"] = get("kinematics.max_deviation_scan", "grid_points")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in stats.items() if name.split(".", 1)[0] == layer
        )
    return out
