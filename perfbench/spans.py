"""Layer spans timed from outside the vcdfuel package.

A ``Tracer`` replaces, while it is active, each pipeline stage and each
public function listed in ``LAYERS`` by a wrapper installed at the module
attribute where callers look it up (``vcdfuel.cli.cmd_extract``,
``vcdfuel.cli.run_vcd``, ``vcdfuel.extraction.simulate``, ...). The wrapper
records a span (name, start, end, parent) and counts of the work the
call did. Spans stay in memory; ``layer_metrics`` turns them into per-layer
numbers once the run is over. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

STAGE_SPAN = "cli.stage."
EXTRACT_FUNCTIONS = ("extract_idle_constants", "extract_fuel_cut_thresholds",
                     "extract_downshift_map", "extract_torque_correction")


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _rows(result):
    return {"rows": len(result)}


def _grid_points(args, kwargs, result):
    from vcdfuel.simplified import default_grid

    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    grid = grid or default_grid(args[0])
    return {"grid_points": int(np.prod(grid.shape))}


def _written_trace(args, kwargs, result):
    return {"rows": len(args[0]), "bytes": os.path.getsize(args[1])}


def stage_layers() -> list:
    """One layer per pipeline stage: every ``vcdfuel.cli.cmd_<stage>`` but
    ``cmd_pipeline``, which looks the stages up by these names when it runs
    them. ``cmd_fit_semi`` gives the span ``cli.stage.fit-semi``."""
    from vcdfuel import cli

    return [("vcdfuel.cli", attr, STAGE_SPAN + attr[4:].replace("_", "-"), None)
            for attr in sorted(vars(cli)) if attr.startswith("cmd_") and attr != "cmd_pipeline"]


# (module, attribute, span name, counts(args, kwargs, result) -> dict or None)
LAYERS = [
    ("vcdfuel.cli", "run_vcd", "extraction.run_vcd", None),
    ("vcdfuel.extraction", "simulate", "powertrain.simulate", lambda a, k, r: {"steps": len(r)}),
    ("vcdfuel.synthetic", "simulate", "powertrain.simulate", lambda a, k, r: {"steps": len(r)}),
    ("vcdfuel.powertrain", "resample", "drive_cycles.resample", None),
    ("vcdfuel.cli", "load_cycle", "drive_cycles.load_cycle", lambda a, k, r: {"rows": r.t.size}),
    ("vcdfuel.cli", "make_dyno_log", "synthetic.make_dyno_log",
     lambda a, k, r: {"sim_steps": len(r)}),
    ("vcdfuel.semi_principled", "fit_all_maps", "extraction.fit_all_maps",
     lambda a, k, r: {"rows": sum(len(tr) for tr in a[0].traces)}),
    *[("vcdfuel.semi_principled", fn, "extraction.extract_constants", None)
      for fn in EXTRACT_FUNCTIONS],
    ("vcdfuel.semi_principled", "evaluate", "semi_principled.evaluate", _points),
    ("vcdfuel.simplified", "evaluate", "semi_principled.evaluate", _points),
    ("vcdfuel.cli", "fit_simplified", "simplified.fit_simplified", _grid_points),
    ("vcdfuel.simplified", "eval_simplified", "simplified.eval_simplified", _points),
    ("vcdfuel.cli", "read_dyno_csv", "dyno.read_dyno_csv", lambda a, k, r: _rows(r)),
    ("vcdfuel.cli", "write_dyno_csv", "dyno.write_dyno_csv", lambda a, k, r: _rows(a[0])),
    ("vcdfuel.cli", "process_log", "dyno.process_log",
     lambda a, k, r: {"rows": len(a[0]), "smoothing_steps": r.provenance["smoothing_steps"]}),
    ("vcdfuel.cli", "write_profile", "dyno.write_profile",
     lambda a, k, r: {"rows": a[0].t.size}),
    ("vcdfuel.cli", "write_trace_csv", "trace.write_trace_csv", _written_trace),
    ("vcdfuel.cli", "read_trace_csv", "trace.read_trace_csv", lambda a, k, r: _rows(r)),
    ("vcdfuel.cli", "build_report", "validation.build_report",
     lambda a, k, r: {"pairs": len(a[0])}),
    ("vcdfuel.validation", "write_comparison_csv", "validation.write_comparison_csv",
     lambda a, k, r: {"rows": a[0].t.size}),
    ("vcdfuel.validation", "align", "validation.align", None),
]


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Context manager that installs the wrappers of the pipeline stages and
    of ``LAYERS`` and collects spans. A layer whose function the package no
    longer has is skipped.

    Spans accumulate over every activation, so one tracer can cover several
    traced operations with untraced ones in between.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name, counts in stage_layers() + LAYERS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr, None)
            if original is None:
                continue
            setattr(mod, attr, self._wrap(original, name, counts))
            self._installed.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)
        return False

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result
        return traced

    def named(self, name: str, under: str | None = None) -> list[Span]:
        """Spans called ``name``, optionally only those with an ancestor ``under``."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            if under is None or self._has_ancestor(span, under):
                out.append(span)
        return out

    def _has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer numbers per operation, from the spans of ``ops`` traced operations."""

    def self_s(name):
        return sum(s.self_s for s in tracer.named(name)) / ops

    def total_s(name):
        return sum(s.duration for s in tracer.named(name)) / ops

    def count(name, key, under=None):
        return sum(s.counts.get(key, 0) for s in tracer.named(name, under)) / ops

    def calls(name, under=None):
        return len(tracer.named(name, under)) / ops

    m = {}
    m["powertrain.simulate.steps"] = count("powertrain.simulate", "steps")
    m["powertrain.simulate.self_s"] = self_s("powertrain.simulate")
    m["powertrain.steps_per_s"] = _ratio(m["powertrain.simulate.steps"],
                                         total_s("powertrain.simulate"))
    m["synthetic.make_dyno_log.self_s"] = self_s("synthetic.make_dyno_log")
    m["synthetic.make_dyno_log.sim_steps"] = count("synthetic.make_dyno_log", "sim_steps")
    for name in ("run_vcd", "fit_all_maps", "extract_constants"):
        m[f"extraction.{name}.self_s"] = self_s(f"extraction.{name}")
    m["extraction.rows"] = count("extraction.fit_all_maps", "rows")

    ev = "semi_principled.evaluate"
    m[f"{ev}.calls"] = calls(ev)
    m[f"{ev}.points"] = count(ev, "points")
    m[f"{ev}.self_s"] = self_s(ev)
    fits = calls("simplified.fit_simplified")
    grid_points = count("simplified.fit_simplified", "grid_points")
    m[f"{ev}.calls_per_fit"] = _ratio(calls(ev, "simplified.fit_simplified"), fits)
    m["semi_principled.eval_points_per_grid_point"] = _ratio(
        count(ev, "points", "simplified.fit_simplified"), grid_points)
    m["simplified.fit_simplified.self_s"] = self_s("simplified.fit_simplified")
    m["simplified.fit_simplified.grid_points"] = _ratio(grid_points, fits)
    m["simplified.eval_simplified.points"] = count("simplified.eval_simplified", "points")
    m["simplified.eval_simplified.self_s"] = self_s("simplified.eval_simplified")

    for name in ("read_dyno_csv", "write_dyno_csv", "process_log"):
        m[f"dyno.{name}.rows"] = count(f"dyno.{name}", "rows")
        m[f"dyno.{name}.self_s"] = self_s(f"dyno.{name}")
    m["dyno.smoothing_steps"] = count("dyno.process_log", "smoothing_steps")
    m["dyno.write_profile.self_s"] = self_s("dyno.write_profile")

    for name in ("write_trace_csv", "read_trace_csv"):
        m[f"trace.{name}.rows"] = count(f"trace.{name}", "rows")
        m[f"trace.{name}.self_s"] = self_s(f"trace.{name}")
    m["trace.write_trace_csv.bytes"] = count("trace.write_trace_csv", "bytes")
    m["trace.csv_rows_per_s"] = _ratio(
        m["trace.write_trace_csv.rows"] + m["trace.read_trace_csv.rows"],
        m["trace.write_trace_csv.self_s"] + m["trace.read_trace_csv.self_s"])

    m["drive_cycles.load_cycle.rows"] = count("drive_cycles.load_cycle", "rows")
    m["drive_cycles.load_cycle.self_s"] = self_s("drive_cycles.load_cycle")
    m["drive_cycles.resample.self_s"] = self_s("drive_cycles.resample")

    m["validation.build_report.pairs"] = count("validation.build_report", "pairs")
    m["validation.build_report.self_s"] = self_s("validation.build_report")
    m["validation.write_comparison_csv.rows"] = count("validation.write_comparison_csv", "rows")
    m["validation.write_comparison_csv.self_s"] = self_s("validation.write_comparison_csv")
    m["validation.align.self_s"] = self_s("validation.align")
    m["validation.align.calls_per_pair"] = _ratio(
        calls("validation.align", "validation.build_report"), m["validation.build_report.pairs"])

    for stage in {s.name for s in tracer.spans if s.name.startswith(STAGE_SPAN)}:
        m[f"{stage}.s"] = total_s(stage)
    return m
