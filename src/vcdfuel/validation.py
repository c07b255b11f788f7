"""Trace-to-trace comparison metrics and report generation.

Per-step comparisons run on a common uniform time grid over the overlap of
the two traces. The cumulative-fuel totals and their error are the
exception: each integrates its whole trace (acceptance criterion 7), not
the overlap. Fuel metrics are always produced; internal-dynamics metrics
(engine speed/torque, pedal, gear) appear only when both traces carry the
columns, so reduced models without internal state are handled naturally.
Engine speed is reported in rpm and torque in Nm to match conventional
dyno tables; everything is SI internally.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .csvio import write_columns
from .errors import InsufficientData, InvalidArgument
from .trace import DT, RADPS_TO_RPM, Trace, sample_columns, uniform_grid


@dataclass
class AlignedPair:
    # ref and model hold the same columns, those both traces carry
    t: np.ndarray
    ref: dict[str, np.ndarray]
    model: dict[str, np.ndarray]


# the channels a pair compares besides fuel, in comparison-file order, with
# their comparison-file labels
_CHANNELS = {"gear": "gear", "engine_speed": "engine_speed_radps",
             "engine_torque": "engine_torque_nm", "pedal": "pedal_pct", "flags": "flags"}


def align(ref: Trace, model: Trace, dt: float = DT) -> AlignedPair:
    """The compared columns both traces carry, sampled by `sample_columns`
    onto the uniform grid covering their overlap."""
    t0 = max(ref.t[0], model.t[0])
    t1 = min(ref.t[-1], model.t[-1])
    if t0 > t1:
        raise InsufficientData(f"traces '{ref.name}' and '{model.name}' share no time range")
    grid = uniform_grid(t0, t1, dt)
    cols = [c for c in ("fuel", *_CHANNELS)
            if getattr(ref, c) is not None and getattr(model, c) is not None]
    sampled = [sample_columns(tr.t, grid, {c: getattr(tr, c) for c in cols}) for tr in (ref, model)]
    return AlignedPair(grid, *sampled)


def mae(series_a, series_b) -> float:
    """Mean absolute difference of two equal-length series."""
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.size != b.size:
        raise InvalidArgument(f"series lengths differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise InvalidArgument("series must have at least one sample")
    return float(np.mean(np.abs(a - b)))


def cumulative_fuel(t, fuel) -> tuple[float, np.ndarray]:
    """Trapezoidal fuel integral [g]: total and the running series."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(fuel, dtype=float)
    increments = 0.5 * (f[1:] + f[:-1]) * np.diff(t)
    running = np.concatenate([[0.0], np.cumsum(increments)])
    return float(running[-1]), running


def _total_fuel(trace: Trace) -> float:
    trace.require("fuel")
    return cumulative_fuel(trace.t, trace.fuel)[0]


def cumulative_error_pct(ref: Trace, model: Trace) -> float:
    """Relative total-fuel error in percent of the reference total."""
    return _error_pct(_total_fuel(ref), _total_fuel(model))


def _error_pct(total_ref: float, total_model: float) -> float:
    if total_ref <= 0:
        raise InsufficientData("reference trace consumed no fuel")
    return 100.0 * abs(total_model - total_ref) / total_ref


def gear_metrics(ref_gears, model_gears) -> tuple[float, float]:
    """(mean |gear difference|, percent of steps with differing gear)."""
    a = np.asarray(ref_gears)
    b = np.asarray(model_gears)
    if a.size != b.size:
        raise InvalidArgument(f"gear series lengths differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise InvalidArgument("gear series must have at least one sample")
    diff = np.abs(a - b)
    return float(diff.mean()), float(100.0 * np.count_nonzero(diff) / a.size)


@dataclass
class PairMetrics:
    cycle: str
    ref_id: str
    model_id: str
    dt: float
    mae_fuel_gps: float
    cumulative_fuel_ref_g: float
    cumulative_fuel_model_g: float
    cumulative_error_pct: float
    mae_engine_speed_rpm: float | None = None
    mae_engine_torque_nm: float | None = None
    mae_pedal_pct: float | None = None
    mae_gear: float | None = None
    gear_mismatch_pct: float | None = None


@dataclass
class ValidationReport:
    records: list[PairMetrics]

    def to_dict(self) -> dict:
        return {"records": {rec.cycle: asdict(rec) for rec in self.records}}

    def format_table(self) -> str:
        rows = [("cycle", "MAE fuel (g/s)", "cum. fuel err (%)", "MAE N (rpm)",
                 "MAE T (Nm)", "MAE pedal (%)", "gear mismatch (%)")]
        for rec in self.records:
            rows.append((
                rec.cycle,
                f"{rec.mae_fuel_gps:.4f}",
                f"{rec.cumulative_error_pct:.2f}",
                "-" if rec.mae_engine_speed_rpm is None else f"{rec.mae_engine_speed_rpm:.0f}",
                "-" if rec.mae_engine_torque_nm is None else f"{rec.mae_engine_torque_nm:.4f}",
                "-" if rec.mae_pedal_pct is None else f"{rec.mae_pedal_pct:.4f}",
                "-" if rec.gear_mismatch_pct is None else f"{rec.gear_mismatch_pct:.2f}",
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def compare_pair(cycle: str, ref: Trace, model: Trace, dt: float = DT) -> PairMetrics:
    return _pair_metrics(cycle, ref, model, align(ref, model, dt), dt)


def _pair_metrics(cycle: str, ref: Trace, model: Trace, pair: AlignedPair,
                  dt: float) -> PairMetrics:
    total_ref, total_model = _total_fuel(ref), _total_fuel(model)
    rec = PairMetrics(
        cycle=cycle, ref_id=ref.name, model_id=model.name, dt=dt,
        mae_fuel_gps=mae(pair.ref["fuel"], pair.model["fuel"]),
        cumulative_fuel_ref_g=total_ref,
        cumulative_fuel_model_g=total_model,
        cumulative_error_pct=_error_pct(total_ref, total_model),
    )
    if "engine_speed" in pair.ref:
        rec.mae_engine_speed_rpm = mae(pair.ref["engine_speed"] * RADPS_TO_RPM,
                                       pair.model["engine_speed"] * RADPS_TO_RPM)
    if "engine_torque" in pair.ref:
        rec.mae_engine_torque_nm = mae(pair.ref["engine_torque"], pair.model["engine_torque"])
    if "pedal" in pair.ref:
        rec.mae_pedal_pct = mae(pair.ref["pedal"], pair.model["pedal"])
    if "gear" in pair.ref:
        rec.mae_gear, rec.gear_mismatch_pct = gear_metrics(pair.ref["gear"], pair.model["gear"])
    return rec


def write_comparison_csv(pair: AlignedPair, path) -> None:
    """Per-timestep data behind the usual comparison panels: fuel rate,
    cumulative fuel, gear, engine speed, engine torque, pedal and flags."""
    _, cum_ref = cumulative_fuel(pair.t, pair.ref["fuel"])
    _, cum_model = cumulative_fuel(pair.t, pair.model["fuel"])
    cols = {"t": pair.t,
            "fuel_ref_gps": pair.ref["fuel"], "fuel_model_gps": pair.model["fuel"],
            "cumfuel_ref_g": cum_ref, "cumfuel_model_g": cum_model}
    for key, label in _CHANNELS.items():
        if key in pair.ref:
            cols[f"{label}_ref"] = pair.ref[key]
            cols[f"{label}_model"] = pair.model[key]
    write_columns(path, cols, "%.10g")


def build_report(pairs: list[tuple[str, Trace, Trace]], dt: float = DT,
                 out_dir=None) -> ValidationReport:
    """Metrics for every (cycle, reference, model) pair.

    With out_dir set, also writes each pair's chart data there: the
    `<cycle>_<model>_vs_<ref>.csv` comparison file and a `<cycle>_fuel.svg`
    chart of its fuel rate.
    """
    if not pairs:
        raise InvalidArgument("build_report needs at least one pair")
    names = [cycle for cycle, _, _ in pairs]
    for name in names:
        if names.count(name) > 1:
            # both would write one record and one <cycle>_fuel.svg
            raise InvalidArgument(f"two validation pairs named '{name}'")
    records = []
    for cycle, ref, model in pairs:
        pair = align(ref, model, dt)
        records.append(_pair_metrics(cycle, ref, model, pair, dt))
        if out_dir is not None:
            write_comparison_csv(pair, Path(out_dir) / f"{cycle}_{model.name}_vs_{ref.name}.csv")
            _write_svg_panel(pair, Path(out_dir) / f"{cycle}_fuel.svg")
    return ValidationReport(records=records)


def _write_svg_panel(pair, path) -> None:
    """Minimal static line chart: reference vs model fuel rate."""
    width, height, margin = 900, 260, 30
    t, ref, model = pair.t, pair.ref["fuel"], pair.model["fuel"]
    top = max(1e-9, float(np.max(ref)), float(np.max(model)))
    x = (margin + (width - 2 * margin) * (t - t[0]) / max(t[-1] - t[0], 1e-9)).tolist()

    def polyline(color, values):
        y = height - margin - (height - 2 * margin) * values / top
        pts = " ".join(map("{:.1f},{:.1f}".format, x, y.tolist()))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'

    with open(path, "w", encoding="utf-8") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
                f'viewBox="0 0 {width} {height}">\n'
                f'<rect width="{width}" height="{height}" fill="white"/>\n'
                f'{polyline("#1f77b4", ref)}\n{polyline("#d62728", model)}\n</svg>\n')
