"""Chassis dynamometer log post-processing.

Raw dyno speed comes quantized to 1 km/h and without acceleration, so the
pipeline rebuilds a usable (t, v, a) profile: regress speed on transmission
output shaft speed, rederive speed at the shaft's resolution, smooth it
with an iterated three-point average until the derived acceleration is
physically plausible, differentiate, and winsorize the acceleration tails.
Warm-up data is dropped via an engine water temperature window first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .csvio import read_columns, write_columns
from .errors import BoundNotReached, InsufficientData, InvalidArgument, ParseError, VcdFuelError
from .extraction import percentile
from .trace import DT, RADPS_TO_RPM, Trace, checked_columns, uniform_grid

KPH_TO_MPS = 1.0 / 3.6

ACCEL_BOUND = 4.0          # m/s2, acceptable acceleration magnitude
CLIP_FRACTION = 0.05       # winsorize tails of the acceleration distribution
SMOOTHING_MU = 0.5
MAX_SMOOTHING_STEPS = 200  # passes tried before BoundNotReached
CONVERGENCE_EPS = 1e-3     # m/s2, improvement below this counts as converged
HOT_THRESHOLD_C = 85.0

DYNO_COLUMNS = ("t", "v_kph", "engine_rpm", "engine_torque_nm", "pedal_pct",
                "fuel_gps", "water_temp_c", "gear", "trans_out_rpm")


@dataclass
class DynoLog:
    """Raw dynamometer channels, SI-ish as measured (kph, rpm, Nm, g/s, C)."""

    name: str
    t: np.ndarray
    v_kph: np.ndarray
    engine_rpm: np.ndarray
    engine_torque_nm: np.ndarray
    pedal_pct: np.ndarray
    fuel_gps: np.ndarray
    water_temp_c: np.ndarray
    gear: np.ndarray
    trans_out_rpm: np.ndarray

    def __post_init__(self):
        cols = checked_columns(f"dyno log '{self.name}'",
                               **{name: getattr(self, name) for name in DYNO_COLUMNS})
        for name, arr in cols.items():
            setattr(self, name, arr)
        if np.any(np.diff(self.t) < 0):
            raise ParseError(f"dyno log '{self.name}': timestamps must be non-decreasing")
        if np.any(self.fuel_gps < 0):
            raise ParseError(f"dyno log '{self.name}': fuel must be nonnegative")

    def __len__(self):
        return self.t.size

    def window(self, t_start: float, t_end: float) -> "DynoLog":
        mask = (self.t >= t_start) & (self.t <= t_end)
        kwargs = {name: getattr(self, name)[mask] for name in DYNO_COLUMNS}
        return DynoLog(name=self.name, **kwargs)

    def resampled(self, dt: float) -> "DynoLog":
        """Uniform grid via linear interpolation; gear is that of the first
        sample at or after each grid time."""
        grid = uniform_grid(self.t[0], self.t[-1], dt)
        kwargs = {name: np.interp(grid, self.t, getattr(self, name))
                  for name in DYNO_COLUMNS[1:] if name != "gear"}
        idx = np.clip(np.searchsorted(self.t, grid - 1e-12), 0, self.t.size - 1)
        kwargs["gear"] = self.gear[idx]
        return DynoLog(name=self.name, t=grid, **kwargs)


def read_dyno_csv(path) -> DynoLog:
    """A dyno log CSV with the ``DYNO_COLUMNS`` header, named after the file stem."""
    data = read_columns(path)
    if tuple(data) != DYNO_COLUMNS:
        raise ParseError(f"{path}: expected header {','.join(DYNO_COLUMNS)}")
    return DynoLog(name=Path(path).stem, **data)


def write_dyno_csv(log: DynoLog, path) -> None:
    write_columns(path, {col: getattr(log, col) for col in DYNO_COLUMNS}, "%r")


# --- speed reconstruction ----------------------------------------------------

def fit_speed_regression(log: DynoLog) -> float:
    """Through-origin slope of raw speed [km/h] on output shaft speed [rpm]."""
    mask = log.v_kph > 0
    if mask.sum() < 100:
        raise InsufficientData(f"only {int(mask.sum())} moving rows, need 100")
    n = log.trans_out_rpm[mask]
    v = log.v_kph[mask]
    denom = float(np.dot(n, n))
    if denom <= 0:
        raise InsufficientData("output shaft speed is identically zero")
    slope = float(np.dot(v, n)) / denom
    if slope <= 0:
        raise InsufficientData(f"regression slope {slope:.3g} <= 0")
    return slope


def derive_speed(log: DynoLog, slope: float) -> np.ndarray:
    """Shaft-derived speed in m/s, floored at standstill."""
    if slope <= 0:
        raise InsufficientData(f"slope must be positive, got {slope}")
    return np.maximum(0.0, slope * log.trans_out_rpm) * KPH_TO_MPS


# --- smoothing and differentiation --------------------------------------------

def _check_mu(mu: float) -> None:
    if not 0.0 <= mu <= 1.0:
        raise InvalidArgument(f"smoothing mu must be in [0, 1], got {mu}")


def smooth_speed(series, mu: float = SMOOTHING_MU, steps: int = 1) -> np.ndarray:
    """Iterated three-point weighted average.

    Each pass replaces every point with
    mu/2 * left + (1 - mu) * center + mu/2 * right, reading the previous
    pass's values throughout (full-pass update). An endpoint's missing
    neighbour is its mirror, the one inside: s[0] becomes
    (1 - mu) * s[0] + mu * s[1], and likewise s[-1] with s[-2].
    """
    _check_mu(mu)
    if steps < 0:
        raise InvalidArgument("smoothing steps must be nonnegative")
    s = np.asarray(series, dtype=float).copy()
    if s.size < 3:
        raise InsufficientData(f"need at least 3 samples, got {s.size}")
    for _ in range(steps):
        mirrored = np.pad(s, 1, mode="reflect")
        s = 0.5 * mu * (mirrored[:-2] + mirrored[2:]) + (1.0 - mu) * s
    return s


def derive_acceleration(series, dt: float) -> np.ndarray:
    """Temporal derivative: central differences inside, one-sided at the ends."""
    if dt <= 0:
        raise InvalidArgument("dt must be positive")
    return np.gradient(np.asarray(series, dtype=float), dt)


def clip_outliers(series, fraction: float = CLIP_FRACTION) -> np.ndarray:
    """Winsorize: values beyond the [fraction, 1-fraction] percentiles are
    replaced by the percentile bounds, keeping the series aligned."""
    if not 0.0 <= fraction < 0.5:
        raise InvalidArgument(f"clip fraction must be in [0, 0.5), got {fraction}")
    s = np.asarray(series, dtype=float)
    lo = percentile(s, 100.0 * fraction)
    hi = percentile(s, 100.0 * (1.0 - fraction))
    return np.clip(s, lo, hi)


@dataclass
class SmoothingSelection:
    steps: int
    smoothed: np.ndarray
    accel: np.ndarray
    max_abs_accel: float


def auto_select_smoothing(series, dt: float, bound: float = ACCEL_BOUND,
                          max_steps: int = MAX_SMOOTHING_STEPS,
                          mu: float = SMOOTHING_MU) -> SmoothingSelection:
    """Smallest smoothing step count bringing peak |acceleration| in bound.

    Step counts are tried in order; the first one whose derived
    acceleration fits the bound wins. If successive counts stop improving
    the peak before the bound is met, BoundNotReached is raised carrying
    the best selection so the caller can decide. Peak acceleration must
    never grow with extra passes; that would indicate a broken series and
    aborts the run.
    """
    if max_steps < 1:
        raise InvalidArgument("smoothing max_steps must be at least 1")
    if not bound > 0:
        raise InvalidArgument(f"smoothing bound must be positive, got {bound} m/s2")
    _check_mu(mu)  # also when the raw series already fits the bound
    smoothed = np.asarray(series, dtype=float).copy()
    if smoothed.size < 3:
        raise InsufficientData(f"need at least 3 samples, got {smoothed.size}")
    prev_max = None
    for n in range(max_steps + 1):
        if n > 0:
            smoothed = smooth_speed(smoothed, mu=mu, steps=1)
        accel = derive_acceleration(smoothed, dt)
        cur = float(np.max(np.abs(accel)))
        if prev_max is not None and cur > prev_max + 1e-9:
            raise InsufficientData(
                f"peak |a| rose from {prev_max:.6g} to {cur:.6g} at {n} steps")
        selection = SmoothingSelection(steps=n, smoothed=smoothed.copy(),
                                       accel=accel, max_abs_accel=cur)
        if cur <= bound:
            return selection
        if prev_max is not None and prev_max - cur < CONVERGENCE_EPS:
            raise BoundNotReached(
                f"converged at {cur:.3g} m/s2 after {n} steps, bound {bound} unmet",
                best=selection)
        prev_max = cur
    raise BoundNotReached(
        f"peak |a| still {cur:.3g} m/s2 after {max_steps} steps", best=selection)


def hot_engine_window(log: DynoLog, threshold: float = HOT_THRESHOLD_C) -> tuple[float, float]:
    """Time span [t*, t_end] where the engine is warm and stays warm."""
    below = np.nonzero(log.water_temp_c < threshold)[0]
    if below.size == 0:
        return float(log.t[0]), float(log.t[-1])
    last_cold = below[-1]
    if last_cold == len(log) - 1:
        raise InsufficientData(f"water temperature never settles above {threshold} C")
    return float(log.t[last_cold + 1]), float(log.t[-1])


# --- full pipeline ------------------------------------------------------------

@dataclass
class ProcessedProfile:
    """The rig recording as a model-ready trace plus how it was produced."""

    trace: Trace
    provenance: dict = field(default_factory=dict)


def process_log(log: DynoLog, dt: float = DT, bound: float = ACCEL_BOUND,
                clip_fraction: float = CLIP_FRACTION, mu: float = SMOOTHING_MU,
                hot_threshold: float = HOT_THRESHOLD_C,
                max_steps: int = MAX_SMOOTHING_STEPS) -> ProcessedProfile:
    """Window, resample, regress, smooth, differentiate, winsorize.

    The trace holds the rebuilt (t, v, a) on flat grade and the other rig
    channels as resampled onto the same grid. An error names the log unless
    it is about an argument, which is the same for every log.
    """
    try:
        t_start, t_end = hot_engine_window(log, hot_threshold)
        windowed = log.window(t_start, t_end)
        slope = fit_speed_regression(windowed)
        uniform = windowed.resampled(dt)
        v_derived = derive_speed(uniform, slope)
        selection = auto_select_smoothing(v_derived, dt, bound=bound, mu=mu, max_steps=max_steps)
        accel = clip_outliers(selection.accel, clip_fraction)
        trace = Trace(name=log.name, t=uniform.t, v=selection.smoothed, a=accel,
                      grade=np.zeros_like(uniform.t), gear=uniform.gear,
                      engine_speed=uniform.engine_rpm / RADPS_TO_RPM,
                      engine_torque=uniform.engine_torque_nm, pedal=uniform.pedal_pct,
                      fuel=uniform.fuel_gps)
    except InvalidArgument:
        raise
    except VcdFuelError as exc:
        # same class and attributes (BoundNotReached.best); the checks of a
        # DynoLog built on the way name the log already
        if not str(exc).startswith(f"dyno log '{log.name}': "):
            exc.args = (f"dyno log '{log.name}': {exc}",)
        raise
    return ProcessedProfile(trace=trace, provenance={
        "slope_kph_per_rpm": slope,
        "smoothing_steps": selection.steps,
        "smoothing_mu": mu,
        "max_abs_accel_before_clip": selection.max_abs_accel,
        "clip_fraction": clip_fraction,
        "hot_window_s": [t_start, t_end],
        "dt": dt,
    })
