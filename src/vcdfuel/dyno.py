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
from .drive_cycles import UNIT_FACTORS
from .errors import BoundNotReached, InsufficientData, InvalidArgument, ParseError, VcdFuelError
from .extraction import percentile
from .trace import DT, RADPS_TO_RPM, Trace, checked_columns, sample_columns, uniform_grid

ACCEL_BOUND = 4.0          # m/s2, acceptable acceleration magnitude
CLIP_FRACTION = 0.05       # winsorize tails of the acceleration distribution
SMOOTHING_MU = 0.5
MAX_SMOOTHING_STEPS = 200  # passes tried before BoundNotReached
CONVERGENCE_EPS = 1e-3     # m/s2, improvement below this counts as converged
HOT_THRESHOLD_C = 85.0

DYNO_COLUMNS = ("t", "v_kph", "engine_rpm", "engine_torque_nm", "pedal_pct",
                "fuel_gps", "water_temp_c", "gear", "trans_out_rpm")
# logged channels a rig trace carries: trace column -> (dyno channel, dyno units per trace unit)
RIG_CHANNELS = {"gear": ("gear", 1.0), "engine_speed": ("engine_rpm", RADPS_TO_RPM),
                "engine_torque": ("engine_torque_nm", 1.0), "pedal": ("pedal_pct", 1.0),
                "fuel": ("fuel_gps", 1.0)}


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
        if np.any(self.fuel_gps < 0):
            raise ParseError(f"dyno log '{self.name}': fuel must be nonnegative")

    def __len__(self):
        return self.t.size

    def window(self, t_start: float, t_end: float) -> "DynoLog":
        mask = (self.t >= t_start) & (self.t <= t_end)
        kwargs = {name: getattr(self, name)[mask] for name in DYNO_COLUMNS}
        return DynoLog(name=self.name, **kwargs)

    def resampled(self, dt: float) -> "DynoLog":
        """The channels on a uniform grid by `sample_columns`: gear from the
        nearest sample, every other channel linearly interpolated."""
        grid = uniform_grid(self.t[0], self.t[-1], dt)
        channels = {name: getattr(self, name) for name in DYNO_COLUMNS[1:]}
        return DynoLog(name=self.name, t=grid, **sample_columns(self.t, grid, channels))


def read_dyno_csv(path) -> DynoLog:
    """A dyno log CSV with the ``DYNO_COLUMNS`` header, named after the file stem.
    Of rows sharing a timestamp only the last, the one ``np.interp`` reads, is kept."""
    data = read_columns(path)
    if tuple(data) != DYNO_COLUMNS:
        raise ParseError(f"{path}: expected header {','.join(DYNO_COLUMNS)}")
    last = np.append(data["t"][1:] != data["t"][:-1], True)
    return DynoLog(name=Path(path).stem, **{col: val[last] for col, val in data.items()})


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
    return np.maximum(0.0, slope * log.trans_out_rpm) * UNIT_FACTORS["kph"]


# --- smoothing and differentiation --------------------------------------------

def _check_mu(mu: float) -> None:
    # up to 2/3 no pass raises the peak slope: inside, a pass mixes slopes convexly, and an
    # end slope e0 becomes (1 - 2 mu) e0 + mu g1, with g1 the central slope next to it
    if not 0.0 <= mu <= 2.0 / 3.0:
        raise InvalidArgument(f"smoothing mu must be in [0, 2/3], got {mu}")


def _smooth_pass(s: np.ndarray, mu: float) -> np.ndarray:
    mirrored = np.pad(s, 1, mode="reflect")
    return 0.5 * mu * (mirrored[:-2] + mirrored[2:]) + (1.0 - mu) * s


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
        s = _smooth_pass(s, mu)
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
    the best selection so the caller can decide. With mu in [0, 2/3] no
    pass raises the peak, so the peak only falls or stalls.
    """
    if max_steps < 1:
        raise InvalidArgument("smoothing max_steps must be at least 1")
    if not bound > 0:
        raise InvalidArgument(f"smoothing bound must be positive, got {bound} m/s2")
    _check_mu(mu)  # also when the raw series already fits the bound
    smoothed = np.asarray(series, dtype=float).copy()
    if smoothed.size < 3:
        raise InsufficientData(f"need at least 3 samples, got {smoothed.size}")
    prev_max = np.inf
    for n in range(max_steps + 1):
        accel = derive_acceleration(smoothed, dt)
        cur = float(np.max(np.abs(accel)))
        converged = prev_max - cur < CONVERGENCE_EPS  # what pass n gained, also for the last n
        if cur <= bound or converged or n == max_steps:
            break
        prev_max = cur
        smoothed = _smooth_pass(smoothed, mu)
    best = SmoothingSelection(steps=n, smoothed=smoothed, accel=accel, max_abs_accel=cur)
    if cur <= bound:
        return best
    raise BoundNotReached(f"converged at {cur:.3g} m/s2 after {n} steps, bound {bound} unmet"
                          if converged else
                          f"peak |a| still {cur:.3g} m/s2 after {max_steps} steps", best=best)


def hot_engine_window(log: DynoLog, threshold: float = HOT_THRESHOLD_C) -> tuple[float, float]:
    """Time span [t*, t_end] where the engine is warm and stays warm."""
    cold = np.nonzero(log.water_temp_c < threshold)[0]
    first_hot = cold[-1] + 1 if cold.size else 0
    if first_hot == len(log):
        raise InsufficientData(f"water temperature never settles above {threshold} C")
    return float(log.t[first_hot]), float(log.t[-1])


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
    """Window, regress, resample, smooth, differentiate, winsorize.

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
                      grade=np.zeros_like(uniform.t),
                      **{c: getattr(uniform, ch) / unit for c, (ch, unit) in RIG_CHANNELS.items()})
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
