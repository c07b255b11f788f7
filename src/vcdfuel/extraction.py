"""Extraction of empirical constants and fitted maps from simulator traces.

The reference vehicle is driven over a battery of cycles (the virtual
dynamometer campaign); this module mines the resulting traces for idle
constants, fuel-cut thresholds, downshift cutoff speeds, a first-gear
torque correction, and least-squares polynomial maps. Everything here is
deterministic and order-independent: shuffling the trace list changes no
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .drive_cycles import DriveCycle
from .errors import InsufficientData, InsufficientGearData, InvalidArgument
from .jsonio import from_doc, to_doc
from .powertrain import (
    STANDSTILL_SPEED,
    ReferenceVehicle,
    VehicleParams,
    float_table,
    launch_knots,
    launch_torque,
    simulate,
    transmission_output_speed,
    wheel_force,
)
from .trace import DT, FLAG_ENVELOPE, Trace

# torque change rate below which a step counts as settled idle, evaluated
# over the +-1 s neighborhood
IDLE_TORQUE_RATE = 0.01  # Nm/s
IDLE_WINDOW = 1.0        # s

CUT_SPEED_PERCENTILE = 1.0
CUT_FORCE_PERCENTILE = 95.0
LAUNCH_ACCEL_RANGE = (-3.0, 3.0)  # m/s2, binned by the first-gear torque correction
LAUNCH_BINS = 8

FUEL_MAP_DEGREE = (2, 2)  # (engine speed, torque)
GEAR_MAP_DEGREE = (1, 1)  # (output speed, wheel force)
MAX_MAP_DEGREE = 4        # cap on a map's total degree
MIN_GEAR_SAMPLES = 50     # rows each gear's maps need

# the columns ``VcdDataset.stacked`` concatenates; shift events also read pedal
STACKED_COLUMNS = ("v", "a", "grade", "gear", "engine_speed", "engine_torque", "fuel")


def percentile(values, q: float) -> float:
    """Linear-interpolated (inclusive) order statistic, the convention used
    for every percentile in this package."""
    return float(np.percentile(np.asarray(values, dtype=float), q, method="linear"))


@dataclass(frozen=True)
class ShiftEvent:
    cycle: str
    t: float
    from_gear: int
    to_gear: int
    v: float
    pedal: float


@dataclass
class VcdDataset:
    """Traces plus detected shift events from one campaign."""

    params: VehicleParams
    traces: list[Trace]
    events: list[ShiftEvent] = field(default_factory=list)

    @classmethod
    def from_traces(cls, params: VehicleParams, traces) -> "VcdDataset":
        """Dataset of simulated, re-read or rig-recorded traces, with the
        shift events found in each. A trace without a column extraction
        reads raises InsufficientData naming it."""
        traces = list(traces)
        for tr in traces:
            tr.require(*STACKED_COLUMNS, "pedal")
        return cls(params=params, traces=traces,
                   events=[ev for tr in traces for ev in detect_shift_events(tr)])

    @cached_property
    def stacked(self) -> dict[str, np.ndarray]:
        """All traces concatenated per column, with derived driveline inputs;
        built on first use and kept until deleted, so the traces must not
        change meanwhile.

        A trace without flags (a rig recording) reads as all zeros; a trace
        without any other column raises InsufficientData naming it.
        """
        for tr in self.traces:
            tr.require(*STACKED_COLUMNS)
        cols = {name: np.concatenate([getattr(tr, name) for tr in self.traces])
                for name in STACKED_COLUMNS}
        cols["flags"] = np.concatenate([np.zeros(len(tr), dtype=int) if tr.flags is None
                                        else tr.flags for tr in self.traces])
        cols["output_speed"] = transmission_output_speed(self.params, cols["v"])
        cols["wheel_force"] = wheel_force(self.params, cols["v"], cols["a"], cols["grade"],
                                          cols["gear"])
        return cols


def detect_shift_events(trace: Trace) -> list[ShiftEvent]:
    events = []
    gear = trace.gear
    idx = np.nonzero(np.diff(gear) != 0)[0] + 1
    for i in idx:
        events.append(ShiftEvent(cycle=trace.name, t=float(trace.t[i]),
                                 from_gear=int(gear[i - 1]), to_gear=int(gear[i]),
                                 v=float(trace.v[i]), pedal=float(trace.pedal[i])))
    return events


def run_vcd(vehicle: ReferenceVehicle, cycles: list[DriveCycle], dt: float = DT) -> VcdDataset:
    """Simulate every cycle on flat grade and collect traces + shift events."""
    if not cycles:
        raise InvalidArgument("need at least one cycle")
    return VcdDataset.from_traces(vehicle.params,
                                  [simulate(c, vehicle, grade=0.0, dt=dt) for c in cycles])


# --- constants ---------------------------------------------------------------

@dataclass(frozen=True)
class ExtractedConstants:
    torque_floor: float           # Nm, settled idle torque
    idle_fuel: float              # g/s
    cut_speed: float              # m/s, fuel cut only above
    cut_force: float              # N, fuel cut only below
    downshift_cutoffs: np.ndarray  # m/s per gear, [0] = 0 for first gear
    launch_correction: tuple = ()  # (accel, extra Nm) knots
    interpolated_gears: tuple = ()  # gears whose cutoff was filled, not observed

    def __post_init__(self):
        object.__setattr__(self, "downshift_cutoffs",
                           float_table("downshift_cutoffs", self.downshift_cutoffs))
        object.__setattr__(self, "launch_correction", launch_knots(self.launch_correction))
        object.__setattr__(self, "interpolated_gears", tuple(self.interpolated_gears))
        if self.idle_fuel <= 0:
            raise InvalidArgument(f"idle fuel must be positive, got {self.idle_fuel} g/s")
        if self.cut_speed <= 0:
            raise InvalidArgument(f"cut speed must be positive, got {self.cut_speed} m/s")
        if np.any(np.diff(self.downshift_cutoffs) <= 0):
            raise InvalidArgument("downshift cutoffs must increase with gear")


CONSTANTS_KEYS = {
    "torque_floor": "torque_floor_nm", "idle_fuel": "idle_fuel_gps",
    "cut_speed": "cut_speed_mps", "cut_force": "cut_force_n",
    "downshift_cutoffs": "downshift_cutoffs_mps",
    "launch_correction": "launch_correction", "interpolated_gears": "interpolated_gears",
}


def _settled_mask(t: np.ndarray, torque: np.ndarray) -> np.ndarray:
    """True where |dT/dt| stays below IDLE_TORQUE_RATE over [t-1s, t+1s].

    Edges use the samples that exist; a window reaching past the trace is
    judged on the recorded part only.
    """
    rate_ok = np.abs(np.gradient(torque, t)) < IDLE_TORQUE_RATE
    dt = float(np.median(np.diff(t)))
    half = max(1, int(round(IDLE_WINDOW / dt)))
    padded = np.pad(rate_ok, half, constant_values=True)
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    return windows.all(axis=1)


def extract_idle_constants(ds: VcdDataset) -> tuple[float, float]:
    """Mean torque and fuel rate over settled standstill steps."""
    torques, fuels = [], []
    for tr in ds.traces:
        mask = (tr.v < STANDSTILL_SPEED) & _settled_mask(tr.t, tr.engine_torque)
        torques.append(tr.engine_torque[mask])
        fuels.append(tr.fuel[mask])
    torques = np.concatenate(torques)
    fuels = np.concatenate(fuels)
    if torques.size == 0:
        raise InsufficientData("no settled standstill steps in any trace")
    return float(torques.mean()), float(fuels.mean())


def extract_fuel_cut_thresholds(ds: VcdDataset) -> tuple[float, float]:
    """Speed / wheel-force thresholds of the fuel-cut region.

    Over all zero-fuel moving steps: cut speed is the 1st percentile of
    speed, cut force the 95th percentile of wheel force.
    """
    cols = ds.stacked
    cut = (cols["fuel"] == 0.0) & (cols["v"] >= STANDSTILL_SPEED)
    if not np.any(cut):
        raise InsufficientData("no zero-fuel moving steps in the dataset")
    v_c = percentile(cols["v"][cut], CUT_SPEED_PERCENTILE)
    f_wc = percentile(cols["wheel_force"][cut], CUT_FORCE_PERCENTILE)
    return v_c, f_wc


def extract_downshift_map(ds: VcdDataset) -> tuple[np.ndarray, tuple]:
    """Per-gear downshift cutoff speeds from observed single-step downshifts.

    cutoffs[k-1] is the speed below which gear k is dropped; first gear has
    cutoff 0. Transitions never observed are filled by interpolating over
    gear index between observed neighbors and reported back. A cutoff that
    does not come out above the gear below (an unobserved top gear, which
    interpolation can only hold flat) raises InsufficientData naming it.
    """
    n_gears = ds.params.n_gears
    cutoffs = np.full(n_gears, np.nan)
    cutoffs[0] = 0.0
    for k in range(2, n_gears + 1):
        speeds = [ev.v for ev in ds.events if ev.from_gear == k and ev.to_gear == k - 1]
        if speeds:
            cutoffs[k - 1] = float(np.median(speeds))
    if np.all(np.isnan(cutoffs[1:])):
        raise InsufficientData("no downshift events in the dataset")
    missing = np.nonzero(np.isnan(cutoffs))[0]
    if missing.size:
        known = np.nonzero(~np.isnan(cutoffs))[0]
        cutoffs[missing] = np.interp(missing, known, cutoffs[known])
    filled = tuple(int(g) + 1 for g in missing)
    flat = [k + 1 for k in range(1, n_gears) if cutoffs[k] <= cutoffs[k - 1]]
    if flat:
        unseen = f" (no downshift seen from gear(s) {list(filled)})" if filled else ""
        raise InsufficientData(f"cannot place the downshift cutoff of gear(s) {flat} "
                               f"above the gear below{unseen}")
    return cutoffs, filled


def extract_torque_correction(ds: VcdDataset, predict_torque) -> tuple:
    """First-gear torque correction in LAUNCH_BINS bins over LAUNCH_ACCEL_RANGE.

    predict_torque(v, a, grade) must return the draft model's engine torque
    for first-gear operation. Standstill steps are skipped (their torque is
    set by the idle governor, not the driveline, and the assembled model
    handles them through the idle rule), as are envelope-clamped steps
    (their torque reflects the cap, not converter behavior). Empty bins are
    omitted, so the returned knots interpolate across them.
    """
    cols = ds.stacked
    mask = (cols["gear"] == 1) & (cols["v"] >= STANDSTILL_SPEED) & \
           ((cols["flags"] & FLAG_ENVELOPE) == 0)
    v, a, grade = cols["v"][mask], cols["a"][mask], cols["grade"][mask]
    if v.size == 0:
        raise InsufficientData("no moving first-gear steps in the dataset")
    residual = cols["engine_torque"][mask] - np.asarray(predict_torque(v, a, grade), dtype=float)

    edges = np.linspace(*LAUNCH_ACCEL_RANGE, LAUNCH_BINS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    knots = []
    for b in range(LAUNCH_BINS):
        hi = a <= edges[b + 1] if b == LAUNCH_BINS - 1 else a < edges[b + 1]
        in_bin = (a >= edges[b]) & hi
        if np.any(in_bin):
            knots.append((float(centers[b]), float(residual[in_bin].mean())))
    return tuple(knots)


# --- polynomial surface fitting ----------------------------------------------

@dataclass(frozen=True)
class PolyMap2D:
    """Least-squares tensor-product polynomial surface z(x, y).

    Coefficients are solved and stored in standardized coordinates
    (zero-mean, unit-variance inputs) so evaluation reproduces the fit
    exactly; ``coeffs`` converts them back to plain x**i * y**j powers for
    inspection.
    """

    degree: tuple[int, int]
    coeffs_std: np.ndarray
    x_mean: float
    x_std: float
    y_mean: float
    y_std: float
    domain: tuple[tuple[float, float], tuple[float, float]]
    rms_residual: float

    def __post_init__(self):
        object.__setattr__(self, "degree", tuple(self.degree))
        object.__setattr__(self, "coeffs_std", np.asarray(self.coeffs_std, dtype=float))
        object.__setattr__(self, "domain", tuple(tuple(pair) for pair in self.domain))
        d1, d2 = self.degree
        if self.coeffs_std.shape != (d1 + 1, d2 + 1):
            raise InvalidArgument("coefficient matrix shape does not match degree, got "
                                  f"{self.coeffs_std.shape} for degree {self.degree}")
        if [len(pair) for pair in self.domain] != [2, 2] or any(lo > hi for lo, hi in self.domain):
            raise InvalidArgument("domain must be two (lo, hi) pairs with lo <= hi, got "
                                  f"{[list(pair) for pair in self.domain]}")
        if not (self.x_std > 0 and self.y_std > 0):
            raise InvalidArgument("x_std and y_std must be positive, got "
                                  f"{self.x_std} and {self.y_std}")

    def evaluate(self, x, y):
        """z at (x, y), each input clamped to the map's domain first."""
        (x0, x1), (y0, y1) = self.domain
        u = (np.clip(np.asarray(x, dtype=float), x0, x1) - self.x_mean) / self.x_std
        w = (np.clip(np.asarray(y, dtype=float), y0, y1) - self.y_mean) / self.y_std
        out = np.polynomial.polynomial.polyval2d(u, w, self.coeffs_std)
        return out if out.ndim else float(out)

    def out_of_domain(self, x, y):
        (x0, x1), (y0, y1) = self.domain
        return (np.asarray(x) < x0) | (np.asarray(x) > x1) | \
               (np.asarray(y) < y0) | (np.asarray(y) > y1)

    @property
    def coeffs(self) -> np.ndarray:
        """Coefficient matrix over the raw monomial basis x**i * y**j."""
        mx = _shift_scale_matrix(self.degree[0], self.x_mean, self.x_std)
        my = _shift_scale_matrix(self.degree[1], self.y_mean, self.y_std)
        return mx.T @ self.coeffs_std @ my

    def to_dict(self) -> dict:
        return to_doc(self, POLY_MAP_KEYS)

    @classmethod
    def from_dict(cls, doc: dict) -> "PolyMap2D":
        return from_doc(cls, doc, POLY_MAP_KEYS)


# the JSON keys are the attribute names
POLY_MAP_KEYS = {name: name for name in ("degree", "coeffs_std", "x_mean", "x_std", "y_mean",
                                         "y_std", "domain", "rms_residual")}


def _shift_scale_matrix(deg: int, mean: float, std: float) -> np.ndarray:
    """Rows give ((x - mean)/std)**i expanded over plain powers of x."""
    m = np.zeros((deg + 1, deg + 1))
    for i in range(deg + 1):
        for j in range(i + 1):
            m[i, j] = math.comb(i, j) * (-mean) ** (i - j) / std ** i
    return m


def lstsq(design, target, message: str) -> np.ndarray:
    """Least-squares coefficients of ``design @ c = target``; InsufficientData
    with ``message``, formatted with the design's ``rank`` and column count
    ``n``, when the rank is below the column count."""
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise InsufficientData(message.format(rank=rank, n=design.shape[1]))
    return coeffs


def fit_poly2d(xs, ys, zs, degree: tuple[int, int], domain=None) -> PolyMap2D:
    """Ordinary least squares on the tensor monomial basis.

    The map's validity box defaults to the bounding box of the fitted
    samples; pass ``domain`` to widen it (e.g. when some rows are kept out
    of the regression but still describe reachable inputs). Raises
    InvalidArgument when d1 + d2 exceeds MAX_MAP_DEGREE and InsufficientData when the
    sample geometry cannot determine all coefficients.
    """
    d1, d2 = degree
    if d1 < 0 or d2 < 0:
        raise InvalidArgument(f"map degrees must be nonnegative, got {list(degree)}")
    if d1 + d2 > MAX_MAP_DEGREE:
        raise InvalidArgument(f"total degree {d1 + d2} exceeds cap {MAX_MAP_DEGREE}")
    x = np.asarray(xs, dtype=float).ravel()
    y = np.asarray(ys, dtype=float).ravel()
    z = np.asarray(zs, dtype=float).ravel()
    if not (x.size == y.size == z.size):
        raise InvalidArgument(f"xs, ys, zs must have equal lengths, got {x.size}, {y.size} "
                              f"and {z.size}")
    for name, col in (("xs", x), ("ys", y), ("zs", z)):
        bad = col[~np.isfinite(col)]
        if bad.size:
            raise InvalidArgument(f"fit inputs must be finite, got {bad[0]} in {name}")
    n_coeffs = (d1 + 1) * (d2 + 1)
    if x.size < n_coeffs:
        raise InsufficientData(f"{x.size} samples cannot determine {n_coeffs} coefficients")

    x_mean, x_std = float(x.mean()), float(x.std())
    y_mean, y_std = float(y.mean()), float(y.std())
    x_std = x_std if x_std > 1e-12 else 1.0
    y_std = y_std if y_std > 1e-12 else 1.0
    u = (x - x_mean) / x_std
    w = (y - y_mean) / y_std
    design = np.polynomial.polynomial.polyvander2d(u, w, [d1, d2])
    coeffs = lstsq(design, z, "design matrix rank {rank} < {n} coefficients")
    rms = float(np.sqrt(np.mean((design @ coeffs - z) ** 2)))
    if domain is None:
        domain = ((float(x.min()), float(x.max())), (float(y.min()), float(y.max())))
    return PolyMap2D(degree=(d1, d2), coeffs_std=coeffs.reshape(d1 + 1, d2 + 1),
                     x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std,
                     domain=domain, rms_residual=rms)


# --- map battery -------------------------------------------------------------

@dataclass
class FittedMaps:
    fuel_map: PolyMap2D                # (engine speed, torque) -> g/s
    engine_speed_maps: list[PolyMap2D]  # per gear, (output speed, wheel force) -> rad/s
    torque_maps: list[PolyMap2D]        # per gear, (output speed, wheel force) -> Nm


def fit_all_maps(ds: VcdDataset, min_torque: float, fuel_degree=FUEL_MAP_DEGREE,
                 gear_degree=GEAR_MAP_DEGREE, min_gear_samples: int = MIN_GEAR_SAMPLES,
                 launch_correction=()) -> FittedMaps:
    """Fit the fuel surface and the per-gear driveline maps.

    The fuel fit drops standstill and fuel-cut rows (those regimes are
    represented by the idle constant and the cut rule) and rows below
    ``min_torque`` (unreachable after the model's torque clamp; ``-inf``
    keeps them all). Per-gear fits drop rows pinned at the engine-speed
    clamps or the torque envelope, since the model re-applies those clamps
    after map evaluation. A nonempty ``launch_correction`` is subtracted
    from first-gear torque targets so the fitted map composes with it.
    """
    if min_gear_samples < 1:
        raise InvalidArgument(f"min_gear_samples must be at least 1, got {min_gear_samples}")
    cols = ds.stacked
    idle = cols["v"] < STANDSTILL_SPEED
    cut = (cols["fuel"] == 0.0) & ~idle

    fuel_rows = ~idle & ~cut & (cols["engine_torque"] >= min_torque)
    fuel_map = fit_poly2d(cols["engine_speed"][fuel_rows], cols["engine_torque"][fuel_rows],
                          cols["fuel"][fuel_rows], fuel_degree)

    p = ds.params
    speed_maps, torque_maps = [], []
    for k in range(1, p.n_gears + 1):
        rows = (cols["gear"] == k) & ~idle
        unclamped = (cols["engine_speed"] > p.engine_speed_idle) & \
                    (cols["engine_speed"] < p.engine_speed_max)
        n_rows = rows & unclamped
        t_rows = n_rows & ((cols["flags"] & FLAG_ENVELOPE) == 0)
        if min(n_rows.sum(), t_rows.sum()) < min_gear_samples:
            raise InsufficientGearData(k, int(min(n_rows.sum(), t_rows.sum())), min_gear_samples)
        # validity box spans everything the gear actually saw; clamped rows
        # are kept out of the regression but still mark reachable inputs
        box = ((float(cols["output_speed"][rows].min()), float(cols["output_speed"][rows].max())),
               (float(cols["wheel_force"][rows].min()), float(cols["wheel_force"][rows].max())))
        speed_maps.append(fit_poly2d(cols["output_speed"][n_rows], cols["wheel_force"][n_rows],
                                     cols["engine_speed"][n_rows], gear_degree, domain=box))
        torque_target = cols["engine_torque"][t_rows]
        if k == 1:
            torque_target = torque_target - launch_torque(launch_correction, cols["a"][t_rows])
        torque_maps.append(fit_poly2d(cols["output_speed"][t_rows], cols["wheel_force"][t_rows],
                                      torque_target, gear_degree, domain=box))
    return FittedMaps(fuel_map=fuel_map, engine_speed_maps=speed_maps, torque_maps=torque_maps)
