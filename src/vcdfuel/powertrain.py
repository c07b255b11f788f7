"""Forward simulator of a conventional powertrain on a drive cycle.

The simulator plays the role of a high-fidelity reference: it follows the
cycle speed exactly (virtual chassis dynamometer style, no driver model),
resolves gear selection through a hysteresis shift schedule, inverts the
driveline to engine speed/torque, and looks fuel rate up in a tabulated
engine map. Everything downstream of this module (constant extraction, map
fitting, reduced models) treats its traces as ground truth.

The torque converter is idealized as an engine-speed floor at idle (plus a
configurable first-gear torque correction); there is no transient slip
model blending converter modes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .drive_cycles import DriveCycle, resample
from .errors import GearOutOfRange, InvalidArgument
from .jsonio import from_doc, read_json, to_doc, write_json
from .trace import DT, FLAG_ENVELOPE, Trace

GRAVITY = 9.81  # m/s2
FUEL_LHV = 43500.0  # J/g, lower heating value of the fuel

# below this speed the vehicle is treated as stationary (open torque
# converter, engine idling)
STANDSTILL_SPEED = 0.1  # m/s


def float_table(name: str, values, min_size: int = 1) -> np.ndarray:
    """``values`` as a 1-D float array; InvalidArgument naming ``name``
    unless it is a flat list of at least ``min_size`` numbers."""
    table = np.asarray(values, dtype=float)
    if table.ndim != 1:
        raise InvalidArgument(f"{name} must be a flat list of numbers, got shape "
                              f"{list(table.shape)}")
    if table.size < min_size:
        raise InvalidArgument(f"{name} needs {min_size} or more entries, got {table.size}")
    return table


@dataclass(frozen=True)
class VehicleParams:
    """Principled vehicle constants.

    Road load follows the coastdown form a + b*v + c*v**2 (N with v in m/s).
    ``gear_masses`` are generalized masses per gear: vehicle mass plus the
    reflected driveline inertia, so they decrease toward the top gear.
    """

    mass: float                 # kg
    gear_masses: np.ndarray     # kg, one per gear
    tire_radius: float          # m
    final_drive: float
    gear_ratios: np.ndarray     # strictly decreasing with gear index
    road_load_a: float          # N
    road_load_b: float          # N/(m/s)
    road_load_c: float          # N/(m/s)^2
    engine_speed_idle: float    # rad/s
    engine_speed_max: float     # rad/s
    driveline_eff: float = 0.92

    def __post_init__(self):
        for name in ("gear_masses", "gear_ratios"):
            object.__setattr__(self, name, float_table(name, getattr(self, name)))
        if len(self.gear_masses) != len(self.gear_ratios):
            raise InvalidArgument("gear_masses and gear_ratios must have the same length, got "
                                  f"{len(self.gear_masses)} and {len(self.gear_ratios)}")
        if self.mass <= 0:
            raise InvalidArgument(f"masses must be positive, got mass {self.mass}")
        if np.any(self.gear_masses <= 0):
            raise InvalidArgument("masses must be positive, got gear_masses "
                                  f"{self.gear_masses.tolist()}")
        if self.tire_radius <= 0 or self.final_drive <= 0:
            raise InvalidArgument("tire_radius and final_drive must be positive, got "
                                  f"{self.tire_radius} and {self.final_drive}")
        if np.any(np.diff(self.gear_ratios) >= 0):
            raise InvalidArgument("gear_ratios must be strictly decreasing, got "
                                  f"{self.gear_ratios.tolist()}")
        if not (self.engine_speed_max > self.engine_speed_idle > 0):
            raise InvalidArgument("need engine_speed_max > engine_speed_idle > 0, got "
                                  f"max {self.engine_speed_max}, idle {self.engine_speed_idle}")
        if not 0 < self.driveline_eff <= 1:
            raise InvalidArgument(f"driveline_eff must be in (0, 1], got {self.driveline_eff}")

    @property
    def n_gears(self) -> int:
        return len(self.gear_ratios)


PARAMS_KEYS = {
    "mass": "mass_kg", "gear_masses": "gear_masses_kg", "tire_radius": "tire_radius_m",
    "final_drive": "final_drive", "gear_ratios": "gear_ratios",
    "road_load_a": "road_load_a_n", "road_load_b": "road_load_b_n_per_mps",
    "road_load_c": "road_load_c_n_per_mps2",
    "engine_speed_idle": "engine_speed_idle_radps", "engine_speed_max": "engine_speed_max_radps",
    "driveline_eff": "driveline_eff",
}


@dataclass(frozen=True)
class EngineFuelMap:
    """Tabulated fuel rate [g/s] over engine speed [rad/s] x torque [Nm]."""

    speed_grid: np.ndarray
    torque_grid: np.ndarray
    fuel: np.ndarray  # shape (len(speed_grid), len(torque_grid))

    def __post_init__(self):
        for name in ("speed_grid", "torque_grid"):
            # bilinear interpolation needs two points along each grid
            grid = float_table(name, getattr(self, name), min_size=2)
            if np.any(np.diff(grid) <= 0):
                raise InvalidArgument("fuel map grids must be strictly ascending, got "
                                      f"{name} {grid.tolist()}")
            object.__setattr__(self, name, grid)
        object.__setattr__(self, "fuel", np.asarray(self.fuel, dtype=float))
        if self.fuel.shape != (self.speed_grid.size, self.torque_grid.size):
            raise InvalidArgument(f"fuel table shape does not match grids, got {self.fuel.shape} "
                                  f"for {self.speed_grid.size} x {self.torque_grid.size} grids")
        if np.any(self.fuel < 0):
            raise InvalidArgument(f"fuel map must be nonnegative, got {self.fuel.min()}")
        if np.any(np.diff(self.fuel, axis=1) < -1e-12):
            raise InvalidArgument("fuel map must be non-decreasing in torque at fixed speed, "
                                  f"got a step of {np.diff(self.fuel, axis=1).min()}")

    @classmethod
    def from_affine_power(cls, speed_grid, torque_grid, power_gain: float,
                          friction_torque: float, accessory_power: float) -> "EngineFuelMap":
        """Tabulate a Willans-line style map.

        fuel = max(0.08, (power_gain*N*T + friction_torque*N + accessory_power) / FUEL_LHV)

        The positive floor models closed-throttle injection: the tabulated
        map never reaches zero, so zero fuel in a trace always means an
        explicit fuel cut.
        """
        n = np.asarray(speed_grid, dtype=float)[:, None]
        tq = np.asarray(torque_grid, dtype=float)[None, :]
        raw = (power_gain * n * tq + friction_torque * n + accessory_power) / FUEL_LHV
        return cls(speed_grid, torque_grid, np.maximum(raw, 0.08))

    def interpolate(self, speed, torque):
        """Bilinear interpolation; inputs clamped to the grid box."""
        n = np.clip(np.asarray(speed, dtype=float), self.speed_grid[0], self.speed_grid[-1])
        t = np.clip(np.asarray(torque, dtype=float), self.torque_grid[0], self.torque_grid[-1])
        i = np.clip(np.searchsorted(self.speed_grid, n, side="right") - 1, 0, self.speed_grid.size - 2)
        j = np.clip(np.searchsorted(self.torque_grid, t, side="right") - 1, 0, self.torque_grid.size - 2)
        dn = self.speed_grid[i + 1] - self.speed_grid[i]
        dt = self.torque_grid[j + 1] - self.torque_grid[j]
        wn = (n - self.speed_grid[i]) / dn
        wt = (t - self.torque_grid[j]) / dt
        f00 = self.fuel[i, j]
        f10 = self.fuel[i + 1, j]
        f01 = self.fuel[i, j + 1]
        f11 = self.fuel[i + 1, j + 1]
        out = (f00 * (1 - wn) * (1 - wt) + f10 * wn * (1 - wt)
               + f01 * (1 - wn) * wt + f11 * wn * wt)
        return out if out.ndim else float(out)


FUEL_MAP_KEYS = {"speed_grid": "speed_grid_radps", "torque_grid": "torque_grid_nm",
                 "fuel": "fuel_gps"}


@dataclass(frozen=True)
class GearShiftMaps:
    """Shift schedule plus engine/wheel torque limit curves.

    ``upshift_speeds[k-1]`` is the base speed above which gear k upshifts;
    ``downshift_speeds[k-1]`` the speed below which gear k+1 drops back.
    Both scale with pedal position by (1 + pedal_gain * pedal), so the box
    holds gears longer under load. The hysteresis band between the two must
    be nonempty everywhere.
    """

    upshift_speeds: np.ndarray    # m/s, length n_gears - 1
    downshift_speeds: np.ndarray  # m/s, length n_gears - 1
    pedal_gain: float             # per percent pedal
    torque_curve_speed: np.ndarray  # rad/s, ascending
    torque_curve: np.ndarray        # Nm, max engine torque at each speed

    def __post_init__(self):
        # the shift tables' length is the gear count's, see check_shift_tables
        for name, min_size in (("upshift_speeds", 0), ("downshift_speeds", 0),
                               ("torque_curve_speed", 1), ("torque_curve", 1)):
            object.__setattr__(self, name, float_table(name, getattr(self, name), min_size))
        if self.upshift_speeds.size != self.downshift_speeds.size:
            raise InvalidArgument("upshift and downshift tables must have the same length, got "
                                  f"{self.upshift_speeds.size} and {self.downshift_speeds.size}")
        if np.any(self.downshift_speeds >= self.upshift_speeds):
            raise InvalidArgument("hysteresis band empty: need downshift < upshift everywhere, got "
                                  f"downshift_speeds {self.downshift_speeds.tolist()}, "
                                  f"upshift_speeds {self.upshift_speeds.tolist()}")
        for name in ("upshift_speeds", "downshift_speeds", "torque_curve_speed"):
            values = getattr(self, name)
            if np.any(np.diff(values) <= 0):
                raise InvalidArgument(f"{name} must be ascending, got {values.tolist()}")
        if self.torque_curve.size != self.torque_curve_speed.size:
            raise InvalidArgument("torque_curve must have one value per torque_curve_speed "
                                  f"entry, got {self.torque_curve.size} and "
                                  f"{self.torque_curve_speed.size}")

    def v_upshift(self, pedal: float, gear: int) -> float:
        """Speed above which `gear` shifts up; +inf for the top gear."""
        if gear >= self.upshift_speeds.size + 1:
            return np.inf
        return float(self.upshift_speeds[gear - 1] * (1.0 + self.pedal_gain * pedal))

    def v_downshift(self, pedal: float, gear: int) -> float:
        """Speed below which `gear` shifts down; -inf for first gear."""
        if gear <= 1:
            return -np.inf
        return float(self.downshift_speeds[gear - 2] * (1.0 + self.pedal_gain * pedal))

    def gear_from_speed(self, pedal, v):
        """Automatic upshift map: target gear at each (pedal, speed) point."""
        scale = 1.0 + self.pedal_gain * np.asarray(pedal, dtype=float)
        thresholds = self.upshift_speeds * scale[..., None]
        return 1 + np.sum(np.asarray(v)[..., None] > thresholds, axis=-1)

    def max_engine_torque(self, speed):
        return np.interp(speed, self.torque_curve_speed, self.torque_curve)


def check_shift_tables(maps: GearShiftMaps, n_gears: int) -> None:
    """Raise unless ``maps`` holds one upshift and one downshift speed per
    gear change of an ``n_gears`` gearbox."""
    if maps.upshift_speeds.size != n_gears - 1:
        raise InvalidArgument(f"need {n_gears - 1} upshift and downshift speeds for {n_gears} "
                              f"gears, got {maps.upshift_speeds.size}")


SHIFT_MAPS_KEYS = {
    "upshift_speeds": "upshift_speeds_mps", "downshift_speeds": "downshift_speeds_mps",
    "pedal_gain": "pedal_gain_per_pct",
    "torque_curve_speed": "torque_curve_speed_radps", "torque_curve": "torque_curve_nm",
}


@dataclass(frozen=True)
class ControlParams:
    """Engine/transmission control constants of the reference vehicle."""

    idle_fuel_gps: float = 0.15
    idle_torque_nm: float = 12.0
    fuel_cut_speed: float = 6.0      # m/s; cut only above this speed
    fuel_cut_force: float = -150.0   # N; cut only below this wheel force
    # piecewise-linear first-gear torque correction over acceleration,
    # as (accel m/s2, extra torque Nm) knots; empty list means zero
    launch_correction: tuple = ()

    def __post_init__(self):
        # the extracted idle fuel and the simplified model's standstill
        # floor are this value, and both must be positive
        if not self.idle_fuel_gps > 0:
            raise InvalidArgument(f"idle_fuel_gps must be positive, got {self.idle_fuel_gps}")
        object.__setattr__(self, "launch_correction", launch_knots(self.launch_correction))


CONTROL_KEYS = {
    "idle_fuel_gps": "idle_fuel_gps", "idle_torque_nm": "idle_torque_nm",
    "fuel_cut_speed": "fuel_cut_speed_mps", "fuel_cut_force": "fuel_cut_force_n",
    "launch_correction": "launch_correction",
}


@dataclass(frozen=True)
class ReferenceVehicle:
    """Bundle of everything the simulator needs for one vehicle."""

    params: VehicleParams
    fuel_map: EngineFuelMap
    shift_maps: GearShiftMaps
    control: ControlParams = field(default_factory=ControlParams)

    def __post_init__(self):
        check_shift_tables(self.shift_maps, self.params.n_gears)


# --- physics -----------------------------------------------------------------

def road_load(params: VehicleParams, v):
    """Resistive force a + b*v + c*v**2 [N]; negative speeds clamp to 0."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        warnings.warn("negative speed clamped to 0 in road_load", stacklevel=2)
        v = np.maximum(v, 0.0)
    return params.road_load_a + params.road_load_b * v + params.road_load_c * v * v


def wheel_force(params: VehicleParams, v, a, grade, gear):
    """Demanded wheel force: inertia + road load + grade component [N].

    ``gear`` is one gear index or an integer array of them that broadcasts
    against the samples: one per sample, or a column for one row per gear.
    """
    gear = np.asarray(gear)
    bad = (gear < 1) | (gear > params.n_gears)
    if np.any(bad):
        raise GearOutOfRange(f"gear {np.unique(gear[bad]).tolist()} outside [1, {params.n_gears}]")
    return (params.gear_masses[gear - 1] * np.asarray(a, dtype=float)
            + road_load(params, v)
            + params.mass * GRAVITY * np.sin(grade))


def invert_driveline(params: VehicleParams, force, gear):
    """Engine torque [Nm] that puts wheel force ``force`` [N] on the road in
    ``gear`` (one index or an array of them), through the driveline losses."""
    ratio = params.gear_ratios[np.asarray(gear) - 1]
    return force * params.tire_radius / (params.final_drive * ratio * params.driveline_eff)


def transmission_output_speed(params: VehicleParams, v):
    """Transmission output shaft speed [rad/s] at vehicle speed v [m/s]."""
    return np.asarray(v, dtype=float) * params.final_drive / params.tire_radius


def launch_knots(knots) -> tuple:
    """Launch-correction ``knots`` as a tuple of (accel, torque) pairs, which
    ``launch_torque`` needs in strictly ascending accel."""
    knots = tuple(tuple(pt) for pt in knots)
    if any(len(pt) != 2 for pt in knots) or np.any(np.diff([pt[0] for pt in knots]) <= 0):
        raise InvalidArgument("launch_correction must be (accel, torque) pairs with strictly "
                              f"ascending accel, got {[list(pt) for pt in knots]}")
    return knots


def launch_torque(knots, accel):
    """First-gear torque correction [Nm]: piecewise-linear over
    (accel m/s2, extra torque Nm) knots, zero when there are none."""
    if not knots:
        return np.zeros_like(np.asarray(accel, dtype=float))
    pts = np.asarray(knots, dtype=float)
    return np.interp(accel, pts[:, 0], pts[:, 1])


def select_gear(maps: GearShiftMaps, n_gears: int, prev_gear: int, v: float, pedal: float) -> int:
    """One step of the hysteresis shift logic; at most one shift per call.

    Strict inequalities on both thresholds, so a speed exactly at a
    threshold holds the gear.
    """
    if not 1 <= prev_gear <= n_gears:
        raise GearOutOfRange(f"gear {prev_gear} outside [1, {n_gears}]")
    if prev_gear < n_gears and v > maps.v_upshift(pedal, prev_gear):
        return prev_gear + 1
    if prev_gear > 1 and v < maps.v_downshift(pedal, prev_gear):
        return prev_gear - 1
    return prev_gear


def max_wheel_torque_by_gear(params: VehicleParams, maps: GearShiftMaps, v):
    """Peak wheel torque [Nm] of every gear at speed v, one row per gear; the
    maximum over gears is the pedal normalization curve.

    Zero where a gear would overspeed the engine. Below idle speed the open
    converter lets the engine stay at idle, so the idle-speed torque limit
    applies.
    """
    n = np.multiply.outer(params.gear_ratios, transmission_output_speed(params, v))
    overspeed = n > params.engine_speed_max
    t = maps.max_engine_torque(np.maximum(n, params.engine_speed_idle, out=n))
    t *= (params.final_drive * params.gear_ratios).reshape((-1,) + (1,) * np.ndim(v))
    t *= params.driveline_eff
    t[overspeed] = 0.0
    return t


# --- simulation --------------------------------------------------------------

def simulate(cycle: DriveCycle, vehicle: ReferenceVehicle, grade=0.0, dt: float = DT) -> Trace:
    """Run the vehicle over a cycle and return the full trace.

    grade is either a constant [rad] or a callable t -> rad. The cycle is
    resampled to a uniform dt grid and followed exactly; acceleration comes
    from finite differences of the resampled speed. Pure function: identical
    inputs produce an identical trace.
    """
    p = vehicle.params
    ctl = vehicle.control
    maps = vehicle.shift_maps
    grid = resample(cycle, dt)
    t, v = grid.t, grid.v
    n_steps = t.size
    a = np.gradient(v, t)
    theta = grade(t) if callable(grade) else np.full(n_steps, float(grade))
    standstill = v < STANDSTILL_SPEED
    n_gears = p.n_gears

    # every gear at once: wheel force and the pedal it implies, (n_gears, N)
    force_by_gear = wheel_force(p, v, a, theta, np.arange(1, n_gears + 1)[:, None])
    t_wmax = np.max(max_wheel_torque_by_gear(p, maps, v), axis=0)
    pedal_by_gear = np.clip(np.divide(100.0 * force_by_gear * p.tire_radius, t_wmax,
                                      out=np.zeros_like(force_by_gear), where=t_wmax > 0),
                            0.0, 100.0)

    # the one sequential part: each shift decision samples the previous
    # step's gear and pedal; standstill puts the box back in first
    gear = np.ones(n_steps, dtype=int)
    prev_gear, prev_pedal = 1, 0.0
    for i, (v_i, stopped) in enumerate(zip(v.tolist(), standstill.tolist())):
        if stopped:
            prev_gear, prev_pedal = 1, 0.0
            continue
        prev_gear = select_gear(maps, n_gears, prev_gear, v_i, prev_pedal)
        prev_pedal = pedal_by_gear.item(prev_gear - 1, i)
        gear[i] = prev_gear

    # gather the chosen gear and invert the driveline in one pass
    row, col = gear - 1, np.arange(n_steps)
    force = force_by_gear[row, col]
    pedal = pedal_by_gear[row, col]
    engine_speed = np.clip(transmission_output_speed(p, v) * p.gear_ratios[row],
                           p.engine_speed_idle, p.engine_speed_max)
    engine_torque = invert_driveline(p, force, gear)
    engine_torque = np.where(gear == 1, engine_torque + launch_torque(ctl.launch_correction, a),
                             engine_torque)
    t_cap = maps.max_engine_torque(engine_speed)
    capped = (engine_torque > t_cap) & ~standstill
    engine_torque = np.where(capped, t_cap, engine_torque)
    flags = np.where(capped, FLAG_ENVELOPE, 0)
    fuel = np.maximum(0.0, vehicle.fuel_map.interpolate(engine_speed, engine_torque))
    fuel[(v > ctl.fuel_cut_speed) & (force < ctl.fuel_cut_force)] = 0.0

    # open converter, engine idling
    engine_speed[standstill] = p.engine_speed_idle
    engine_torque[standstill] = ctl.idle_torque_nm
    pedal[standstill] = 0.0
    fuel[standstill] = ctl.idle_fuel_gps

    return Trace(name=cycle.name, t=t, v=v, a=a, grade=theta, gear=gear,
                 engine_speed=engine_speed, engine_torque=engine_torque,
                 pedal=pedal, fuel=fuel, flags=flags)


# --- vehicle JSON ------------------------------------------------------------

def params_to_dict(p: VehicleParams) -> dict:
    return to_doc(p, PARAMS_KEYS)


def params_from_dict(doc: dict) -> VehicleParams:
    return from_doc(VehicleParams, doc, PARAMS_KEYS, optional={"driveline_eff"})


def vehicle_to_dict(vehicle: ReferenceVehicle) -> dict:
    return {"params": params_to_dict(vehicle.params),
            "engine_map": to_doc(vehicle.fuel_map, FUEL_MAP_KEYS),
            "shifting": to_doc(vehicle.shift_maps, SHIFT_MAPS_KEYS),
            "control": to_doc(vehicle.control, CONTROL_KEYS)}


def vehicle_from_dict(doc: dict) -> ReferenceVehicle:
    return ReferenceVehicle(
        params_from_dict(doc["params"]),
        from_doc(EngineFuelMap, doc["engine_map"], FUEL_MAP_KEYS),
        from_doc(GearShiftMaps, doc["shifting"], SHIFT_MAPS_KEYS),
        from_doc(ControlParams, doc["control"], CONTROL_KEYS, optional={"launch_correction"}))


def load_vehicle(path) -> ReferenceVehicle:
    """Read a vehicle JSON; a missing key or an invalid value is a ParseError."""
    return read_json(path, vehicle_from_dict)


def save_vehicle(vehicle: ReferenceVehicle, path) -> None:
    write_json(path, vehicle_to_dict(vehicle))
