"""Stateless map-based fuel model.

The model combines principled vehicle constants, extracted control
constants, the principled upshift schedule and torque-limit curve, and the
fitted polynomial maps into a pure function (v, a, grade) -> (gear, engine
speed, engine torque, pedal, fuel rate). No state is carried between
evaluations; gear choice is a function of the instantaneous operating
point, which is what makes the model cheap but also produces the known
quick-downshift artifact during decelerations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npoly

from .drive_cycles import DriveCycle
from .errors import InvalidArgument
from .extraction import (
    CONSTANTS_KEYS,
    FUEL_MAP_DEGREE,
    GEAR_MAP_DEGREE,
    MIN_GEAR_SAMPLES,
    ExtractedConstants,
    PolyMap2D,
    VcdDataset,
    extract_downshift_map,
    extract_fuel_cut_thresholds,
    extract_idle_constants,
    extract_torque_correction,
    fit_all_maps,
    run_vcd,
)
from .jsonio import field_value, from_doc, read_json, to_doc
from .powertrain import (
    GRAVITY,
    SHIFT_MAPS_KEYS,
    STANDSTILL_SPEED,
    GearShiftMaps,
    ReferenceVehicle,
    VehicleParams,
    check_shift_tables,
    invert_driveline,
    launch_torque,
    max_wheel_torque_by_gear,
    params_from_dict,
    params_to_dict,
    pedal_position,
    road_load,
    transmission_output_speed,
    wheel_force,
)
from .trace import DT, FLAG_CLAMPED, FLAG_ENVELOPE, FLAG_FLOOR, Trace

ACCEL_LIMITS = (-5.0, 5.0)    # m/s2, defined evaluation domain
GRADE_LIMITS = (-0.15, 0.15)  # rad


@dataclass(frozen=True)
class SemiPrincipledModel:
    """Immutable model object; evaluation is reentrant and thread-safe."""

    params: VehicleParams
    constants: ExtractedConstants
    fuel_map: PolyMap2D
    engine_speed_maps: tuple[PolyMap2D, ...]
    torque_maps: tuple[PolyMap2D, ...]
    shift_maps: GearShiftMaps
    speed_max: float
    metadata: dict = field(default_factory=dict)
    # per map kind (engine speed, torque): bounds[input, value, gear] for
    # inputs x, y and values lo, hi, mean, std, and coeffs_std as [i, j, gear]
    _gear_tables: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.speed_max > 0:
            raise InvalidArgument(f"speed_max must be positive, got {self.speed_max}")
        n = self.params.n_gears
        if len(self.engine_speed_maps) != n or len(self.torque_maps) != n:
            raise InvalidArgument("need one engine-speed and one torque map per gear")
        if self.constants.downshift_cutoffs.shape != (n,):
            raise InvalidArgument(f"need {n} downshift cutoffs for {n} gears, got "
                                  f"{self.constants.downshift_cutoffs.size}")
        check_shift_tables(self.shift_maps, n)
        degrees = sorted(map(list, {m.degree for m in (*self.engine_speed_maps, *self.torque_maps)}))
        if len(degrees) > 1:
            raise InvalidArgument(f"gear maps must share one degree, got {degrees}")
        object.__setattr__(self, "_gear_tables", tuple(
            (np.array([[*m.domain[0], m.x_mean, m.x_std, *m.domain[1], m.y_mean, m.y_std]
                       for m in maps]).T.reshape(2, 4, -1),
             np.stack([m.coeffs_std for m in maps], axis=-1))
            for maps in (self.engine_speed_maps, self.torque_maps)))


def broadcast_inputs(v, a, grade):
    """(v, a, grade) as float arrays of one broadcast shape, at least 1-D; an
    input of that shape is passed through, others are broadcast into copies.
    A NaN entry or shapes that do not broadcast are an InvalidArgument;
    infinities pass, evaluators clamp them."""
    args = [np.asarray(x, dtype=float) for x in (v, a, grade)]
    for name, x in zip(("v", "a", "grade"), args):
        if np.isnan(x).any():
            raise InvalidArgument(f"{name} has {np.count_nonzero(np.isnan(x))} NaN entries")
    try:
        shape = np.broadcast(*args).shape or (1,)
    except ValueError:
        raise InvalidArgument(f"v {args[0].shape}, a {args[1].shape} and grade {args[2].shape} "
                              "do not broadcast together") from None
    return [x if x.shape == shape else np.broadcast_to(x, shape).copy() for x in args]


def select_gear_stateless(model: SemiPrincipledModel, v, pedal):
    """Gear as a pure function of speed and pedal.

    The upshift map proposes a gear; the extracted downshift cutoffs cap it
    (a gear is only allowed at or above its cutoff speed). Ties resolve
    toward the upshift map's choice. ``v`` and ``pedal`` are arrays of at
    least one dimension, as ``evaluate`` passes them.
    """
    k_up = model.shift_maps.gear_from_speed(pedal, v)
    k_down = np.searchsorted(model.constants.downshift_cutoffs, v, side="right")
    return np.clip(np.minimum(k_up, k_down), 1, model.params.n_gears)


def _gear_maps(model: SemiPrincipledModel, idx, x, y, excess):
    """Engine speed and torque from each point's own gear maps (gear index
    ``idx``), bit for bit each map's ``evaluate(x, y)``; raises ``excess`` to
    the largest overshoot of (x, y) beyond either map's box relative to the
    box's span, so it is positive exactly where (x, y) lies outside a box."""
    values = []
    for bounds, coeffs in model._gear_tables:
        uw = []
        for z, (lo, hi, mean, std) in zip((x, y), bounds):
            lo, hi = np.take(lo, idx), np.take(hi, idx)
            beyond = np.maximum(lo - z, z - hi)
            np.maximum(excess, np.maximum(beyond, 0.0) / np.maximum(hi - lo, 1e-9), out=excess)
            uw.append((z.clip(lo, hi) - np.take(mean, idx)) / np.take(std, idx))
        # polyval2d's Horner steps: over u within each w column, then over w
        by_w = npoly.polyval(uw[0], np.take(coeffs, idx, axis=-1), tensor=False)
        values.append(npoly.polyval(uw[1], by_w, tensor=False))
    return values


def evaluate(model: SemiPrincipledModel, v, a, grade=0.0):
    """Vectorized model evaluation.

    Returns a dict of arrays: gear, engine_speed, engine_torque, pedal,
    fuel, flags, and excess, the largest overshoot of the driveline map
    inputs beyond the selected gear's boxes, as a fraction of the box's span
    (zero inside). v, a and grade broadcast together and a NaN is an
    InvalidArgument. Inputs outside the defined domain, inf included, are
    clamped and flagged; map inputs outside the boxes likewise, as trace.FLAG_CLAMPED says.
    """
    p = model.params
    c = model.constants
    v_in, a_in, g_in = broadcast_inputs(v, a, grade)
    v = v_in.clip(0.0, model.speed_max)
    a = a_in.clip(*ACCEL_LIMITS)
    grade = g_in.clip(*GRADE_LIMITS)
    clamped = (v != v_in) | (a != a_in) | (grade != g_in)

    # pedal estimate from demanded wheel torque against the peak-torque curve
    # over all gears
    force_est = p.mass * a + road_load(p, v) + p.mass * GRAVITY * np.sin(grade)
    t_gear = max_wheel_torque_by_gear(p, model.shift_maps, v)
    pedal = pedal_position(p, force_est, np.max(t_gear, axis=0))

    gear = select_gear_stateless(model, v, pedal)
    force = wheel_force(p, v, a, grade, gear)
    # demanded force capped by the gear's peak wheel torque before the maps
    # see it; the raw demand still decides the fuel cut below
    f_cap = np.take_along_axis(t_gear, gear[None] - 1, axis=0)[0] / p.tire_radius
    del t_gear  # one row per gear; free it before the gear maps' temporaries
    excess = np.zeros(v.shape)
    engine_speed, engine_torque = _gear_maps(model, gear - 1, transmission_output_speed(p, v),
                                             np.minimum(force, f_cap), excess)
    engine_torque[gear == 1] += launch_torque(c.launch_correction, a[gear == 1])

    engine_speed = np.clip(engine_speed, p.engine_speed_idle, p.engine_speed_max)
    t_cap = model.shift_maps.max_engine_torque(engine_speed)
    envelope = (force > f_cap) | (engine_torque > t_cap)
    floor = engine_torque < c.torque_floor
    engine_torque = np.clip(engine_torque, c.torque_floor, t_cap)

    fuel = np.maximum(0.0, model.fuel_map.evaluate(engine_speed, engine_torque))
    # the torque floor lies below the fuel map's box: a floored row is not outside it
    outside = (excess > 0) | (model.fuel_map.out_of_domain(engine_speed, engine_torque) & ~floor)
    flags = (clamped | outside) * FLAG_CLAMPED | envelope * FLAG_ENVELOPE | floor * FLAG_FLOOR
    cut = (v > c.cut_speed) & (force < c.cut_force)
    fuel[cut] = 0.0

    idle = v < STANDSTILL_SPEED
    gear[idle] = 1
    engine_speed[idle] = p.engine_speed_idle
    engine_torque[idle] = c.torque_floor
    pedal[idle] = 0.0
    fuel[idle] = c.idle_fuel
    flags[idle] = clamped[idle] * FLAG_CLAMPED  # of a standstill row only its inputs

    return {"gear": gear, "engine_speed": engine_speed, "engine_torque": engine_torque,
            "pedal": pedal, "fuel": fuel, "flags": flags, "excess": excess}


def eval_semi_trace(model: SemiPrincipledModel, t, v, a, grade=0.0, name: str = "semi") -> Trace:
    """Rowwise application over a (t, v, a) profile; no state between rows."""
    v, a, grade = broadcast_inputs(v, a, grade)
    out = evaluate(model, v, a, grade)
    return Trace(name=name, t=np.asarray(t, dtype=float), v=v, a=a, grade=grade,
                 gear=out["gear"], engine_speed=out["engine_speed"],
                 engine_torque=out["engine_torque"], pedal=out["pedal"],
                 fuel=out["fuel"], flags=out["flags"])


# --- assembly ----------------------------------------------------------------

def build_semi_model(vehicle: ReferenceVehicle, cycles: list[DriveCycle], dt: float = DT,
                     fuel_degree=FUEL_MAP_DEGREE, gear_degree=GEAR_MAP_DEGREE,
                     min_gear_samples: int = MIN_GEAR_SAMPLES) -> SemiPrincipledModel:
    """Full extraction pipeline: campaign, constants, correction, maps.

    The first-gear torque correction is identified against the principled
    driveline inversion (a map fitted on first-gear data would absorb any
    systematic open-converter offset and hide it); the first-gear torque
    map is then refit with the correction subtracted so map + correction
    reproduces the reference.
    """
    ds = run_vcd(vehicle, cycles, dt=dt)
    return build_semi_model_from_dataset(ds, vehicle.shift_maps, fuel_degree=fuel_degree,
                                         gear_degree=gear_degree,
                                         min_gear_samples=min_gear_samples, dt=dt)


def build_semi_model_from_dataset(ds: VcdDataset, shift_maps: GearShiftMaps,
                                  fuel_degree=FUEL_MAP_DEGREE, gear_degree=GEAR_MAP_DEGREE,
                                  min_gear_samples: int = MIN_GEAR_SAMPLES,
                                  dt: float | None = None) -> SemiPrincipledModel:
    p = ds.params

    torque_floor, idle_fuel = extract_idle_constants(ds)
    cut_speed, cut_force = extract_fuel_cut_thresholds(ds)
    cutoffs, filled = extract_downshift_map(ds)

    def principled_first_gear_torque(v, a, grade):
        return invert_driveline(p, wheel_force(p, v, a, grade, 1), 1)

    correction = extract_torque_correction(ds, principled_first_gear_torque)
    constants = ExtractedConstants(torque_floor=torque_floor, idle_fuel=idle_fuel,
                                   cut_speed=cut_speed, cut_force=cut_force,
                                   downshift_cutoffs=cutoffs, launch_correction=correction,
                                   interpolated_gears=filled)
    maps = fit_all_maps(ds, fuel_degree=fuel_degree, gear_degree=gear_degree,
                        min_gear_samples=min_gear_samples, min_torque=torque_floor,
                        launch_correction=correction)
    vars(ds).pop("stacked", None)  # the fits above were its only readers; free it
    speed_max = float(max(tr.v.max() for tr in ds.traces))
    metadata = {
        "source_cycles": [tr.name for tr in ds.traces],
        "dt": dt,
    }
    return SemiPrincipledModel(params=p, constants=constants, fuel_map=maps.fuel_map,
                               engine_speed_maps=tuple(maps.engine_speed_maps),
                               torque_maps=tuple(maps.torque_maps), shift_maps=shift_maps,
                               speed_max=speed_max, metadata=metadata)


# --- serialization -----------------------------------------------------------

def model_to_dict(model: SemiPrincipledModel) -> dict:
    return {
        "params": params_to_dict(model.params),
        "constants": to_doc(model.constants, CONSTANTS_KEYS),
        "fuel_map": model.fuel_map.to_dict(),
        "engine_speed_maps": [m.to_dict() for m in model.engine_speed_maps],
        "torque_maps": [m.to_dict() for m in model.torque_maps],
        "shifting": to_doc(model.shift_maps, SHIFT_MAPS_KEYS),
        "speed_max_mps": model.speed_max,
        "metadata": model.metadata,
    }


def model_from_dict(doc: dict) -> SemiPrincipledModel:
    return SemiPrincipledModel(
        params=params_from_dict(doc["params"]),
        constants=from_doc(ExtractedConstants, doc["constants"], CONSTANTS_KEYS,
                           optional={"launch_correction", "interpolated_gears"}),
        fuel_map=PolyMap2D.from_dict(doc["fuel_map"]),
        engine_speed_maps=tuple(map(PolyMap2D.from_dict, doc["engine_speed_maps"])),
        torque_maps=tuple(map(PolyMap2D.from_dict, doc["torque_maps"])),
        shift_maps=from_doc(GearShiftMaps, doc["shifting"], SHIFT_MAPS_KEYS),
        speed_max=field_value(doc, "speed_max_mps"),
        metadata=doc.get("metadata", {}),
    )


def load_semi_model(path) -> SemiPrincipledModel:
    return read_json(path, model_from_dict)
