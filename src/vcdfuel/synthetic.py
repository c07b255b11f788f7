"""Built-in synthetic vehicle and drive cycles, plus a dyno log generator.

Official drive schedules are copyrighted, so the repo ships short synthetic
cycles instead: a highway-style cruise, a stop-and-go urban pattern, and an
aggressive high-acceleration profile. The default vehicle is a midsize-SUV
class configuration with an affine-power engine map. The dyno log
generator replays the reference simulator and corrupts its channels the
way a real rig does (1 km/h speed quantization, output-shaft rpm noise,
engine warm-up), which gives the ingestion pipeline something honest to
chew on.
"""

from __future__ import annotations

import numpy as np

from .drive_cycles import DriveCycle
from .dyno import HOT_THRESHOLD_C, DynoLog
from .errors import InvalidArgument
from .powertrain import (
    ControlParams,
    EngineFuelMap,
    GearShiftMaps,
    ReferenceVehicle,
    VehicleParams,
    simulate,
)
from .trace import RADPS_TO_RPM

# regression slope of the synthetic rig's speed channel, km/h per rpm
DYNO_SLOPE_KPH_PER_RPM = 0.0398
DYNO_SEED = 2024
DYNO_SAMPLE_RATE_HZ = 10.0
DYNO_RPM_NOISE = 3.0      # rpm, Gaussian jitter of the output shaft channel
DYNO_SPIKE_RATE = 0.002   # share of samples hit by a glitch spike
DYNO_SPIKE_RPM = 2200.0   # rpm, typical glitch magnitude
DYNO_WARMUP = True
# water temperature: start and settled value, and when it crosses the hot threshold [s]
COLD_TEMP_C, HOT_TEMP_C, HOT_CROSS_S = 20.0, 92.0, 200.0


def default_vehicle() -> ReferenceVehicle:
    """Midsize-SUV class reference configuration."""
    params = VehicleParams(
        mass=1800.0,
        gear_masses=[2105.0, 1930.0, 1867.0, 1838.0, 1824.0, 1816.0],
        tire_radius=0.35,
        final_drive=3.46,
        gear_ratios=[4.0, 2.6, 1.8, 1.35, 1.0, 0.75],
        road_load_a=120.0,
        road_load_b=3.5,
        road_load_c=0.50,
        engine_speed_idle=75.0,
        engine_speed_max=600.0,
        driveline_eff=0.92,
    )
    fuel_map = EngineFuelMap.from_affine_power(
        speed_grid=np.arange(40.0, 680.0, 40.0),
        torque_grid=np.arange(-80.0, 320.0, 20.0),
        power_gain=2.45,
        friction_torque=30.0,
        accessory_power=600.0,
    )
    shift_maps = GearShiftMaps(
        upshift_speeds=[4.5, 8.0, 12.5, 17.5, 22.0],
        downshift_speeds=[3.7, 7.2, 11.7, 16.7, 21.2],
        pedal_gain=0.004,
        torque_curve_speed=[40.0, 75.0, 150.0, 250.0, 350.0, 450.0, 550.0, 640.0],
        torque_curve=[95.0, 150.0, 210.0, 255.0, 270.0, 262.0, 235.0, 205.0],
    )
    control = ControlParams(
        idle_fuel_gps=0.15,
        idle_torque_nm=3.0,
        fuel_cut_speed=6.0,
        fuel_cut_force=-25.0,
    )
    return ReferenceVehicle(params, fuel_map, shift_maps, control)


def _cycle(name: str, segments) -> DriveCycle:
    """Build a cycle from (duration s, end speed m/s) segments starting at rest."""
    t, v = [0.0], [0.0]
    for duration, v_end in segments:
        t.append(t[-1] + duration)
        v.append(v_end)
    return DriveCycle(name=name, t=np.array(t), v=np.array(v))


def cruise_cycle() -> DriveCycle:
    """Highway-style profile: one launch, long gentle cruise, eased coast-down.

    The closing coast eases off gradually so the wheel-force distribution of
    the fuel-cut steps fills in toward the cut threshold instead of jumping
    straight past it.
    """
    return _cycle("cruise", [
        (5, 0.0), (35, 24.0), (50, 26.0), (40, 24.5), (45, 26.5), (35, 25.0),
        (40, 26.3), (25, 21.0), (30, 25.5), (25, 26.0),
        (14, 22.5), (16, 18.5), (12, 13.0), (10, 8.0), (8, 6.5), (8, 3.0),
        (6, 0.0), (10, 0.0),
    ])


def urban_cycle() -> DriveCycle:
    """Stop-and-go pattern with frequent idling and low-gear work."""
    return _cycle("urban", [
        (5, 0.0), (8, 9.0), (10, 9.0), (8, 0.0), (5, 0.0),
        (12, 13.5), (15, 13.5), (10, 0.0), (6, 0.0),
        (14, 19.0), (20, 19.0), (10, 5.0), (10, 15.0), (12, 0.0), (8, 0.0),
        (16, 21.0), (18, 21.0), (14, 16.5), (12, 0.0), (6, 0.0),
    ])


def aggressive_cycle() -> DriveCycle:
    """High-acceleration profile: hard tapered launches and hard braking.

    Launch acceleration tapers with speed the way a power-limited vehicle
    does, instead of holding a constant pull into the torque envelope.
    """
    return _cycle("aggressive", [
        (4, 0.0), (5, 13.0), (5, 21.0), (7, 27.0), (9, 31.0), (6, 33.0),
        (12, 10.0), (6, 20.0), (6, 25.5), (8, 29.0), (16, 0.0), (5, 0.0),
        (6, 14.0), (5, 18.5), (10, 0.0), (5, 0.0),
    ])


def builtin_cycles() -> dict[str, DriveCycle]:
    return {c.name: c for c in (cruise_cycle(), urban_cycle(), aggressive_cycle())}


def make_dyno_log(cycle: DriveCycle, vehicle: ReferenceVehicle, seed: int = DYNO_SEED,
                  sample_rate_hz: float = DYNO_SAMPLE_RATE_HZ,
                  rpm_noise: float = DYNO_RPM_NOISE, spike_rate: float = DYNO_SPIKE_RATE,
                  spike_rpm: float = DYNO_SPIKE_RPM, warmup: bool = DYNO_WARMUP) -> DynoLog:
    """Synthetic rig recording of the reference vehicle driving a cycle.

    The speed channel is quantized to 1 km/h; the output shaft channel is
    built so that slope * rpm reproduces speed in km/h exactly, then
    corrupted the way rig channels actually misbehave: small Gaussian
    jitter everywhere plus occasional dropout/glitch spikes of roughly
    ``spike_rpm`` magnitude, which is what makes the naively differentiated
    speed exceed 100 m/s2. Water temperature follows a first-order warm-up
    crossing the hot threshold near ``HOT_CROSS_S``.
    """
    if not sample_rate_hz > 0:
        raise InvalidArgument(f"dyno sample rate must be positive, got {sample_rate_hz} Hz")
    if not rpm_noise >= 0:
        raise InvalidArgument(f"dyno rpm noise must be nonnegative, got {rpm_noise} rpm")
    if seed < 0:
        raise InvalidArgument(f"dyno seed must be nonnegative, got {seed}")
    if not 0.0 <= spike_rate <= 1.0:
        raise InvalidArgument(f"dyno spike rate must be in [0, 1], got {spike_rate}")
    rng = np.random.default_rng(seed)
    trace = simulate(cycle, vehicle, grade=0.0, dt=1.0 / sample_rate_hz)
    v_kph = trace.v * 3.6
    shaft_rpm = v_kph / DYNO_SLOPE_KPH_PER_RPM + rng.normal(0.0, rpm_noise, size=trace.t.size)
    spikes = rng.random(trace.t.size) < spike_rate
    shaft_rpm[spikes] += (rng.choice([-1.0, 1.0], size=int(spikes.sum()))
                          * spike_rpm * rng.uniform(0.8, 1.2, size=int(spikes.sum())))
    if warmup:
        tau = HOT_CROSS_S / np.log((HOT_TEMP_C - COLD_TEMP_C) / (HOT_TEMP_C - HOT_THRESHOLD_C))
        temp = HOT_TEMP_C - (HOT_TEMP_C - COLD_TEMP_C) * np.exp(-trace.t / tau)
    else:
        temp = np.full(trace.t.size, HOT_TEMP_C)
    return DynoLog(
        name=f"{cycle.name}_dyno",
        t=trace.t,
        v_kph=np.round(v_kph),
        engine_rpm=trace.engine_speed * RADPS_TO_RPM,
        engine_torque_nm=trace.engine_torque,
        pedal_pct=trace.pedal,
        fuel_gps=trace.fuel,
        water_temp_c=temp,
        gear=trace.gear,
        trans_out_rpm=shaft_rpm,
    )


def packaged_data_dir():
    """Directory of the shipped vehicle JSON and cycle CSVs."""
    from importlib.resources import files

    return files("vcdfuel").joinpath("data")


def write_builtin_data(out_dir) -> None:
    """Regenerate the packaged vehicle JSON and cycle CSVs."""
    from pathlib import Path

    from .drive_cycles import save_cycle
    from .powertrain import save_vehicle

    out = Path(out_dir)
    (out / "cycles").mkdir(parents=True, exist_ok=True)
    save_vehicle(default_vehicle(), out / "vehicle_midsuv.json")
    for cyc in builtin_cycles().values():
        save_cycle(cyc, out / "cycles" / f"{cyc.name}.csv")


if __name__ == "__main__":  # pragma: no cover
    import sys

    write_builtin_data(sys.argv[1] if len(sys.argv) > 1 else "src/vcdfuel/data")
