"""Built-in synthetic vehicle and drive cycles, plus a dyno log generator.

Official drive schedules are copyrighted, so the repo ships short synthetic
cycles instead: a highway-style cruise, a stop-and-go urban pattern, and an
aggressive high-acceleration profile. The default vehicle is a midsize-SUV
class configuration with an affine-power engine map. Both are the package
data files (``data/vehicle_midsuv.json``, ``data/cycles/*.csv``), read by
the same loaders as a configured vehicle or cycle. The dyno log
generator replays the reference simulator and corrupts its channels the
way a real rig does (1 km/h speed quantization, output-shaft rpm noise,
engine warm-up), which gives the ingestion pipeline something honest to
chew on.
"""

from __future__ import annotations

from importlib.resources import files

import numpy as np

from .drive_cycles import DriveCycle, load_cycle
from .dyno import HOT_THRESHOLD_C, RIG_CHANNELS, DynoLog
from .errors import InvalidArgument
from .powertrain import ReferenceVehicle, load_vehicle, simulate

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
# the shipped cycles, data/cycles/<name>.csv, in the order the pipeline runs them
BUILTIN_CYCLES = ("cruise", "urban", "aggressive")


def packaged_data_dir():
    """Directory of the shipped vehicle JSON and cycle CSVs."""
    return files("vcdfuel").joinpath("data")


def default_vehicle() -> ReferenceVehicle:
    """Midsize-SUV class reference configuration."""
    return load_vehicle(packaged_data_dir() / "vehicle_midsuv.json")


def builtin_cycle(name: str) -> DriveCycle:
    """The shipped cycle ``name``, one of ``BUILTIN_CYCLES``."""
    return load_cycle(packaged_data_dir() / "cycles" / f"{name}.csv")


def cruise_cycle() -> DriveCycle:
    """Highway-style profile: one launch, long gentle cruise, eased coast-down.

    The closing coast eases off gradually so the wheel-force distribution of
    the fuel-cut steps fills in toward the cut threshold instead of jumping
    straight past it.
    """
    return builtin_cycle("cruise")


def builtin_cycles() -> dict[str, DriveCycle]:
    return {name: builtin_cycle(name) for name in BUILTIN_CYCLES}


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
        water_temp_c=temp,
        trans_out_rpm=shaft_rpm,
        **{ch: getattr(trace, col) * unit for col, (ch, unit) in RIG_CHANNELS.items()},
    )
