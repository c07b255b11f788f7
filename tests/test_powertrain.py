from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcdfuel.drive_cycles import DriveCycle, resample
from vcdfuel.errors import InvalidArgument
from vcdfuel.powertrain import (
    GRAVITY,
    STANDSTILL_SPEED,
    ControlParams,
    EngineFuelMap,
    GearShiftMaps,
    invert_driveline,
    launch_torque,
    load_vehicle,
    max_wheel_torque_by_gear,
    road_load,
    save_vehicle,
    simulate,
    transmission_output_speed,
    vehicle_from_dict,
    vehicle_to_dict,
    wheel_force,
)
from vcdfuel.synthetic import builtin_cycles, cruise_cycle
from vcdfuel.trace import FLAG_ENVELOPE, Trace


@pytest.fixture(scope="module")
def params(vehicle):
    return vehicle.params


def make_params(**overrides):
    base = dict(mass=1800.0, gear_masses=[1600.0, 1500.0], tire_radius=0.35,
                final_drive=3.0, gear_ratios=[4.0, 2.0], road_load_a=100.0,
                road_load_b=1.0, road_load_c=0.4, engine_speed_idle=75.0,
                engine_speed_max=600.0)
    base.update(overrides)
    from vcdfuel.powertrain import VehicleParams
    return VehicleParams(**base)


class TestRoadLoad:
    def test_standstill_is_constant_term(self):
        p = make_params()
        assert road_load(p, 0.0) == 100.0

    def test_hand_value(self):
        # 100 + 1*10 + 0.4*100 = 150
        p = make_params()
        assert road_load(p, 10.0) == pytest.approx(150.0)

    def test_monotone_in_speed(self, params):
        v = np.linspace(0, 60, 500)
        rl = road_load(params, v)
        assert np.all(np.diff(rl) > 0)

    def test_negative_speed_clamps_with_warning(self):
        p = make_params()
        with pytest.warns(UserWarning):
            assert road_load(p, -3.0) == 100.0


class TestWheelForce:
    def test_statics_equals_road_load(self, params):
        v = 12.0
        assert wheel_force(params, v, 0.0, 0.0, 3) == pytest.approx(float(road_load(params, v)))

    def test_inertia_term(self):
        p = make_params()
        # gear 1 mass 1600 at a=1 on flat standstill: 1600 + constant road load
        assert wheel_force(p, 0.0, 1.0, 0.0, 1) == pytest.approx(1600.0 + 100.0)

    def test_grade_antisymmetry(self, params):
        grade = 0.08
        up = wheel_force(params, 15.0, 0.5, grade, 4)
        down = wheel_force(params, 15.0, 0.5, -grade, 4)
        assert up - down == pytest.approx(2 * params.mass * GRAVITY * np.sin(grade))

    def test_gear_out_of_range(self, params):
        top = params.n_gears
        with pytest.raises(InvalidArgument, match=rf"^gear \[0\] outside \[1, {top}\]$"):
            wheel_force(params, 10.0, 0.0, 0.0, 0)
        with pytest.raises(InvalidArgument, match=rf"^gear \[{top + 1}\] outside \[1, {top}\]$"):
            wheel_force(params, 10.0, 0.0, 0.0, top + 1)
        # a gear array: the message names the bad values, not the array
        gears = np.array([1, 0, 2, params.n_gears + 1, 0])
        with pytest.raises(InvalidArgument,
                           match=rf"^gear \[0, {params.n_gears + 1}\] outside \[1, "):
            wheel_force(params, np.full(5, 10.0), 0.0, 0.0, gears)


class TestOutputSpeed:
    def test_zero(self, params):
        assert transmission_output_speed(params, 0.0) == 0.0

    def test_hand_value(self):
        p = make_params(final_drive=3.0, tire_radius=0.35)
        # 10 * 3 / 0.35
        assert transmission_output_speed(p, 10.0) == pytest.approx(85.7142857, abs=1e-6)

    def test_linearity(self, params):
        v = np.array([3.0, 11.0, 27.0])
        assert np.allclose(transmission_output_speed(params, 2 * v),
                           2 * transmission_output_speed(params, v))


class TestInvertDriveline:
    def test_undoes_peak_wheel_torque(self, vehicle):
        # max_wheel_torque_by_gear runs the driveline forward from the torque curve
        p, maps = vehicle.params, vehicle.shift_maps
        v = np.array([2.0, 8.0, 15.0])
        t_gear = max_wheel_torque_by_gear(p, maps, v)
        for k in range(1, p.n_gears + 1):
            n = np.maximum(transmission_output_speed(p, v) * p.gear_ratios[k - 1],
                           p.engine_speed_idle)
            ok = n <= p.engine_speed_max
            force = t_gear[k - 1] / p.tire_radius
            assert np.allclose(invert_driveline(p, force, k)[ok],
                               maps.max_engine_torque(n)[ok], rtol=1e-12)

    def test_gear_array_matches_scalar_gears(self, params):
        force = np.array([500.0, -200.0, 1500.0])
        gears = np.array([1, 3, params.n_gears])
        expected = [invert_driveline(params, f, g) for f, g in zip(force, gears)]
        assert np.array_equal(invert_driveline(params, force, gears), expected)


def gears_on(vehicle, speeds):
    """Gear column of ``simulate`` on a cycle that holds ``speeds`` at t = 0,
    1, 2, ... s, run on a 1 s grid so that each step sees one exact speed."""
    cycle = DriveCycle("steps", np.arange(len(speeds), dtype=float), speeds)
    return simulate(cycle, vehicle, dt=1.0).gear.tolist()


class TestShiftSchedule:
    """The shift rule inside ``simulate``; with pedal gain 0 the thresholds
    are the table entries themselves (upshift 4.5, 8, 12.5, ..., downshift
    3.7, 7.2, 11.7, ... m/s)."""

    @pytest.fixture(scope="class")
    def flat(self, vehicle):
        return replace(vehicle, shift_maps=replace(vehicle.shift_maps, pedal_gain=0.0))

    def test_hold_inside_band(self, flat):
        # third gear's band is (7.2, 12.5) m/s
        assert gears_on(flat, [0.0, 5.0, 9.0, 10.0, 7.5, 12.0]) == [1, 2, 3, 3, 3, 3]

    def test_upshift_just_above_threshold(self, flat):
        assert gears_on(flat, [0.0, 5.0, np.nextafter(8.0, np.inf)]) == [1, 2, 3]

    def test_exact_threshold_holds(self, flat):
        assert gears_on(flat, [0.0, 5.0, 8.0, 3.7]) == [1, 2, 2, 2]

    def test_top_gear_saturates(self, flat):
        assert gears_on(flat, [0.0, 5.0, 9.0, 13.0, 18.0, 23.0, 40.0, 60.0]) == \
            [1, 2, 3, 4, 5, 6, 6, 6]

    def test_first_gear_floor(self, flat):
        assert gears_on(flat, [0.0, 0.5, 4.5, 0.5]) == [1, 1, 1, 1]

    def test_downshift_below_threshold(self, flat):
        # fourth gear drops back below 11.7 m/s
        below = np.nextafter(11.7, -np.inf)
        assert gears_on(flat, [0.0, 5.0, 9.0, 13.0, 11.7, below]) == [1, 2, 3, 4, 4, 3]

    def test_at_most_one_shift(self, flat):
        # speed far above every threshold still moves up a single gear a step
        assert gears_on(flat, [0.0, 50.0, 50.0]) == [1, 2, 3]


class TestSimulate:
    def test_idle_cycle(self, vehicle):
        cycle = DriveCycle("idle", [0, 30], [0.0, 0.0])
        trace = simulate(cycle, vehicle)
        assert np.all(trace.fuel == vehicle.control.idle_fuel_gps)
        assert np.all(trace.gear == 1)
        assert np.all(trace.engine_speed == vehicle.params.engine_speed_idle)

    def test_cumulative_fuel_nonnegative_nondecreasing(self, vehicle):
        trace = simulate(cruise_cycle(), vehicle)
        assert np.all(trace.fuel >= 0)
        cumulative = np.cumsum(trace.fuel)
        assert np.all(np.diff(cumulative) >= 0)

    def test_power_balance_at_steady_cruise(self, vehicle):
        # long flat 20 m/s cruise; oracle: wheel power == road-load power
        cycle = DriveCycle("steady", [0, 40, 240], [0.0, 20.0, 20.0])
        trace = simulate(cycle, vehicle)
        steady = (np.abs(trace.a) < 1e-3) & (trace.t > 60)
        assert steady.sum() > 100
        p = vehicle.params
        wheel_power = (trace.engine_torque[steady] * trace.engine_speed[steady]
                       * p.driveline_eff)
        road_power = road_load(p, trace.v[steady]) * trace.v[steady]
        assert np.all(np.abs(wheel_power - road_power) / road_power < 0.01)

    def test_fuel_cut_exact_zero_and_idle_exact(self, vehicle, dataset):
        for trace in dataset.traces:
            idle = trace.v < STANDSTILL_SPEED
            assert np.all(trace.fuel[idle] == vehicle.control.idle_fuel_gps)
            moving = ~idle
            cut = moving & (trace.fuel == 0.0)
            # cut requires the configured conditions
            p = vehicle.params
            force = np.empty(len(trace))
            for k in range(1, p.n_gears + 1):
                m = trace.gear == k
                force[m] = wheel_force(p, trace.v[m], trace.a[m], trace.grade[m], k)
            assert np.all(trace.v[cut] > vehicle.control.fuel_cut_speed)
            assert np.all(force[cut] < vehicle.control.fuel_cut_force)

    def test_gear_never_jumps_more_than_one(self, dataset):
        for trace in dataset.traces:
            assert np.max(np.abs(np.diff(trace.gear))) <= 1

    def test_trace_invariants(self, vehicle, dataset):
        p = vehicle.params
        for trace in dataset.traces:
            assert np.all(np.diff(trace.t) > 0)
            assert np.all((trace.gear >= 1) & (trace.gear <= p.n_gears))
            assert np.all(trace.engine_speed <= p.engine_speed_max)
            assert np.all(trace.engine_speed >= 0)
            assert np.all((trace.pedal >= 0) & (trace.pedal <= 100))

    def test_deterministic(self, vehicle):
        cycle = cruise_cycle()
        a = simulate(cycle, vehicle)
        b = simulate(cycle, vehicle)
        for col in ("v", "a", "gear", "engine_speed", "engine_torque", "pedal", "fuel", "flags"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_envelope_clamp_flagged(self, vehicle):
        # absurd demanded acceleration must hit the torque curve
        cycle = DriveCycle("wot", [0, 8, 20], [0.0, 32.0, 32.0])
        trace = simulate(cycle, vehicle)
        capped = (trace.flags & FLAG_ENVELOPE) != 0
        assert capped.any()
        t_max = vehicle.shift_maps.max_engine_torque(trace.engine_speed[capped])
        assert np.allclose(trace.engine_torque[capped], t_max)

    def test_grade_increases_fuel(self, vehicle):
        cycle = DriveCycle("steady", [0, 30, 120], [0.0, 18.0, 18.0])
        flat = simulate(cycle, vehicle, grade=0.0)
        climb = simulate(cycle, vehicle, grade=0.05)
        steady = (np.abs(flat.a) < 1e-3) & (flat.t > 40)
        assert climb.fuel[steady].mean() > flat.fuel[steady].mean()


def loop_simulate(cycle, vehicle, grade=0.0, dt=0.1):
    """The simulator as a plain per-step loop: the reference the vectorized
    `simulate` must match bit for bit."""
    p = vehicle.params
    ctl = vehicle.control
    maps = vehicle.shift_maps
    grid = resample(cycle, dt)
    t, v = grid.t, grid.v
    n_steps = t.size
    a = np.gradient(v, t)
    theta = grade(t) if callable(grade) else np.full(n_steps, float(grade))

    gear = np.ones(n_steps, dtype=int)
    engine_speed = np.zeros(n_steps)
    engine_torque = np.zeros(n_steps)
    pedal = np.zeros(n_steps)
    fuel = np.zeros(n_steps)
    flags = np.zeros(n_steps, dtype=int)

    t_wmax = np.max(max_wheel_torque_by_gear(p, maps, v), axis=0)
    prev_gear = 1
    prev_pedal = 0.0
    for i in range(n_steps):
        if v[i] < STANDSTILL_SPEED:
            gear[i] = 1
            engine_speed[i] = p.engine_speed_idle
            engine_torque[i] = ctl.idle_torque_nm
            fuel[i] = ctl.idle_fuel_gps
            pedal[i] = 0.0
            prev_gear, prev_pedal = 1, 0.0
            continue

        # one shift at most, strict inequalities on both thresholds
        k = prev_gear
        scale = 1.0 + maps.pedal_gain * prev_pedal
        if k < p.n_gears and v[i] > maps.upshift_speeds[k - 1] * scale:
            k += 1
        elif k > 1 and v[i] < maps.downshift_speeds[k - 2] * scale:
            k -= 1
        gear[i] = k

        force = wheel_force(p, v[i], a[i], theta[i], k)
        ratio = p.final_drive * p.gear_ratios[k - 1]
        n_eng = float(np.clip(transmission_output_speed(p, v[i]) * p.gear_ratios[k - 1],
                              p.engine_speed_idle, p.engine_speed_max))
        torque = force * p.tire_radius / (ratio * p.driveline_eff)
        if k == 1:
            torque += float(launch_torque(ctl.launch_correction, a[i]))
        t_cap = float(maps.max_engine_torque(n_eng))
        if torque > t_cap:
            torque = t_cap
            flags[i] |= FLAG_ENVELOPE

        engine_speed[i] = n_eng
        engine_torque[i] = torque
        pedal[i] = float(np.clip(100.0 * force * p.tire_radius / t_wmax[i], 0.0, 100.0)) \
            if t_wmax[i] > 0 else 0.0

        if v[i] > ctl.fuel_cut_speed and force < ctl.fuel_cut_force:
            fuel[i] = 0.0
        else:
            fuel[i] = max(0.0, vehicle.fuel_map.interpolate(n_eng, torque))

        prev_gear, prev_pedal = k, pedal[i]

    return Trace(name=cycle.name, t=t, v=v, a=a, grade=theta, gear=gear,
                 engine_speed=engine_speed, engine_torque=engine_torque,
                 pedal=pedal, fuel=fuel, flags=flags)


TRACE_COLUMNS = ("t", "v", "a", "grade", "gear", "engine_speed", "engine_torque", "pedal",
                 "fuel", "flags")


def rolling_grade(t):
    return 0.04 * np.sin(t / 50)


class TestLoopOracle:
    @pytest.mark.parametrize("launch", [(), ((0, 0), (1, 15), (3, 40))],
                             ids=["no-launch", "launch"])
    @pytest.mark.parametrize("grade", [0.0, -0.05, 0.08, rolling_grade],
                             ids=["flat", "down", "up", "rolling"])
    @pytest.mark.parametrize("dt", [0.1, 0.05])
    @pytest.mark.parametrize("name", ["cruise", "urban", "aggressive"])
    def test_bit_identical(self, vehicle, name, dt, grade, launch):
        vehicle = replace(vehicle, control=replace(vehicle.control, launch_correction=launch))
        cycle = builtin_cycles()[name]
        got = simulate(cycle, vehicle, grade=grade, dt=dt)
        expected = loop_simulate(cycle, vehicle, grade=grade, dt=dt)
        for col in TRACE_COLUMNS:
            a, b = getattr(got, col), getattr(expected, col)
            assert a.dtype == b.dtype, col
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), col
        if (name, grade) == ("aggressive", 0.08):
            # the torque envelope is part of what is compared
            assert np.count_nonzero(got.flags & FLAG_ENVELOPE) > 100


def _cycle(name: str, segments) -> DriveCycle:
    """Build a cycle from (duration s, end speed m/s) segments starting at rest."""
    t, v = [0.0], [0.0]
    for duration, v_end in segments:
        t.append(t[-1] + duration)
        v.append(v_end)
    return DriveCycle(name=name, t=np.array(t), v=np.array(v))


# cycles as (duration s, end speed m/s) segments from rest, stops included
segments = st.lists(st.tuples(st.floats(0.5, 40.0),
                              st.one_of(st.just(0.0), st.floats(0.0, 45.0))),
                    min_size=1, max_size=12)


@st.composite
def shift_tables(draw):
    """Upshift and downshift speeds of a six-gear box, both ascending with a
    nonempty band per gear change, and a pedal gain above -0.01."""
    steps = np.array(draw(st.lists(st.floats(0.5, 10.0), min_size=5, max_size=5)))
    band = draw(st.floats(0.05, 0.95))
    up = np.cumsum(steps)
    return up, up - band * steps, draw(st.floats(-0.0099, 0.05))


class TestSimulateProperties:
    @given(segments, shift_tables(), st.sampled_from([0.5, 1.0]))
    @settings(max_examples=50)
    def test_gears_match_reference_loop(self, vehicle, segs, tables, dt):
        up, down, gain = tables
        vehicle = replace(vehicle, shift_maps=replace(
            vehicle.shift_maps, upshift_speeds=up, downshift_speeds=down, pedal_gain=gain))
        cycle = _cycle("random", segs)
        assert np.array_equal(simulate(cycle, vehicle, dt=dt).gear,
                              loop_simulate(cycle, vehicle, dt=dt).gear)

    @given(segments, st.floats(-0.1, 0.1), st.sampled_from([0.05, 0.1, 0.5]))
    # a stop from top gear within one step, then a launch
    @example([(20.0, 30.0), (0.5, 0.0), (5.0, 0.0), (10.0, 15.0)], 0.0, 0.5)
    def test_invariants(self, vehicle, segs, grade, dt):
        p, ctl = vehicle.params, vehicle.control
        trace = simulate(_cycle("random", segs), vehicle, grade=grade, dt=dt)
        stopped = trace.v < STANDSTILL_SPEED
        assert np.all((trace.gear >= 1) & (trace.gear <= p.n_gears))
        # one shift at most per moving step; a launch starts from first gear
        assert np.all(np.abs(np.diff(trace.gear))[~stopped[1:]] <= 1)
        assert np.all(trace.gear[stopped] == 1)
        assert np.all(trace.engine_speed[stopped] == p.engine_speed_idle)
        assert np.all(trace.engine_torque[stopped] == ctl.idle_torque_nm)
        assert np.all(trace.fuel[stopped] == ctl.idle_fuel_gps)
        assert np.all(np.isfinite(trace.fuel)) and np.all(trace.fuel >= 0)
        cap = vehicle.shift_maps.max_engine_torque(trace.engine_speed)
        capped = (trace.flags & FLAG_ENVELOPE) != 0
        assert np.array_equal(capped, trace.engine_torque == cap)
        assert np.all(trace.engine_torque[~stopped] <= cap[~stopped])


class TestVehicleJson:
    def test_round_trip(self, vehicle, tmp_path):
        from vcdfuel.powertrain import params_to_dict
        save_vehicle(vehicle, tmp_path / "veh.json")
        back = load_vehicle(tmp_path / "veh.json")
        assert params_to_dict(back.params) == params_to_dict(vehicle.params)
        assert np.array_equal(back.fuel_map.fuel, vehicle.fuel_map.fuel)
        assert np.array_equal(back.shift_maps.upshift_speeds, vehicle.shift_maps.upshift_speeds)
        assert back.control == vehicle.control

    @pytest.mark.parametrize("idle_fuel", [0.0, -0.1])
    def test_idle_fuel_must_be_positive(self, idle_fuel):
        with pytest.raises(ValueError, match="idle_fuel_gps must be positive"):
            ControlParams(idle_fuel_gps=idle_fuel)

    def test_dict_round_trip_is_stable(self, vehicle):
        doc = vehicle_to_dict(vehicle)
        again = vehicle_to_dict(vehicle_from_dict(doc))
        assert doc == again


class TestFuelMap:
    def test_monotone_in_torque(self, vehicle):
        fm = vehicle.fuel_map
        assert np.all(np.diff(fm.fuel, axis=1) >= 0)

    def test_bilinear_matches_generator_inside_cells(self, vehicle):
        # the generating surface is bilinear in (N, T) wherever the floor
        # is inactive, so interpolation must reproduce it exactly
        fm = vehicle.fuel_map
        rng = np.random.default_rng(3)
        n = rng.uniform(100, 600, 200)
        t = rng.uniform(40, 280, 200)
        expected = (2.45 * n * t + 30.0 * n + 600.0) / 43500.0
        inside = expected > 0.2  # comfortably above the tabulation floor
        got = fm.interpolate(n[inside], t[inside])
        assert np.allclose(got, expected[inside], rtol=1e-12)

    def test_rejects_negative_fuel(self):
        from vcdfuel.powertrain import EngineFuelMap
        with pytest.raises(ValueError):
            EngineFuelMap([1.0, 2.0], [0.0, 1.0], [[0.1, 0.2], [-0.1, 0.3]])

    def test_rejects_nonmonotone_torque_axis(self):
        from vcdfuel.powertrain import EngineFuelMap
        with pytest.raises(ValueError):
            EngineFuelMap([1.0, 2.0], [0.0, 1.0], [[0.3, 0.2], [0.3, 0.4]])


def raised_message(build) -> str:
    """The message of the InvalidArgument ``build()`` raises, checked to be a ValueError."""
    with pytest.raises(InvalidArgument) as info:
        build()
    assert isinstance(info.value, ValueError)
    return str(info.value)


def make_shift_maps(**overrides):
    base = dict(upshift_speeds=[4.5, 8.0], downshift_speeds=[3.0, 6.0], pedal_gain=0.01,
                torque_curve_speed=[100.0, 300.0], torque_curve=[200.0, 250.0])
    base.update(overrides)
    return GearShiftMaps(**base)


class TestConstructorsNameTheValue:
    @pytest.mark.parametrize("overrides, message", [
        ({"gear_masses": [1600.0]},
         "gear_masses and gear_ratios must have the same length, got 1 and 2"),
        ({"mass": -1.0}, "masses must be positive, got mass -1.0"),
        ({"gear_masses": [1600.0, 0.0]}, "masses must be positive, got gear_masses [1600.0, 0.0]"),
        ({"tire_radius": 0.0}, "tire_radius and final_drive must be positive, got 0.0 and 3.0"),
        ({"gear_ratios": [2.0, 4.0]}, "gear_ratios must be strictly decreasing, got [2.0, 4.0]"),
        ({"gear_ratios": [4.0, 0.0]}, "gear_ratios must be positive, got [4.0, 0.0]"),
        ({"engine_speed_idle": 700.0}, "need engine_speed_max > engine_speed_idle > 0, "
                                       "got max 600.0, idle 700.0"),
        ({"driveline_eff": 1.5}, "driveline_eff must be in (0, 1], got 1.5"),
    ], ids=["lengths", "mass", "gear-mass", "tire-radius", "ratios", "zero-ratio",
            "engine-speeds", "efficiency"])
    def test_vehicle_params(self, overrides, message):
        assert raised_message(lambda: make_params(**overrides)) == message

    @pytest.mark.parametrize("speeds, torques, fuel, message", [
        ([1.0, 1.0], [0.0, 1.0], [[0.1, 0.2], [0.1, 0.2]],
         "fuel map grids must be strictly ascending, got speed_grid [1.0, 1.0]"),
        ([1.0, 2.0], [0.0, -1.0], [[0.1, 0.2], [0.1, 0.2]],
         "fuel map grids must be strictly ascending, got torque_grid [0.0, -1.0]"),
        ([1.0, 2.0], [0.0, 1.0], [[0.1, 0.2]],
         "fuel table shape does not match grids, got (1, 2) for 2 x 2 grids"),
        ([1.0, 2.0], [0.0, 1.0], [[0.1, 0.2], [-0.1, 0.3]],
         "fuel map must be nonnegative, got -0.1"),
        ([1.0, 2.0], [0.0, 1.0], [[0.25, 0.0], [0.3, 0.4]],
         "fuel map must be non-decreasing in torque at fixed speed, got a step of -0.25"),
    ], ids=["speed-grid", "torque-grid", "shape", "negative", "falls-with-torque"])
    def test_engine_fuel_map(self, speeds, torques, fuel, message):
        assert raised_message(lambda: EngineFuelMap(speeds, torques, fuel)) == message

    @pytest.mark.parametrize("overrides, message", [
        ({"downshift_speeds": [3.0]},
         "upshift and downshift tables must have the same length, got 2 and 1"),
        ({"downshift_speeds": [3.0, 8.0]},
         "hysteresis band empty: need downshift < upshift everywhere, "
         "got downshift_speeds [3.0, 8.0], upshift_speeds [4.5, 8.0]"),
        ({"upshift_speeds": [8.0, 7.0]},
         "upshift_speeds must be ascending, got [8.0, 7.0]"),
        ({"torque_curve_speed": [300.0, 100.0]},
         "torque_curve_speed must be ascending, got [300.0, 100.0]"),
        ({"pedal_gain": -0.05}, "pedal_gain must keep 1 + 100 * pedal_gain positive, got -0.05"),
        ({"pedal_gain": -0.01}, "pedal_gain must keep 1 + 100 * pedal_gain positive, got -0.01"),
        ({"pedal_gain": float("nan")},
         "pedal_gain must keep 1 + 100 * pedal_gain positive, got nan"),
    ], ids=["lengths", "hysteresis", "order", "torque-curve", "flipping-pedal-gain",
            "zero-scale-pedal-gain", "nan-pedal-gain"])
    def test_gear_shift_maps(self, overrides, message):
        assert raised_message(lambda: make_shift_maps(**overrides)) == message

    def test_control_params(self):
        assert raised_message(lambda: ControlParams(idle_fuel_gps=0.0)) == \
            "idle_fuel_gps must be positive, got 0.0"


class TestPowerBalanceInvariant:
    def test_holds_across_all_campaign_traces(self, vehicle, dataset):
        # steady steps (|a| < 1e-3, no shift within +-1 s) must balance
        # wheel power against road-load power on every trace
        p = vehicle.params
        checked = 0
        for trace in dataset.traces:
            dt = float(np.median(np.diff(trace.t)))
            half = int(round(1.0 / dt))
            shift_at = np.nonzero(np.diff(trace.gear) != 0)[0] + 1
            near_shift = np.zeros(len(trace), dtype=bool)
            for i in shift_at:
                near_shift[max(0, i - half):i + half + 1] = True
            steady = (np.abs(trace.a) < 1e-3) & ~near_shift & (trace.v > 1.0)
            if not steady.any():
                continue
            wheel_power = trace.engine_torque[steady] * trace.engine_speed[steady] \
                * p.driveline_eff
            road_power = road_load(p, trace.v[steady]) * trace.v[steady]
            assert np.all(np.abs(wheel_power - road_power) / road_power < 0.01)
            checked += int(steady.sum())
        assert checked > 200


class TestGradeProfiles:
    def test_callable_grade_profile(self, vehicle):
        cycle = DriveCycle("hillclimb", [0, 30, 150], [0.0, 15.0, 15.0])
        profile = lambda t: 0.04 * np.sin(2 * np.pi * t / 60.0)
        trace = simulate(cycle, vehicle, grade=profile)
        assert np.allclose(trace.grade, profile(trace.t))
        flat = simulate(cycle, vehicle, grade=0.0)
        assert not np.allclose(trace.fuel, flat.fuel)

    def test_constant_grade_column(self, vehicle):
        trace = simulate(DriveCycle("c", [0, 20], [5.0, 5.0]), vehicle, grade=0.03)
        assert np.all(trace.grade == 0.03)
