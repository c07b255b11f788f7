import dataclasses

import numpy as np
import pytest

from vcdfuel import extraction
from vcdfuel.drive_cycles import DriveCycle
from vcdfuel.dyno import process_log
from vcdfuel.errors import InsufficientData, InsufficientGearData, InvalidArgument
from vcdfuel.extraction import (
    LAUNCH_BINS,
    ShiftEvent,
    VcdDataset,
    extract_downshift_map,
    extract_fuel_cut_thresholds,
    extract_idle_constants,
    extract_torque_correction,
    fit_all_maps,
    fit_poly2d,
    percentile,
    run_vcd,
)
from vcdfuel.powertrain import STANDSTILL_SPEED, simulate, wheel_force
from vcdfuel.semi_principled import build_semi_model_from_dataset
from vcdfuel.synthetic import builtin_cycle, cruise_cycle, default_vehicle, make_dyno_log


def percentile_oracle(values, q):
    """Brute-force inclusive linear-interpolated order statistic."""
    xs = sorted(values)
    h = (len(xs) - 1) * q / 100.0
    lo = int(np.floor(h))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


class TestPercentile:
    def test_uniform_1_to_100(self):
        xs = np.arange(1.0, 101.0)
        expected = percentile_oracle(xs, 1.0)
        assert expected == pytest.approx(1.99)
        assert percentile(xs, 1.0) == pytest.approx(expected)

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            xs = rng.normal(0, 5, rng.integers(2, 200))
            q = float(rng.uniform(0, 100))
            assert percentile(xs, q) == pytest.approx(percentile_oracle(xs, q), rel=1e-12)

    def test_constant_sample(self):
        assert percentile(np.full(17, 10.0), 1.0) == 10.0


class TestRunVcd:
    def test_zero_speed_cycle_has_no_events(self, vehicle):
        ds = run_vcd(vehicle, [DriveCycle("z", [0, 20], [0.0, 0.0])])
        assert ds.events == []

    def test_monotone_ramp_upshifts_in_order(self, vehicle):
        ds = run_vcd(vehicle, [DriveCycle("ramp", [0, 90], [0.0, 30.0])])
        ups = [ev for ev in ds.events if ev.to_gear > ev.from_gear]
        assert ups, "ramp must upshift"
        assert all(ev.to_gear == ev.from_gear + 1 for ev in ups)
        assert [ev.to_gear for ev in ups] == sorted(ev.to_gear for ev in ups)

    def test_event_count_matches_gear_discontinuities(self, dataset):
        # oracle: recount gear changes directly from each trace
        recount = sum(int(np.count_nonzero(np.diff(tr.gear))) for tr in dataset.traces)
        assert len(dataset.events) == recount

    def test_requires_cycles(self, vehicle):
        with pytest.raises(ValueError):
            run_vcd(vehicle, [])


class TestIdleConstants:
    def test_round_trip_against_configuration(self, vehicle, dataset):
        torque_floor, idle_fuel = extract_idle_constants(dataset)
        assert idle_fuel == pytest.approx(vehicle.control.idle_fuel_gps, abs=1e-6)
        assert torque_floor == pytest.approx(vehicle.control.idle_torque_nm, abs=1e-6)

    def test_no_idle_data(self, vehicle):
        cycle = DriveCycle("moving", [0, 10, 100, 110], [5.0, 12.0, 12.0, 5.0])
        ds = run_vcd(vehicle, [cycle])
        with pytest.raises(InsufficientData, match="^no settled standstill steps in any trace$"):
            extract_idle_constants(ds)

    def test_segment_lengths_do_not_matter_for_constant_fuel(self, vehicle):
        short = run_vcd(vehicle, [DriveCycle("s", [0, 5, 15, 20], [0, 0, 8, 8])])
        lng = run_vcd(vehicle, [DriveCycle("l", [0, 60, 70, 75], [0, 0, 8, 8])])
        assert extract_idle_constants(short)[1] == pytest.approx(extract_idle_constants(lng)[1])


class TestFuelCutThresholds:
    def test_round_trip_within_one_grid_step(self, vehicle, dataset):
        cut_speed, cut_force = extract_fuel_cut_thresholds(dataset)
        # one-grid-step bounds: largest per-step sweep of speed and force
        # among fuel-cut steps, computed straight from the traces
        dv_max, dfo_max = 0.0, 0.0
        for tr in dataset.traces:
            p = dataset.params
            force = np.empty(len(tr))
            for k in range(1, p.n_gears + 1):
                m = tr.gear == k
                force[m] = wheel_force(p, tr.v[m], tr.a[m], tr.grade[m], k)
            cut = (tr.fuel == 0.0) & (tr.v >= STANDSTILL_SPEED)
            idx = np.nonzero(cut)[0]
            idx = idx[idx > 0]
            dv_max = max(dv_max, float(np.max(np.abs(np.diff(tr.v))[idx - 1])))
            dfo_max = max(dfo_max, float(np.max(np.abs(np.diff(force))[idx - 1])))
        assert vehicle.control.fuel_cut_speed <= cut_speed <= vehicle.control.fuel_cut_speed + dv_max
        assert vehicle.control.fuel_cut_force - dfo_max <= cut_force <= vehicle.control.fuel_cut_force

    def test_no_cut_data(self, vehicle):
        ds = run_vcd(vehicle, [DriveCycle("gentle", [0, 30, 120], [0.0, 10.0, 10.0])])
        with pytest.raises(InsufficientData, match="^no zero-fuel moving steps in the dataset$"):
            extract_fuel_cut_thresholds(ds)


def synthetic_dataset(params, events):
    return VcdDataset(params=params, traces=[], events=events)


class TestDownshiftMap:
    def test_median_of_three(self, vehicle):
        events = [ShiftEvent("c", t, 2, 1, v, 0.0) for t, v in ((1, 4.0), (2, 5.0), (3, 6.0))]
        events += [ShiftEvent("c", t, k, k - 1, 5.0 * k, 0.0)
                   for t, k in ((10, 3), (11, 4), (12, 5), (13, 6))]
        cutoffs, filled = extract_downshift_map(synthetic_dataset(vehicle.params, events))
        assert cutoffs[1] == pytest.approx(5.0)
        assert filled == ()

    def test_single_event_per_transition(self, vehicle):
        events = [ShiftEvent("c", k, k, k - 1, 3.0 * k, 0.0) for k in range(2, 7)]
        cutoffs, _ = extract_downshift_map(synthetic_dataset(vehicle.params, events))
        assert np.allclose(cutoffs[1:], [3.0 * k for k in range(2, 7)])

    def test_missing_transition_interpolated_and_flagged(self, vehicle):
        events = [ShiftEvent("c", 1, 2, 1, 4.0, 0.0), ShiftEvent("c", 2, 4, 3, 12.0, 0.0),
                  ShiftEvent("c", 3, 5, 4, 16.0, 0.0), ShiftEvent("c", 4, 6, 5, 20.0, 0.0)]
        cutoffs, filled = extract_downshift_map(synthetic_dataset(vehicle.params, events))
        assert filled == (3,)
        assert cutoffs[2] == pytest.approx(0.5 * (4.0 + 12.0))

    def test_no_downshift_data(self, vehicle):
        events = [ShiftEvent("c", 1, 1, 2, 5.0, 0.0)]
        with pytest.raises(InsufficientData, match="^no downshift events in the dataset$"):
            extract_downshift_map(synthetic_dataset(vehicle.params, events))

    def test_unobserved_top_gear_cannot_be_placed(self, vehicle):
        # interpolation can only hold the highest observed cutoff flat
        events = [ShiftEvent("c", k, k, k - 1, 3.0 * k, 0.0) for k in range(2, 6)]
        with pytest.raises(InsufficientData, match=r"gear\(s\) \[6\] above the gear below "
                                                   r"\(no downshift seen from gear\(s\) \[6\]\)"):
            extract_downshift_map(synthetic_dataset(vehicle.params, events))

    def test_urban_cycle_alone_names_top_gear(self, vehicle):
        with pytest.raises(InsufficientData, match=r"^cannot place the downshift cutoff of "
                                                   r"gear\(s\) \[6\]"):
            extract_downshift_map(run_vcd(vehicle, [builtin_cycle("urban")], dt=0.1))

    def test_cutoffs_inside_hysteresis_bands(self, vehicle, dataset):
        # events record the first step in the new gear, so the observed
        # speed may undershoot the threshold by one step's speed sweep
        traces = {tr.name: tr for tr in dataset.traces}
        dv_step = 0.0
        for ev in dataset.events:
            tr = traces[ev.cycle]
            i = int(np.searchsorted(tr.t, ev.t))
            if i > 0:
                dv_step = max(dv_step, abs(float(tr.v[i] - tr.v[i - 1])))
        cutoffs, _ = extract_downshift_map(dataset)
        maps = vehicle.shift_maps
        full_scale = 1.0 + maps.pedal_gain * 100.0
        for k in range(2, vehicle.params.n_gears + 1):
            base = maps.downshift_speeds[k - 2]
            assert base - dv_step <= cutoffs[k - 1] <= base * full_scale


class TestTorqueCorrection:
    def test_matching_draft_gives_zero(self, vehicle, dataset):
        p = vehicle.params

        def principled(v, a, grade):
            return wheel_force(p, v, a, grade, 1) * p.tire_radius / (
                p.final_drive * p.gear_ratios[0] * p.driveline_eff)

        knots = extract_torque_correction(dataset, principled)
        assert knots, "first-gear data must exist"
        assert all(abs(delta) < 1e-9 for _, delta in knots)

    def test_injected_offset_recovered(self, cycles):
        base = default_vehicle()
        control = dataclasses.replace(base.control, launch_correction=((0.0, 5.0),))
        vehicle = dataclasses.replace(base, control=control)
        ds = run_vcd(vehicle, cycles)
        p = vehicle.params

        def principled(v, a, grade):
            return wheel_force(p, v, a, grade, 1) * p.tire_radius / (
                p.final_drive * p.gear_ratios[0] * p.driveline_eff)

        knots = extract_torque_correction(ds, principled)
        assert all(abs(delta - 5.0) < 0.5 for _, delta in knots)

    def test_empty_bins_omitted(self, vehicle):
        # cruise only launches gently: high-acceleration bins stay empty
        ds = run_vcd(vehicle, [cruise_cycle()])
        p = vehicle.params

        def principled(v, a, grade):
            return wheel_force(p, v, a, grade, 1) * p.tire_radius / (
                p.final_drive * p.gear_ratios[0] * p.driveline_eff)

        knots = extract_torque_correction(ds, principled)
        assert 0 < len(knots) < LAUNCH_BINS == 8


class TestFitPoly2d:
    def test_recovers_affine_surface(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 7, 80)
        y = rng.uniform(0, 3, 80)
        z = 2.0 + 3.0 * x
        fit = fit_poly2d(x, y, z, (1, 0))
        assert fit.coeffs[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert fit.coeffs[1, 0] == pytest.approx(3.0, abs=1e-9)
        assert fit.rms_residual < 1e-10

    def test_recovers_cross_term(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 4, 100)
        y = rng.uniform(-3, 3, 100)
        fit = fit_poly2d(x, y, x * y, (1, 1))
        assert fit.coeffs[1, 1] == pytest.approx(1.0, abs=1e-9)
        for i, j in ((0, 0), (1, 0), (0, 1)):
            assert abs(fit.coeffs[i, j]) < 1e-9

    def test_collinear_points_rank_deficient(self):
        x = np.array([0.0, 1.0, 2.0])
        y = x.copy()
        with pytest.raises(InsufficientData, match="^3 samples cannot determine 4 coefficients$"):
            fit_poly2d(x, y, x + y, (1, 1))

    def test_many_collinear_points_rank_deficient(self):
        x = np.linspace(0, 5, 40)
        with pytest.raises(InsufficientData, match="^design matrix rank 3 < 4 coefficients$"):
            fit_poly2d(x, 2 * x + 1, x, (1, 1))

    def test_degree_cap(self):
        x = np.linspace(0, 1, 50)
        with pytest.raises(InvalidArgument, match="^total degree 5 exceeds cap 4$"):
            fit_poly2d(x, x ** 2, x, (3, 2))

    def test_residual_nonincreasing_in_degree(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 4, 300)
        y = rng.uniform(0, 4, 300)
        z = np.sin(x) + 0.3 * np.cos(y) + 0.05 * x * y
        rms = {d: fit_poly2d(x, y, z, d).rms_residual
               for d in ((1, 1), (2, 1), (1, 2), (2, 2))}
        assert rms[(2, 1)] <= rms[(1, 1)] + 1e-12
        assert rms[(1, 2)] <= rms[(1, 1)] + 1e-12
        assert rms[(2, 2)] <= rms[(2, 1)] + 1e-12
        assert rms[(2, 2)] <= rms[(1, 2)] + 1e-12

    def test_evaluation_matches_fit_points(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(10, 400, 60)
        y = rng.uniform(-50, 250, 60)
        z = 0.1 + 0.002 * x + 0.03 * y + 1e-4 * x * y
        fit = fit_poly2d(x, y, z, (1, 1))
        assert np.allclose(fit.evaluate(x, y), z, atol=1e-9)

    def test_json_round_trip(self):
        from vcdfuel.extraction import PolyMap2D
        x = np.linspace(0, 10, 30)
        fit = fit_poly2d(x, x ** 0.5, 1 + x, (2, 1))
        back = PolyMap2D.from_dict(fit.to_dict())
        probe_x, probe_y = np.array([3.0, 7.0]), np.array([1.2, 2.5])
        assert np.allclose(back.evaluate(probe_x, probe_y), fit.evaluate(probe_x, probe_y))


class TestConstructorsNameTheValue:
    def test_poly_map_2d(self):
        from vcdfuel.extraction import PolyMap2D
        with pytest.raises(InvalidArgument) as info:
            PolyMap2D(degree=(1, 1), coeffs_std=[[1.0]], x_mean=0.0, x_std=1.0, y_mean=0.0,
                      y_std=1.0, domain=((0.0, 1.0), (0.0, 1.0)), rms_residual=0.0)
        assert str(info.value) == \
            "coefficient matrix shape does not match degree, got (1, 1) for degree (1, 1)"

    @pytest.mark.parametrize("ys, zs, message", [
        ([0.0, 1.0, 2.0], [0.0, 1.0], "xs, ys, zs must have equal lengths, got 3, 3 and 2"),
        ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], "fit inputs must be finite, got nan in ys"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, np.inf], "fit inputs must be finite, got inf in zs"),
    ], ids=["lengths", "nan", "inf"])
    def test_fit_poly2d(self, ys, zs, message):
        with pytest.raises(InvalidArgument) as info:
            fit_poly2d([0.0, 1.0, 2.0], ys, zs, (0, 0))
        assert isinstance(info.value, ValueError) and str(info.value) == message


class TestFitAllMaps:
    def test_engine_speed_map_recovers_gear_ratio(self, vehicle, dataset):
        maps = fit_all_maps(dataset, min_torque=-np.inf)
        for k in range(1, vehicle.params.n_gears + 1):
            coeffs = maps.engine_speed_maps[k - 1].coeffs
            assert coeffs[1, 0] == pytest.approx(vehicle.params.gear_ratios[k - 1], abs=1e-6)
            assert abs(coeffs[0, 1]) < 1e-6  # no force dependence without slip

    def test_fuel_residual_on_held_out_cycle(self, vehicle, dataset):
        torque_floor, _ = extract_idle_constants(dataset)
        maps = fit_all_maps(dataset, min_torque=torque_floor)
        held_out = DriveCycle("held_out", [0, 5, 40, 80, 110, 140, 170, 178, 186, 196],
                              [0, 0, 19.5, 23.5, 12.5, 27.5, 9.0, 6.2, 3.0, 0.0])
        trace = simulate(held_out, vehicle)
        rows = (trace.v >= STANDSTILL_SPEED) & (trace.fuel > 0.0) \
            & (trace.engine_torque >= torque_floor)
        predicted = maps.fuel_map.evaluate(trace.engine_speed[rows], trace.engine_torque[rows])
        rms = float(np.sqrt(np.mean((predicted - trace.fuel[rows]) ** 2)))
        assert rms < 0.01 * trace.fuel[rows].mean()

    def test_missing_gear_raises(self, vehicle):
        ds = run_vcd(vehicle, [builtin_cycle("urban")])  # never reaches top gear
        with pytest.raises(InsufficientGearData) as info:
            fit_all_maps(ds, min_torque=-np.inf)
        assert info.value.gear == vehicle.params.n_gears

    @pytest.mark.parametrize("min_gear_samples", [0, -5])
    def test_min_gear_samples_below_1_rejected(self, dataset, min_gear_samples):
        with pytest.raises(InvalidArgument, match="min_gear_samples must be at least 1, "
                                                  f"got {min_gear_samples}"):
            fit_all_maps(dataset, min_torque=-np.inf, min_gear_samples=min_gear_samples)

    def test_order_independence(self, vehicle, cycles, dataset):
        shuffled = VcdDataset(params=dataset.params,
                              traces=list(reversed(dataset.traces)),
                              events=list(reversed(dataset.events)))
        a = fit_all_maps(dataset, min_torque=-np.inf)
        b = fit_all_maps(shuffled, min_torque=-np.inf)
        assert np.allclose(a.fuel_map.coeffs, b.fuel_map.coeffs, atol=1e-9)
        for ma, mb in zip(a.torque_maps, b.torque_maps):
            assert np.allclose(ma.coeffs, mb.coeffs, atol=1e-7)


class TestExtractionDeterminism:
    def test_shuffling_traces_changes_no_constants(self, vehicle, dataset):
        shuffled = VcdDataset(params=dataset.params,
                              traces=list(reversed(dataset.traces)),
                              events=list(reversed(dataset.events)))
        assert extract_idle_constants(dataset) == extract_idle_constants(shuffled)
        assert extract_fuel_cut_thresholds(dataset) == extract_fuel_cut_thresholds(shuffled)
        a, _ = extract_downshift_map(dataset)
        b, _ = extract_downshift_map(shuffled)
        assert np.array_equal(a, b)


class TestStacked:
    def test_wheel_force_matches_per_gear_loop(self, dataset):
        p = dataset.params
        expected = []
        for tr in dataset.traces:
            force = np.empty(len(tr))
            for k in range(1, p.n_gears + 1):
                m = tr.gear == k
                force[m] = wheel_force(p, tr.v[m], tr.a[m], tr.grade[m], k)
            expected.append(force)
        assert np.array_equal(dataset.stacked["wheel_force"], np.concatenate(expected))

    def test_built_once_per_model_build(self, vehicle, dataset, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return wheel_force(*args)

        monkeypatch.setattr(extraction, "wheel_force", counting)
        ds = VcdDataset(params=dataset.params, traces=dataset.traces, events=dataset.events)
        build_semi_model_from_dataset(ds, vehicle.shift_maps)
        assert len(calls) == 1
        assert "stacked" not in vars(ds)  # freed once the fits are done


class TestFuelCutConstantSample:
    def test_all_cut_speeds_equal(self, vehicle):
        # hand-built trace: every moving zero-fuel step at exactly 10 m/s
        from vcdfuel.trace import Trace
        n = 40
        t = np.arange(n) * 0.1
        v = np.full(n, 10.0)
        fuel = np.zeros(n)
        fuel[:10] = 0.5  # some fueled steps so the cut set is a subset
        trace = Trace(name="flat", t=t, v=v, a=np.full(n, -1.0),
                      grade=np.zeros(n), gear=np.full(n, 3),
                      engine_speed=np.full(n, 200.0), engine_torque=np.full(n, 5.0),
                      pedal=np.zeros(n), fuel=fuel, flags=np.zeros(n, dtype=int))
        ds = VcdDataset(params=vehicle.params, traces=[trace])
        cut_speed, _ = extract_fuel_cut_thresholds(ds)
        assert cut_speed == 10.0


class TestRigTraces:
    @pytest.fixture(scope="class")
    def rig_trace(self, vehicle):
        log = make_dyno_log(cruise_cycle(), vehicle, seed=2024)
        return process_log(log).trace

    def test_missing_flags_read_as_zeros(self, vehicle, rig_trace):
        assert rig_trace.flags is None
        cols = VcdDataset(params=vehicle.params, traces=[rig_trace]).stacked
        assert cols["flags"].dtype.kind == "i" and cols["flags"].size == len(rig_trace)
        assert not cols["flags"].any()

    def test_fuel_cut_thresholds_on_cruise_rig_trace(self, vehicle, rig_trace):
        rig = extract_fuel_cut_thresholds(VcdDataset(params=vehicle.params, traces=[rig_trace]))
        vcd = extract_fuel_cut_thresholds(run_vcd(vehicle, [cruise_cycle()], dt=0.1))
        assert np.isfinite(rig).all()
        assert rig[0] == pytest.approx(vcd[0], abs=0.1)

    def test_torque_correction_on_cruise_rig_trace(self, vehicle, rig_trace):
        ds = VcdDataset(params=vehicle.params, traces=[rig_trace])
        knots = extract_torque_correction(ds, lambda v, a, grade: np.zeros_like(v))
        assert knots and all(np.isfinite(knot).all() for knot in knots)

    def test_missing_column_named(self, vehicle, rig_trace):
        bare = dataclasses.replace(rig_trace, name="bare", fuel=None)
        ds = VcdDataset(params=vehicle.params, traces=[rig_trace, bare])
        with pytest.raises(InsufficientData, match="trace 'bare' has no 'fuel' column"):
            extract_fuel_cut_thresholds(ds)


class TestExtractionFromRigTraces:
    """The map-based model built from rig recordings of the three built-in
    cycles reproduces the constants the VCD campaign extracts. Tolerances
    were fixed before any tuning."""

    @pytest.fixture(scope="class")
    def constants(self, vehicle, cycles):
        traces = [process_log(make_dyno_log(cycle, vehicle, seed=2024, warmup=False)).trace
                  for cycle in cycles]
        rig = VcdDataset.from_traces(vehicle.params, traces)
        vcd = run_vcd(vehicle, cycles, dt=0.1)
        return tuple(build_semi_model_from_dataset(ds, vehicle.shift_maps).constants
                     for ds in (rig, vcd))

    def test_idle_constants(self, constants):
        rig, vcd = constants
        assert rig.torque_floor == pytest.approx(vcd.torque_floor, abs=1e-9)
        assert rig.idle_fuel == pytest.approx(vcd.idle_fuel, abs=1e-9)

    def test_fuel_cut_thresholds(self, constants):
        rig, vcd = constants
        assert rig.cut_speed == pytest.approx(vcd.cut_speed, abs=0.1)
        assert rig.cut_force == pytest.approx(vcd.cut_force, abs=40.0)

    def test_downshift_cutoffs(self, constants):
        rig, vcd = constants
        assert rig.interpolated_gears == vcd.interpolated_gears
        assert np.max(np.abs(rig.downshift_cutoffs - vcd.downshift_cutoffs)) <= 0.25


class TestFromTraces:
    def test_events_of_every_trace(self, vehicle, dataset):
        again = VcdDataset.from_traces(vehicle.params, iter(dataset.traces))
        assert all(a is b for a, b in zip(again.traces, dataset.traces, strict=True))
        assert again.events == dataset.events
        assert {ev.cycle for ev in again.events} == {tr.name for tr in dataset.traces}

    def test_rig_trace_events(self, vehicle):
        log = make_dyno_log(builtin_cycle("urban"), vehicle, seed=2024, warmup=False)
        trace = process_log(log).trace
        ds = VcdDataset.from_traces(vehicle.params, [trace])
        assert len(ds.events) == int(np.count_nonzero(np.diff(trace.gear)))
        assert all(ev.cycle == "urban_dyno" for ev in ds.events)
