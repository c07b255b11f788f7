import dataclasses
import re

import numpy as np
import pytest

from vcdfuel.dyno import (
    DYNO_COLUMNS,
    DynoLog,
    auto_select_smoothing,
    clip_outliers,
    derive_acceleration,
    derive_speed,
    fit_speed_regression,
    hot_engine_window,
    process_log,
    read_dyno_csv,
    smooth_speed,
    write_dyno_csv,
)
from vcdfuel.errors import (
    BoundNotReached,
    InsufficientData,
    InvalidArgument,
    ParseError,
    VcdFuelError,
)
from vcdfuel.synthetic import builtin_cycles, cruise_cycle, default_vehicle, make_dyno_log
from vcdfuel.trace import RADPS_TO_RPM, Trace

TRACE_COLUMNS = ("t", "v", "a", "grade", "gear", "engine_speed", "engine_torque", "pedal",
                 "fuel", "flags")


def make_log(t, v_kph=None, trans_out_rpm=None, water_temp_c=None, **kw):
    t = np.asarray(t, dtype=float)
    n = t.size
    fields = dict(
        v_kph=np.zeros(n) if v_kph is None else np.asarray(v_kph, dtype=float),
        engine_rpm=np.full(n, 800.0),
        engine_torque_nm=np.full(n, 20.0),
        pedal_pct=np.zeros(n),
        fuel_gps=np.full(n, 0.2),
        water_temp_c=np.full(n, 90.0) if water_temp_c is None else np.asarray(water_temp_c, dtype=float),
        gear=np.ones(n),
        trans_out_rpm=np.zeros(n) if trans_out_rpm is None else np.asarray(trans_out_rpm, dtype=float),
    )
    fields.update(kw)
    return DynoLog(name="test", t=t, **fields)


class TestSpeedRegression:
    def test_exact_linear_channel(self):
        rpm = np.linspace(100, 3000, 400)
        log = make_log(np.arange(400.0), v_kph=0.0398 * rpm, trans_out_rpm=rpm)
        slope = fit_speed_regression(log)
        assert slope == pytest.approx(0.0398, abs=1e-9)

    def test_insufficient_moving_rows(self):
        log = make_log(np.arange(300.0))  # v_kph all zero
        with pytest.raises(InsufficientData):
            fit_speed_regression(log)

    def test_zero_shaft_speed_degenerate(self):
        log = make_log(np.arange(200.0), v_kph=np.full(200, 10.0))
        with pytest.raises(InsufficientData, match="^output shaft speed is identically zero$"):
            fit_speed_regression(log)

    def test_row_duplication_invariance(self):
        rng = np.random.default_rng(41)
        rpm = rng.uniform(200, 2500, 150)
        v = 0.0398 * rpm + rng.normal(0, 0.4, 150)
        log1 = make_log(np.arange(150.0), v_kph=v, trans_out_rpm=rpm)
        log2 = make_log(np.arange(300.0), v_kph=np.tile(v, 2), trans_out_rpm=np.tile(rpm, 2))
        assert fit_speed_regression(log1) == pytest.approx(fit_speed_regression(log2), rel=1e-12)


class TestDeriveSpeed:
    def test_known_value(self):
        log = make_log([0.0, 1.0, 2.0], trans_out_rpm=[1000.0, 1000.0, 1000.0])
        v = derive_speed(log, 0.0398)
        # 1000 rpm -> 39.8 km/h
        assert np.allclose(v, 39.8 / 3.6)

    def test_negative_shaft_noise_clamped(self):
        log = make_log([0.0, 1.0, 2.0], trans_out_rpm=[-50.0, 0.0, 50.0])
        v = derive_speed(log, 0.0398)
        assert v[0] == 0.0 and v[1] == 0.0 and v[2] > 0

    def test_linearity_above_clamp(self):
        log = make_log([0.0, 1.0], trans_out_rpm=[500.0, 1000.0])
        v = derive_speed(log, 0.0398)
        assert v[1] == pytest.approx(2 * v[0])

    def test_nonpositive_slope_rejected(self):
        log = make_log([0.0, 1.0], trans_out_rpm=[1.0, 2.0])
        with pytest.raises(InsufficientData, match="^slope must be positive, got 0.0$"):
            derive_speed(log, 0.0)


class TestSmoothSpeed:
    def test_three_point_average_formula(self):
        # mu/2 * left + (1-mu) * center + mu/2 * right, computed by hand;
        # each endpoint's missing neighbour mirrors the one inside
        out = smooth_speed([0.0, 4.0, 0.0], mu=0.5, steps=1)
        assert np.allclose(out, [2.0, 2.0, 2.0])

    def test_constant_series_fixed_point(self):
        out = smooth_speed(np.full(20, 7.0), mu=0.5, steps=50)
        assert np.allclose(out, 7.0)

    def test_zero_steps_identity(self):
        series = np.array([1.0, 5.0, 2.0, 8.0])
        assert np.array_equal(smooth_speed(series, steps=0), series)

    def test_full_pass_not_in_place(self):
        # a Gauss-Seidel sweep would read already-updated neighbors and
        # produce [2, 3.5, 2.875, 1.4375]; the full-pass update gives [2, 3, 3, 2]
        out = smooth_speed([0.0, 4.0, 4.0, 0.0], mu=0.5, steps=1)
        assert np.allclose(out, [2.0, 3.0, 3.0, 2.0])

    def test_endpoints_average_with_the_neighbour_inside(self):
        rng = np.random.default_rng(42)
        series = rng.uniform(0, 30, 50)
        before = smooth_speed(series, mu=0.7, steps=24)
        out = smooth_speed(series, mu=0.7, steps=25)
        assert out[0] == (1 - 0.7) * before[0] + 0.7 * before[1]
        assert out[-1] == (1 - 0.7) * before[-1] + 0.7 * before[-2]

    def test_too_short(self):
        with pytest.raises(InsufficientData, match="^need at least 3 samples, got 2$"):
            smooth_speed([1.0, 2.0], steps=1)

    def test_mu_range_validated(self):
        with pytest.raises(ValueError):
            smooth_speed([0.0, 1.0, 0.0], mu=1.5)


class TestDeriveAcceleration:
    def test_linear_ramp_exact(self):
        t = np.arange(0, 5, 0.1)
        a = derive_acceleration(2.0 * t, 0.1)
        assert np.allclose(a, 2.0)

    def test_constant_zero(self):
        assert np.allclose(derive_acceleration(np.full(30, 9.0), 0.5), 0.0)

    def test_quadratic_exact_in_interior(self):
        # analytic oracle: d(t^2)/dt = 2t; central differences are exact
        # for quadratics
        t = np.arange(0, 3, 0.1)
        a = derive_acceleration(t ** 2, 0.1)
        assert np.allclose(a[1:-1], 2.0 * t[1:-1], atol=1e-12)


class TestClipOutliers:
    def test_constant_unchanged(self):
        series = np.full(40, 3.3)
        assert np.array_equal(clip_outliers(series, 0.05), series)

    def test_spike_winsorized_to_bound(self):
        from vcdfuel.extraction import percentile
        rng = np.random.default_rng(43)
        series = rng.normal(0, 1, 99).tolist() + [50.0]
        series = np.array(series)
        hi = percentile(series, 95.0)
        out = clip_outliers(series, 0.05)
        assert out[-1] == pytest.approx(hi)
        assert out.max() <= hi

    def test_zero_fraction_identity(self):
        series = np.array([5.0, -80.0, 3.0, 200.0])
        assert np.array_equal(clip_outliers(series, 0.0), series)

    def test_within_bounds_by_construction(self):
        from vcdfuel.extraction import percentile
        rng = np.random.default_rng(44)
        series = rng.standard_t(2, 500)
        out = clip_outliers(series, 0.05)
        assert out.min() >= percentile(series, 5.0) - 1e-12
        assert out.max() <= percentile(series, 95.0) + 1e-12


class TestAutoSelectSmoothing:
    def test_already_smooth_chooses_zero(self):
        t = np.arange(0, 60, 0.1)
        series = 10.0 + 5.0 * np.sin(0.1 * t)
        sel = auto_select_smoothing(series, 0.1, bound=4.0)
        assert sel.steps == 0

    def test_noisy_series_brought_in_bound(self):
        rng = np.random.default_rng(45)
        t = np.arange(0, 120, 0.1)
        series = 20.0 + 3.0 * np.sin(0.05 * t) + rng.normal(0, 1.0, t.size)
        raw_peak = np.max(np.abs(derive_acceleration(series, 0.1)))
        assert raw_peak > 4.0
        sel = auto_select_smoothing(series, 0.1, bound=4.0)
        assert sel.max_abs_accel <= 4.0
        assert sel.steps > 0

    def test_chosen_count_is_minimal(self):
        # exhaustive oracle over step counts: every smaller count violates
        # the bound, and convergence never fired first
        rng = np.random.default_rng(46)
        t = np.arange(0, 60, 0.1)
        series = 15.0 + rng.normal(0, 0.8, t.size)
        sel = auto_select_smoothing(series, 0.1, bound=4.0)
        assert sel.steps >= 1
        peaks = []
        for n in range(sel.steps + 1):
            accel = derive_acceleration(smooth_speed(series, steps=n), 0.1)
            peaks.append(np.max(np.abs(accel)))
        assert peaks[sel.steps] <= 4.0
        for n in range(sel.steps):
            assert peaks[n] > 4.0
            if n > 0:
                assert peaks[n - 1] - peaks[n] >= 1e-3

    def test_bound_not_reached_carries_best(self):
        step_edge = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        with pytest.raises(BoundNotReached) as info:
            auto_select_smoothing(step_edge, 0.1, bound=0.5, max_steps=3)
        best = info.value.best
        assert best is not None
        assert best.max_abs_accel > 0.5
        assert best.steps <= 3

    def test_peak_never_increases_with_steps(self):
        rng = np.random.default_rng(47)
        series = rng.uniform(0, 25, 400)
        prev = np.inf
        for n in range(15):
            peak = np.max(np.abs(derive_acceleration(smooth_speed(series, steps=n), 0.1)))
            assert peak <= prev + 1e-9
            prev = peak


class TestHotEngineWindow:
    def test_always_hot_full_log(self):
        log = make_log(np.arange(100.0))
        assert hot_engine_window(log, 85.0) == (0.0, 99.0)

    def test_monotone_warmup_crossing(self):
        # direct-scan oracle: temperature crosses 85 exactly at t = 200
        t = np.arange(0.0, 400.0)
        temp = np.where(t < 200, 60.0, 88.0)
        log = make_log(t, water_temp_c=temp)
        t_start, t_end = hot_engine_window(log, 85.0)
        assert t_start == 200.0
        assert t_end == 399.0

    def test_never_hot(self):
        log = make_log(np.arange(50.0), water_temp_c=np.full(50, 60.0))
        with pytest.raises(InsufficientData,
                           match="^water temperature never settles above 85.0 C$"):
            hot_engine_window(log, 85.0)

    def test_dip_after_warm_moves_start(self):
        t = np.arange(0.0, 10.0)
        temp = np.array([90, 90, 80, 90, 90, 90, 90, 90, 90, 90.0])
        log = make_log(t, water_temp_c=temp)
        assert hot_engine_window(log, 85.0)[0] == 3.0


@pytest.fixture(scope="module")
def synthetic_log():
    return make_dyno_log(cruise_cycle(), default_vehicle(), seed=2024)


class TestProcessLog:
    def test_full_pipeline_row_count(self, synthetic_log):
        profile = process_log(synthetic_log, dt=0.1)
        t_start, t_end = hot_engine_window(synthetic_log, 85.0)
        expected_rows = int(np.floor((t_end - t_start) / 0.1 + 1e-9)) + 1
        assert profile.trace.t.size == expected_rows

    def test_acceleration_within_bound(self, synthetic_log):
        profile = process_log(synthetic_log, dt=0.1)
        assert np.max(np.abs(profile.trace.a)) <= 4.0
        assert np.all(profile.trace.v >= 0)

    def test_provenance_recorded(self, synthetic_log):
        profile = process_log(synthetic_log, dt=0.1)
        assert profile.provenance["smoothing_steps"] >= 1
        assert profile.provenance["slope_kph_per_rpm"] == pytest.approx(0.0398, rel=0.005)
        assert profile.provenance["hot_window_s"][0] > 0

    def test_every_seeded_rig_log_ingests(self):
        # the whole seed range, none picked to pass; aggressive with warm-up
        # is left out because that cycle ends before the engine is hot
        cycles, vehicle = builtin_cycles(), default_vehicle()
        runs = [(name, warmup) for name in ("cruise", "urban") for warmup in (False, True)]
        failed = []
        for name, warmup in [*runs, ("aggressive", False)]:
            for seed in range(60):
                try:
                    process_log(make_dyno_log(cycles[name], vehicle, seed=seed, warmup=warmup))
                except VcdFuelError as exc:
                    failed.append(f"{name} seed {seed} warmup={warmup}: {exc}")
        assert failed == []

    def test_error_names_the_log_once(self, synthetic_log):
        with pytest.raises(BoundNotReached) as info:
            process_log(synthetic_log, bound=0.01, max_steps=2)
        assert str(info.value).count("dyno log 'cruise_dyno': ") == 1
        assert str(info.value).startswith("dyno log 'cruise_dyno': ")
        assert info.value.best is not None and info.value.best.steps <= 2
        # a channel changed after the log was built fails the windowed log's check
        broken = dataclasses.replace(synthetic_log, fuel_gps=synthetic_log.fuel_gps.copy())
        broken.fuel_gps[-1] = -1.0
        with pytest.raises(ParseError) as info:
            process_log(broken)
        assert str(info.value) == "dyno log 'cruise_dyno': fuel must be nonnegative"


def log_to_trace(log, profile):
    """Dyno channels interpolated onto the processed profile's grid from the
    raw log: the reference the trace `process_log` returns must match bit
    for bit."""
    t_start, t_end = profile.provenance.get("hot_window_s", [log.t[0], log.t[-1]])
    uniform = log.window(t_start, t_end)
    t = profile.trace.t
    idx = np.clip(np.searchsorted(uniform.t, t - 1e-12), 0, len(uniform) - 1)
    return Trace(name=log.name, t=t, v=profile.trace.v, a=profile.trace.a,
                 grade=np.zeros_like(t),
                 gear=uniform.gear[idx],
                 engine_speed=np.interp(t, uniform.t, uniform.engine_rpm) / RADPS_TO_RPM,
                 engine_torque=np.interp(t, uniform.t, uniform.engine_torque_nm),
                 pedal=np.interp(t, uniform.t, uniform.pedal_pct),
                 fuel=np.interp(t, uniform.t, uniform.fuel_gps))


class TestRigTraceOracle:
    @pytest.mark.parametrize("warmup", [True, False], ids=["warmup", "hot"])
    @pytest.mark.parametrize("name", ["cruise", "urban", "aggressive"])
    def test_bit_identical(self, name, warmup):
        log = make_dyno_log(builtin_cycles()[name], default_vehicle(), seed=2024, warmup=warmup)
        if (name, warmup) == ("aggressive", True):
            # too short to warm up past the 85 C threshold
            with pytest.raises(InsufficientData, match=f"^dyno log '{log.name}': water "
                                                       "temperature never settles above 85.0 C$"):
                process_log(log)
            return
        profile = process_log(log)
        expected = log_to_trace(log, profile)
        assert profile.trace.name == expected.name
        for col in TRACE_COLUMNS:
            a, b = getattr(profile.trace, col), getattr(expected, col)
            if b is None:
                assert a is None, col
                continue
            assert a.dtype == b.dtype, col
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), col

    def test_without_hot_window(self, synthetic_log):
        profile = process_log(synthetic_log, hot_threshold=-np.inf)
        assert profile.trace.t[0] == synthetic_log.t[0]
        expected = log_to_trace(synthetic_log, profile)
        for col in TRACE_COLUMNS[1:-1]:
            assert np.array_equal(getattr(profile.trace, col), getattr(expected, col)), col


class TestBadArguments:
    @pytest.mark.parametrize("kwargs, message", [
        ({"mu": 2.0}, "smoothing mu must be in [0, 1]"),
        ({"clip_fraction": 0.6}, "clip fraction must be in [0, 0.5)"),
        ({"max_steps": 0}, "smoothing max_steps must be at least 1"),
        ({"bound": -1.0}, "smoothing bound must be positive, got -1.0 m/s2"),
        ({"bound": 0.0}, "smoothing bound must be positive, got 0.0 m/s2"),
    ], ids=["mu", "clip-fraction", "max-steps", "negative-bound", "zero-bound"])
    def test_process_log(self, synthetic_log, kwargs, message):
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            process_log(synthetic_log, **kwargs)

    def test_mu_checked_when_no_smoothing_is_needed(self):
        ramp = np.linspace(0.0, 10.0, 50)
        assert auto_select_smoothing(ramp, 0.1).steps == 0
        with pytest.raises(InvalidArgument, match=re.escape("smoothing mu must be in [0, 1]")):
            auto_select_smoothing(ramp, 0.1, mu=2.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"sample_rate_hz": 0.0}, "dyno sample rate must be positive"),
        ({"rpm_noise": -1.0}, "dyno rpm noise must be nonnegative"),
        ({"seed": -1}, "dyno seed must be nonnegative"),
        ({"spike_rate": 2.0}, "dyno spike rate must be in [0, 1], got 2.0"),
        ({"spike_rate": -0.1}, "dyno spike rate must be in [0, 1], got -0.1"),
    ], ids=["sample-rate", "rpm-noise", "seed", "spike-rate-above-1", "negative-spike-rate"])
    def test_make_dyno_log(self, kwargs, message):
        with pytest.raises(InvalidArgument, match=re.escape(message)):
            make_dyno_log(cruise_cycle(), default_vehicle(), **kwargs)


class TestDynoLogChecks:
    @pytest.mark.parametrize("column", DYNO_COLUMNS)
    def test_non_finite_channel_named(self, column):
        fields = {name: np.arange(5.0) for name in DYNO_COLUMNS}
        fields[column] = np.array([0.0, 1.0, np.nan, 3.0, 4.0])
        with pytest.raises(ParseError) as info:
            DynoLog(name="rig", **fields)
        assert str(info.value) == f"dyno log 'rig': column '{column}' holds non-finite values"


class TestDynoCsv:
    def test_round_trip(self, tmp_path):
        log = make_dyno_log(cruise_cycle(), default_vehicle(), seed=7, sample_rate_hz=2.0)
        path = tmp_path / "log.csv"
        write_dyno_csv(log, path)
        back = read_dyno_csv(path)
        for col in DYNO_COLUMNS:
            assert np.array_equal(getattr(back, col), getattr(log, col)), col
