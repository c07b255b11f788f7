"""Acceptance gate: each criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from vcdfuel.cli import main
from vcdfuel.dyno import derive_acceleration, derive_speed, fit_speed_regression, process_log
from vcdfuel.extraction import extract_torque_correction, run_vcd
from vcdfuel.powertrain import wheel_force
from vcdfuel.semi_principled import build_semi_model, eval_semi_trace
from vcdfuel.simplified import (
    FitGrid,
    eval_simplified,
    eval_simplified_trace,
    fit_simplified,
    fit_to_function,
)
from vcdfuel.synthetic import cruise_cycle, make_dyno_log
from vcdfuel.trace import Trace
from vcdfuel.validation import compare_pair


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


class TestCriterion1PipelineClosure:
    def test_simplified_tracks_semi_within_007(self, vehicle, cycles):
        start = time.perf_counter()
        semi = build_semi_model(vehicle, cycles)
        simplified = fit_simplified(semi)
        dataset = run_vcd(vehicle, cycles)
        abs_err_sum, n_steps, per_cycle = 0.0, 0, {}
        for tr in dataset.traces:
            semi_tr = eval_semi_trace(semi, tr.t, tr.v, tr.a)
            simp_tr = eval_simplified_trace(simplified, tr.t, tr.v, tr.a)
            err = np.abs(simp_tr.fuel - semi_tr.fuel)
            per_cycle[tr.name] = float(err.mean())
            abs_err_sum += float(err.sum())
            n_steps += len(tr)
        elapsed = time.perf_counter() - start
        mae = abs_err_sum / n_steps
        detail = (f"MAE simplified vs semi {mae:.4f} g/s over evaluation cycles "
                  f"(per cycle {per_cycle}), {elapsed:.1f} s")
        report("criterion 1 (pipeline closure <= 0.07 g/s, < 30 s)",
               mae <= 0.07 and elapsed < 30.0, detail)


class TestCriterion2ExtractionRoundTrip:
    def test_constants_match_configuration(self, vehicle, cycles, dataset, semi_model):
        idle_ok = abs(semi_model.constants.idle_fuel - vehicle.control.idle_fuel_gps) <= 1e-6

        # events record the step after the crossing: allow one step's sweep
        traces = {tr.name: tr for tr in dataset.traces}
        dv_step = 0.0
        for ev in dataset.events:
            tr = traces[ev.cycle]
            i = int(np.searchsorted(tr.t, ev.t))
            if i > 0:
                dv_step = max(dv_step, abs(float(tr.v[i] - tr.v[i - 1])))
        maps = vehicle.shift_maps
        full_scale = 1.0 + maps.pedal_gain * 100.0
        cutoffs = semi_model.constants.downshift_cutoffs
        bands_ok = all(
            maps.downshift_speeds[k - 2] - dv_step
            <= cutoffs[k - 1]
            <= maps.downshift_speeds[k - 2] * full_scale
            for k in range(2, vehicle.params.n_gears + 1))

        injected = dataclasses.replace(
            vehicle, control=dataclasses.replace(vehicle.control, launch_correction=((0.0, 5.0),)))
        ds = run_vcd(injected, cycles)
        p = injected.params

        def principled(v, a, grade):
            return wheel_force(p, v, a, grade, 1) * p.tire_radius / (
                p.final_drive * p.gear_ratios[0] * p.driveline_eff)

        knots = extract_torque_correction(ds, principled)
        recovery = max(abs(delta - 5.0) for _, delta in knots)
        correction_ok = recovery <= 0.5

        detail = (f"idle fuel err {abs(semi_model.constants.idle_fuel - vehicle.control.idle_fuel_gps):.2e} g/s, "
                  f"cutoffs in bands: {bands_ok}, +5 Nm recovered within {recovery:.3f} Nm")
        report("criterion 2 (extraction round-trip)",
               idle_ok and bands_ok and correction_ok, detail)


class TestCriterion3SemiFidelity:
    def test_cumulative_and_gear_bounds(self, semi_model, dataset):
        recs = {}
        for tr in dataset.traces:
            model = eval_semi_trace(semi_model, tr.t, tr.v, tr.a)
            recs[tr.name] = compare_pair(tr.name, tr, model)
        cruise_ok = recs["cruise"].cumulative_error_pct <= 6.0
        aggressive_ok = recs["aggressive"].cumulative_error_pct <= 20.0
        mismatch = max(rec.gear_mismatch_pct for rec in recs.values())
        detail = (f"cumulative error cruise {recs['cruise'].cumulative_error_pct:.2f}% (<=6), "
                  f"aggressive {recs['aggressive'].cumulative_error_pct:.2f}% (<=20), "
                  f"worst gear mismatch {mismatch:.2f}% (<=10)")
        report("criterion 3 (semi-principled fidelity)",
               cruise_ok and aggressive_ok and mismatch <= 10.0, detail)


class TestCriterion4SimplifiedStructure:
    def test_structural_guarantees(self, simplified_model):
        m = simplified_model
        v200 = np.linspace(m.v_range[0], m.v_range[1], 200)
        pos_min = float(np.min(m.positive_part(v200, m.min_accel(v200), 0.0)))
        positivity_ok = pos_min > 0.0

        rng = np.random.default_rng(101)
        v_cut = rng.uniform(m.cut_speed + 0.3, m.v_range[1], 1000)
        a_cut = m.cut_accel(v_cut, 0.0) - rng.uniform(0.02, 2.0, 1000)
        cut_ok = bool(np.all(eval_simplified(m, v_cut, a_cut, 0.0) == 0.0))

        v_low = rng.uniform(0.0, m.cut_speed, 1000)
        a_any = rng.uniform(-4.0, 4.0, 1000)
        beta_ok = bool(np.all(eval_simplified(m, v_low, a_any, 0.0) >= m.beta))

        v = np.linspace(m.v_range[0], m.v_range[1], 100)
        a = np.linspace(-4.0, 4.0, 100)
        vv, aa = np.meshgrid(v, a, indexing="ij")
        fp = m.positive_part(vv, aa, 0.0)
        band = aa[:, :-1] >= m.min_accel(vv[:, :-1])
        worst_step = float(np.min(np.diff(fp, axis=1)[band]))
        monotone_ok = worst_step >= -1e-9

        detail = (f"min f_p along lower edge {pos_min:.4f} g/s, cut region exact zeros: {cut_ok}, "
                  f"standstill >= beta: {beta_ok}, worst monotonicity step {worst_step:.2e}")
        report("criterion 4 (simplified structure)",
               positivity_ok and cut_ok and beta_ok and monotone_ok, detail)


class TestCriterion5ExactRecovery:
    def test_representable_oracle_recovered(self):
        from vcdfuel.simplified import SimplifiedModel
        oracle = SimplifiedModel(
            beta=0.05, cut_speed=5.0,
            coeff_c=[0.6, 0.02, 0.001, 1e-5],
            coeff_p=[0.05, 0.002, 1e-5],
            coeff_q=[0.01, 0.0005],
            coeff_z=[2.0, 0.05],
            cut_boundary=[-0.5, -0.02, 0.3, 0.0, 0.0, 0.0],
            v_range=(0.0, 30.0), a_range=(-1.0, 2.5), grade_range=(-0.12, 0.12))
        grid = FitGrid(v_range=(0.0, 30.0), a_range=(-1.0, 2.5),
                       grade_range=(-0.12, 0.12), shape=(48, 36, 11))
        fit = fit_to_function(lambda v, a, g: eval_simplified(oracle, v, a, g),
                              cut_speed=oracle.cut_speed, beta=oracle.beta, grid=grid)
        worst = 0.0
        for name in ("coeff_c", "coeff_p", "coeff_q", "coeff_z"):
            got, want = getattr(fit, name), getattr(oracle, name)
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        report("criterion 5 (exact-representability recovery <= 1e-6 relative)",
               worst <= 1e-6, f"worst relative coefficient error {worst:.2e}")


class TestCriterion6DynoIngestion:
    def test_regression_and_smoothing(self, vehicle):
        start = time.perf_counter()
        log = make_dyno_log(cruise_cycle(), vehicle, seed=2024)
        profile = process_log(log, dt=0.1)
        slope = profile.provenance["slope_kph_per_rpm"]
        slope_err = abs(slope - 0.0398) / 0.0398

        uniform = log.window(*profile.provenance["hot_window_s"]).resampled(0.1)
        raw_speed = derive_speed(uniform, slope)
        raw_peak = float(np.max(np.abs(derive_acceleration(raw_speed, 0.1))))
        smoothed_peak = float(np.max(np.abs(profile.trace.a)))
        elapsed = time.perf_counter() - start

        detail = (f"slope err {100 * slope_err:.3f}% (<=0.5%), raw peak |a| {raw_peak:.0f} m/s2 "
                  f"(>20, reproducing the >100 glitch scale), smoothed {smoothed_peak:.2f} (<=4), "
                  f"{elapsed:.2f} s (<5)")
        report("criterion 6 (dyno ingestion)",
               slope_err <= 0.005 and raw_peak > 100.0 and smoothed_peak <= 4.0
               and elapsed < 5.0, detail)


def loop_interp(tq, ts, xs):
    out = []
    for q in tq:
        if q <= ts[0]:
            out.append(xs[0])
            continue
        if q >= ts[-1]:
            out.append(xs[-1])
            continue
        for i in range(len(ts) - 1):
            if ts[i] <= q <= ts[i + 1]:
                w = (q - ts[i]) / (ts[i + 1] - ts[i])
                out.append((1 - w) * xs[i] + w * xs[i + 1])
                break
    return np.array(out)


def loop_nearest(tq, ts, xs):
    out = []
    for q in tq:
        best = min(range(len(ts)), key=lambda i: (abs(ts[i] - q), ts[i]))
        out.append(xs[best])
    return np.array(out)


def loop_mae(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x - y)
    return total / len(a)


def loop_trapz(t, f):
    total = 0.0
    for i in range(len(t) - 1):
        total += 0.5 * (f[i] + f[i + 1]) * (t[i + 1] - t[i])
    return total


def loop_gear(a, b):
    diff_sum, mismatches = 0, 0
    for x, y in zip(a, b):
        diff_sum += abs(int(x) - int(y))
        mismatches += int(x != y)
    return diff_sum / len(a), 100.0 * mismatches / len(a)


class TestCriterion7MetricOracles:
    def test_metrics_match_brute_force(self):
        rng = np.random.default_rng(202)
        n = 1000
        t_ref = np.arange(n) * 0.1
        t_model = t_ref + 0.73  # offset grids force real interpolation
        dt = 0.1

        def random_trace(name, t):
            return Trace(name=name, t=t, v=rng.uniform(0, 30, n),
                         fuel=rng.uniform(0.01, 3.0, n),
                         gear=rng.integers(1, 7, n),
                         engine_speed=rng.uniform(80, 600, n),
                         engine_torque=rng.uniform(-40, 260, n),
                         pedal=rng.uniform(0, 100, n))

        ref = random_trace("ref", t_ref)
        model = random_trace("model", t_model)
        rec = compare_pair("random", ref, model, dt=dt)

        t0 = max(t_ref[0], t_model[0])
        t1 = min(t_ref[-1], t_model[-1])
        grid = [t0 + i * dt for i in range(int(np.floor((t1 - t0) / dt + 1e-9)) + 1)]
        fuel_ref = loop_interp(grid, t_ref, ref.fuel)
        fuel_model = loop_interp(grid, t_model, model.fuel)
        gear_ref = loop_nearest(grid, t_ref, ref.gear)
        gear_model = loop_nearest(grid, t_model, model.gear)

        from vcdfuel.trace import RADPS_TO_RPM
        checks = {
            "mae_fuel": (rec.mae_fuel_gps, loop_mae(fuel_ref, fuel_model)),
            "cumulative_ref": (rec.cumulative_fuel_ref_g, loop_trapz(t_ref, ref.fuel)),
            "cumulative_model": (rec.cumulative_fuel_model_g, loop_trapz(t_model, model.fuel)),
            "cumulative_error_pct": (
                rec.cumulative_error_pct,
                100.0 * abs(loop_trapz(t_model, model.fuel) - loop_trapz(t_ref, ref.fuel))
                / loop_trapz(t_ref, ref.fuel)),
            "mae_gear": (rec.mae_gear, loop_gear(gear_ref, gear_model)[0]),
            "gear_mismatch_pct": (rec.gear_mismatch_pct, loop_gear(gear_ref, gear_model)[1]),
            "mae_engine_speed": (
                rec.mae_engine_speed_rpm,
                loop_mae(loop_interp(grid, t_ref, ref.engine_speed * RADPS_TO_RPM),
                         loop_interp(grid, t_model, model.engine_speed * RADPS_TO_RPM))),
            "mae_pedal": (
                rec.mae_pedal_pct,
                loop_mae(loop_interp(grid, t_ref, ref.pedal),
                         loop_interp(grid, t_model, model.pedal))),
        }
        worst = max(abs(got - want) / max(abs(want), 1e-300)
                    for got, want in checks.values())
        report("criterion 7 (metric oracle equivalence <= 1e-12 relative)",
               worst <= 1e-12, f"worst relative deviation {worst:.2e} across {len(checks)} metrics")


class TestCriterion8Determinism:
    def test_pipeline_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--out", str(out_a)]) == 0
        assert main(["pipeline", "--out", str(out_b)]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        same_set = files_a == files_b
        diffs = [str(rel) for rel in files_a
                 if hashlib.sha256((out_a / rel).read_bytes()).digest()
                 != hashlib.sha256((out_b / rel).read_bytes()).digest()]
        report("criterion 8 (pipeline determinism)",
               same_set and not diffs,
               f"{len(files_a)} artifacts compared, differing: {diffs or 'none'}")
