import json

import numpy as np
import pytest

from vcdfuel.errors import InsufficientData, InvalidArgument
from vcdfuel.trace import Trace
from vcdfuel.validation import (
    ValidationReport,
    align,
    build_report,
    compare_pair,
    cumulative_error_pct,
    cumulative_fuel,
    gear_metrics,
    mae,
)


def make_trace(name, t, fuel, gear=None, **extra):
    t = np.asarray(t, dtype=float)
    cols = dict(v=np.full(t.size, 10.0), fuel=np.asarray(fuel, dtype=float))
    if gear is not None:
        cols["gear"] = np.asarray(gear, dtype=int)
    cols.update(extra)
    return Trace(name=name, t=t, **cols)


class TestAlign:
    def test_identity_pairing(self):
        t = np.arange(0, 10, 0.1)
        tr = make_trace("a", t, np.sin(t) + 2)
        pair = align(tr, tr, dt=0.1)
        assert np.allclose(pair.ref["fuel"], pair.model["fuel"])
        assert pair.t.size == t.size

    def test_disjoint_ranges(self):
        a = make_trace("a", [0.0, 1.0], [1.0, 1.0])
        b = make_trace("b", [5.0, 6.0], [1.0, 1.0])
        with pytest.raises(InsufficientData, match="^traces 'a' and 'b' share no time range$"):
            align(a, b)

    def test_shifted_copy_overlap_length(self):
        # overlap [3, 10] at dt 0.5 -> 7/0.5 + 1 = 15 grid points
        t = np.arange(0.0, 10.5, 0.5)
        a = make_trace("a", t, np.ones(t.size))
        b = make_trace("b", t + 3.0, np.ones(t.size))
        pair = align(a, b, dt=0.5)
        assert pair.t.size == int(7.0 / 0.5) + 1

    def test_gear_nearest_neighbor(self):
        # integers snap to the nearest source sample (ties to the earlier
        # one), never an interpolated blend
        a = make_trace("a", [0.0, 1.0, 2.0], [1, 1, 1], gear=[1, 2, 3])
        b = make_trace("b", [0.0, 0.4, 1.6, 2.0], [1, 1, 1, 1], gear=[1, 1, 2, 3])
        pair = align(a, b, dt=0.5)
        assert pair.ref["gear"].dtype.kind == "i"
        assert list(pair.ref["gear"]) == [1, 1, 2, 2, 3]
        assert list(pair.model["gear"]) == [1, 1, 1, 2, 3]
        assert not np.any(pair.ref["gear"] == 1.5)


    def test_only_compared_columns_both_carry(self):
        # v, a and grade are never compared, and a column the model lacks
        # has nothing to be compared with
        t = np.arange(0.0, 5.0, 0.5)
        ones = np.ones(t.size)
        ref = make_trace("ref", t, ones, gear=np.ones(t.size, dtype=int), a=0 * ones,
                         grade=0 * ones, engine_speed=ones, engine_torque=ones, pedal=ones,
                         flags=np.zeros(t.size, dtype=int))
        model = Trace(name="model", t=t, v=ones, fuel=ones, flags=np.zeros(t.size, dtype=int))
        pair = align(ref, model, dt=0.5)
        assert set(pair.ref) == set(pair.model) == {"fuel", "flags"}


class TestMae:
    def test_identical_zero(self):
        assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert mae([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)

    def test_symmetric(self):
        rng = np.random.default_rng(51)
        a, b = rng.normal(size=40), rng.normal(size=40)
        assert mae(a, b) == mae(b, a)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument, match="^series lengths differ: 1 vs 2$"):
            mae([1.0], [1.0, 2.0])

    def test_triangle_inequality_with_means(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            a, b = rng.normal(size=64), rng.normal(size=64)
            assert mae(a, b) >= abs(a.mean() - b.mean()) - 1e-12


class TestCumulativeFuel:
    def test_constant_rate(self):
        t = np.arange(0.0, 10.5, 0.5)
        total, running = cumulative_fuel(t, np.ones(t.size))
        assert total == pytest.approx(10.0)
        assert running[0] == 0.0
        assert running[-1] == pytest.approx(10.0)

    def test_zero_fuel(self):
        total, _ = cumulative_fuel(np.arange(5.0), np.zeros(5))
        assert total == 0.0

    def test_triangular_profile_oracle(self):
        # 0 -> 2 -> 0 over 10 s; trapezoid oracle computed with a loop
        t = np.linspace(0, 10, 101)
        fuel = 2.0 - np.abs(t - 5.0) * 0.4
        oracle = 0.0
        for i in range(t.size - 1):
            oracle += 0.5 * (fuel[i] + fuel[i + 1]) * (t[i + 1] - t[i])
        total, _ = cumulative_fuel(t, fuel)
        assert total == pytest.approx(oracle, rel=1e-12)
        assert total == pytest.approx(10.0)

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(53)
        t1 = np.linspace(0, 5, 51)
        t2 = np.linspace(5, 9, 41)
        f1 = rng.uniform(0, 2, 51)
        f2 = np.concatenate([[f1[-1]], rng.uniform(0, 2, 40)])
        whole_t = np.concatenate([t1, t2[1:]])
        whole_f = np.concatenate([f1, f2[1:]])
        total_whole, _ = cumulative_fuel(whole_t, whole_f)
        total_1, _ = cumulative_fuel(t1, f1)
        total_2, _ = cumulative_fuel(t2, f2)
        assert total_whole == pytest.approx(total_1 + total_2, rel=1e-12)


class TestCumulativeError:
    def test_equal_totals(self):
        t = np.arange(10.0)
        a = make_trace("a", t, np.ones(10))
        assert cumulative_error_pct(a, a) == 0.0

    def test_five_percent(self):
        t = np.arange(0.0, 101.0)
        ref = make_trace("ref", t, np.ones(t.size))       # 100 g
        model = make_trace("m", t, np.full(t.size, 1.05))  # 105 g
        assert cumulative_error_pct(ref, model) == pytest.approx(5.0)

    def test_zero_reference(self):
        t = np.arange(5.0)
        ref = make_trace("ref", t, np.zeros(5))
        model = make_trace("m", t, np.ones(5))
        with pytest.raises(InsufficientData, match="^reference trace consumed no fuel$"):
            cumulative_error_pct(ref, model)


class TestGearMetrics:
    def test_identical(self):
        assert gear_metrics([1, 2, 3], [1, 2, 3]) == (0.0, 0.0)

    def test_half_off_by_one(self):
        ref = [1, 2, 3, 4]
        model = [1, 2, 4, 5]
        assert gear_metrics(ref, model) == (pytest.approx(0.5), pytest.approx(50.0))

    def test_zero_equivalence(self):
        rng = np.random.default_rng(54)
        for _ in range(30):
            ref = rng.integers(1, 7, 50)
            model = ref.copy()
            if rng.random() < 0.5:
                model[rng.integers(0, 50)] += 1
            mae_gear, mismatch = gear_metrics(ref, model)
            assert (mismatch == 0.0) == (mae_gear == 0.0)


class TestBuildReport:
    def _pair(self, rng, name="cycle"):
        t = np.arange(0, 30, 0.1)
        fuel = np.abs(rng.normal(1, 0.3, t.size))
        gear = rng.integers(1, 6, t.size)
        n = rng.uniform(100, 500, t.size)
        ref = make_trace(f"{name}_ref", t, fuel, gear=gear, engine_speed=n,
                         engine_torque=rng.uniform(10, 200, t.size),
                         pedal=rng.uniform(0, 80, t.size))
        model = make_trace(f"{name}_model", t, fuel * rng.uniform(0.9, 1.1, t.size),
                           gear=np.clip(gear + rng.integers(-1, 2, t.size), 1, 6),
                           engine_speed=n * 1.02,
                           engine_torque=rng.uniform(10, 200, t.size),
                           pedal=rng.uniform(0, 80, t.size))
        return name, ref, model

    def test_model_equals_ref_gives_zero_report(self):
        t = np.arange(0, 20, 0.1)
        rng = np.random.default_rng(55)
        tr = make_trace("x", t, np.abs(rng.normal(1, 0.2, t.size)), gear=rng.integers(1, 6, t.size))
        report = build_report([("x", tr, tr)])
        rec = report.records[0]
        assert rec.mae_fuel_gps == 0.0
        assert rec.cumulative_error_pct == 0.0
        assert rec.gear_mismatch_pct == 0.0

    def test_pair_order_permutation_invariant(self):
        rng = np.random.default_rng(56)
        pairs = [self._pair(np.random.default_rng(i), name=f"c{i}") for i in range(3)]
        fwd = build_report(pairs).to_dict()
        rev = build_report(list(reversed(pairs))).to_dict()
        assert fwd == rev

    def test_metrics_invariant_under_common_time_shift(self):
        name, ref, model = self._pair(np.random.default_rng(57))
        shifted_ref = Trace(name=ref.name, t=ref.t + 40.0,
                            **{c: getattr(ref, c) for c in ref.columns()})
        shifted_model = Trace(name=model.name, t=model.t + 40.0,
                              **{c: getattr(model, c) for c in model.columns()})
        a = compare_pair(name, ref, model)
        b = compare_pair(name, shifted_ref, shifted_model)
        assert a.mae_fuel_gps == pytest.approx(b.mae_fuel_gps, rel=1e-12)
        assert a.cumulative_error_pct == pytest.approx(b.cumulative_error_pct, rel=1e-12)
        assert a.gear_mismatch_pct == b.gear_mismatch_pct

    def test_missing_internal_columns_reported_as_none(self):
        t = np.arange(0, 10, 0.1)
        ref = make_trace("ref", t, np.ones(t.size), gear=np.ones(t.size, dtype=int))
        bare = make_trace("model", t, np.ones(t.size))
        rec = compare_pair("c", ref, bare)
        assert rec.mae_engine_speed_rpm is None
        assert rec.gear_mismatch_pct is None
        assert rec.mae_fuel_gps == 0.0

    def test_table_formatting(self):
        pairs = [self._pair(np.random.default_rng(58))]
        table = build_report(pairs).format_table()
        assert "MAE fuel" in table.splitlines()[0]
        assert len(table.splitlines()) == 3

    def test_comparison_csv_emitted(self, tmp_path, monkeypatch):
        pairs = [self._pair(np.random.default_rng(59), name="cyc")]
        # chart data is written only into an explicit out_dir
        monkeypatch.chdir(tmp_path)
        build_report(pairs)
        assert list(tmp_path.iterdir()) == []
        build_report(pairs, out_dir=tmp_path)
        files = list(tmp_path.glob("cyc_*_vs_*.csv"))
        assert len(files) == 1
        header = files[0].read_text().splitlines()[0].split(",")
        assert "fuel_ref_gps" in header and "cumfuel_model_g" in header
        assert (tmp_path / "cyc_fuel.svg").exists()

    def test_empty_report_is_a_named_error(self):
        with pytest.raises(InvalidArgument, match="at least one pair"):
            build_report([])
