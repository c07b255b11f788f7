import numpy as np
import pytest

from vcdfuel.jsonio import write_json
from vcdfuel.semi_principled import (
    eval_semi_trace,
    evaluate,
    load_semi_model,
    model_from_dict,
    model_to_dict,
)
from vcdfuel.trace import FLAG_CLAMPED
from vcdfuel.validation import compare_pair


def trapezoid_oracle(t, f):
    total = 0.0
    for i in range(len(t) - 1):
        total += 0.5 * (f[i] + f[i + 1]) * (t[i + 1] - t[i])
    return total


class TestEvalSemi:
    def test_idle_rule(self, semi_model):
        out = evaluate(semi_model, 0.0, 0.0, 0.0)
        assert out["fuel"][0] == semi_model.constants.idle_fuel
        assert out["gear"][0] == 1
        assert out["engine_speed"][0] == semi_model.params.engine_speed_idle
        assert out["pedal"][0] == 0.0

    def test_fuel_cut_rule(self, semi_model):
        v = semi_model.constants.cut_speed + 5.0
        assert evaluate(semi_model, v, -3.0, 0.0)["fuel"][0] == 0.0

    def test_fuel_nonnegative_on_domain(self, semi_model):
        rng = np.random.default_rng(21)
        v = rng.uniform(0, semi_model.speed_max, 4000)
        a = rng.uniform(-5, 5, 4000)
        grade = rng.uniform(-0.15, 0.15, 4000)
        out = evaluate(semi_model, v, a, grade)
        assert np.all(out["fuel"] >= 0)

    def test_purity(self, semi_model):
        point = (17.3, 0.8, 0.02)
        first, second = evaluate(semi_model, *point), evaluate(semi_model, *point)
        for key, val in first.items():
            assert np.array_equal(val, second[key]), key

    def test_out_of_domain_clamped_and_flagged(self, semi_model):
        out = evaluate(semi_model, semi_model.speed_max + 10.0, 9.0, 0.3)
        assert out["flags"][0] & FLAG_CLAMPED
        same = evaluate(semi_model, semi_model.speed_max, 5.0, 0.15)
        assert out["fuel"][0] == same["fuel"][0]

    def test_grade_monotone_outside_cut_without_gear_change(self, semi_model):
        rng = np.random.default_rng(22)
        grades = np.linspace(-0.1, 0.1, 9)
        checked = 0
        for _ in range(300):
            v = float(rng.uniform(1.0, semi_model.speed_max))
            a = float(rng.uniform(-0.5, 1.5))
            out = evaluate(semi_model, np.full(9, v), np.full(9, a), grades)
            if np.any(out["fuel"] == 0.0) or len(set(out["gear"].tolist())) > 1:
                continue
            checked += 1
            assert np.all(np.diff(out["fuel"]) >= -1e-9), (v, a)
        assert checked > 50


class TestEvalSemiTrace:
    def test_all_zero_rows(self, semi_model):
        t = np.arange(0, 5, 0.5)
        trace = eval_semi_trace(semi_model, t, np.zeros_like(t), np.zeros_like(t))
        assert np.all(trace.fuel == semi_model.constants.idle_fuel)

    def test_statelessness_under_permutation(self, semi_model):
        rng = np.random.default_rng(23)
        t = np.arange(0, 40, 0.5)
        v = rng.uniform(0, 30, t.size)
        a = rng.uniform(-2, 2, t.size)
        direct = evaluate(semi_model, v, a, 0.0)
        perm = rng.permutation(t.size)
        shuffled = evaluate(semi_model, v[perm], a[perm], 0.0)
        unshuffled = np.empty_like(shuffled["fuel"])
        unshuffled[perm] = shuffled["fuel"]
        assert np.array_equal(direct["fuel"], unshuffled)

    def test_cumulative_fuel_matches_trapezoid_oracle(self, semi_model, dataset):
        tr = dataset.traces[0]
        model_trace = eval_semi_trace(semi_model, tr.t, tr.v, tr.a)
        from vcdfuel.validation import cumulative_fuel
        total, _ = cumulative_fuel(model_trace.t, model_trace.fuel)
        assert total == pytest.approx(trapezoid_oracle(model_trace.t, model_trace.fuel), rel=1e-12)


class TestFidelity:
    def test_cruising_fuel_mae_bound(self, semi_model, dataset):
        tr = next(t for t in dataset.traces if t.name == "cruise")
        model = eval_semi_trace(semi_model, tr.t, tr.v, tr.a)
        rec = compare_pair("cruise", tr, model)
        assert rec.mae_fuel_gps <= 0.0812

    def test_gear_matches_reference_on_90_percent(self, semi_model, dataset):
        total, matched = 0, 0
        for tr in dataset.traces:
            model = eval_semi_trace(semi_model, tr.t, tr.v, tr.a)
            matched += int(np.count_nonzero(model.gear == tr.gear))
            total += len(tr)
        assert matched / total >= 0.90


class TestSerialization:
    def test_round_trip_preserves_evaluation(self, semi_model, tmp_path):
        path = tmp_path / "semi_model.json"
        write_json(path, model_to_dict(semi_model))
        back = load_semi_model(path)
        rng = np.random.default_rng(24)
        v = rng.uniform(0, semi_model.speed_max, 500)
        a = rng.uniform(-4, 4, 500)
        g = rng.uniform(-0.1, 0.1, 500)
        before = evaluate(semi_model, v, a, g)
        after = evaluate(back, v, a, g)
        for key in ("gear", "fuel", "engine_speed", "engine_torque"):
            assert np.allclose(before[key], after[key], rtol=0, atol=1e-12)

    def test_dict_round_trip_stable(self, semi_model):
        doc = model_to_dict(semi_model)
        assert model_to_dict(model_from_dict(doc)) == doc
