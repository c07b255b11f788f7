import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vcdfuel import simplified
from vcdfuel.errors import InvalidArgument
from vcdfuel.jsonio import write_json
from vcdfuel.powertrain import (
    GRAVITY,
    max_wheel_torque_by_gear,
    road_load,
    transmission_output_speed,
)
from vcdfuel.semi_principled import ACCEL_LIMITS, GRADE_LIMITS, evaluate
from vcdfuel.simplified import (
    CUT_BOUNDARY_TERMS,
    FitGrid,
    SimplifiedModel,
    default_grid,
    eval_simplified,
    eval_simplified_trace,
    fit_simplified,
    fit_to_function,
    load_simplified,
    simplified_to_dict,
)

ORACLE = SimplifiedModel(
    beta=0.05,
    cut_speed=5.0,
    coeff_c=[0.6, 0.02, 0.001, 1e-5],
    coeff_p=[0.05, 0.002, 1e-5],
    coeff_q=[0.01, 0.0005],
    coeff_z=[2.0, 0.05],
    cut_boundary=[-0.5, -0.02, 0.3, 0.0, 0.0, 0.0],
    v_range=(0.0, 30.0),
    a_range=(-1.0, 2.5),
    grade_range=(-0.12, 0.12),
)

ORACLE_GRID = FitGrid(v_range=(0.0, 30.0), a_range=(-1.0, 2.5),
                      grade_range=(-0.12, 0.12), shape=(48, 36, 11))


def refit_oracle(grid=ORACLE_GRID):
    return fit_to_function(lambda v, a, g: eval_simplified(ORACLE, v, a, g),
                           cut_speed=ORACLE.cut_speed, beta=ORACLE.beta, grid=grid)


class TestExactRecovery:
    def test_all_coefficients_recovered(self):
        fit = refit_oracle()
        for name in ("coeff_c", "coeff_p", "coeff_q", "coeff_z"):
            got = getattr(fit, name)
            want = getattr(ORACLE, name)
            assert np.allclose(got, want, rtol=1e-6, atol=0), name
        assert fit.beta == ORACLE.beta
        assert fit.cut_speed == ORACLE.cut_speed
        assert fit.diagnostics["positivity_shift"] == 0.0

    def test_quadrature_convergence_on_representable_target(self):
        coarse = refit_oracle(ORACLE_GRID)
        fine = refit_oracle(dataclasses.replace(
            ORACLE_GRID, shape=tuple(2 * n for n in ORACLE_GRID.shape)))
        for name in ("coeff_c", "coeff_p", "coeff_q", "coeff_z"):
            a, b = getattr(coarse, name), getattr(fine, name)
            assert np.all(np.abs(b - a) <= 0.01 * np.abs(a) + 1e-12), name

    def test_fit_is_local_minimum_of_quadrature_error(self):
        # perturbing any single coefficient by +-1% may not reduce the L2
        # error over the included cells; oracle computed with plain loops
        fit = refit_oracle()
        v_ax, a_ax, g_ax = ORACLE_GRID.axes()
        cells = []
        for v in v_ax:
            for a in a_ax:
                for g in g_ax:
                    fuel = eval_simplified(ORACLE, v, a, g)
                    if v < 0.1 or (fuel == 0.0 and v > ORACLE.cut_speed):
                        continue
                    cells.append((v, a, g, fuel))

        def objective(model):
            total = 0.0
            for v, a, g, fuel in cells:
                total += (model.positive_part(v, a, g) - fuel) ** 2
            return total

        base = objective(fit)
        for name in ("coeff_c", "coeff_p", "coeff_q", "coeff_z"):
            coeffs = getattr(fit, name)
            for i in range(coeffs.size):
                for sign in (+1, -1):
                    perturbed = {n: getattr(fit, n).copy()
                                 for n in ("coeff_c", "coeff_p", "coeff_q", "coeff_z")}
                    perturbed[name][i] *= 1.0 + sign * 0.01
                    variant = SimplifiedModel(
                        beta=fit.beta, cut_speed=fit.cut_speed,
                        cut_boundary=fit.cut_boundary, v_range=fit.v_range,
                        a_range=fit.a_range, grade_range=fit.grade_range, **perturbed)
                    assert objective(variant) >= base - 1e-12


class TestEvalBranches:
    def test_standstill_at_least_beta(self, simplified_model):
        for a in (-3.0, 0.0, 2.0):
            assert eval_simplified(simplified_model, 0.0, a) >= simplified_model.beta

    def test_cut_region_exactly_zero(self, simplified_model):
        m = simplified_model
        rng = np.random.default_rng(31)
        v = rng.uniform(m.cut_speed + 0.5, m.v_range[1], 500)
        boundary = m.cut_accel(v, 0.0)
        a = boundary - rng.uniform(0.05, 1.0, 500)
        fuel = eval_simplified(m, v, a, 0.0)
        assert np.all(fuel == 0.0)

    def test_below_cut_speed_never_cut(self, simplified_model):
        m = simplified_model
        fuel = eval_simplified(m, m.cut_speed - 0.5, -4.0)
        assert fuel >= m.beta

    def test_acceleration_difference_identity(self, simplified_model):
        # f(v,1,0) - f(v,0,0) == P(v) + Q(v) wherever both sit on the
        # polynomial branch; right-hand side evaluated directly
        m = simplified_model
        v = np.linspace(m.cut_speed + 1, m.v_range[1], 40)
        f1 = eval_simplified(m, v, np.ones_like(v), 0.0)
        f0 = eval_simplified(m, v, np.zeros_like(v), 0.0)
        on_branch = (f1 > 0) & (f0 > 0) & (f0 > m.beta)
        expected = npoly.polyval(v, m.coeff_p) + npoly.polyval(v, m.coeff_q)
        assert np.allclose((f1 - f0)[on_branch], expected[on_branch], rtol=1e-12)

    def test_scalar_and_array_agree(self, simplified_model):
        m = simplified_model
        assert eval_simplified(m, 12.0, 0.5) == eval_simplified(m, np.array([12.0]), 0.5)[0]


class TestTraceEvaluation:
    def test_constant_standstill(self, simplified_model):
        t = np.arange(0.0, 5.0, 0.5)
        trace = eval_simplified_trace(simplified_model, t, np.zeros_like(t), np.zeros_like(t))
        assert np.all(trace.fuel == simplified_model.beta)
        assert trace.gear is None and trace.engine_speed is None

    def test_statelessness_under_permutation(self, simplified_model):
        rng = np.random.default_rng(32)
        v = rng.uniform(0, 30, 200)
        a = rng.uniform(-3, 3, 200)
        direct = eval_simplified(simplified_model, v, a, 0.0)
        perm = rng.permutation(200)
        shuffled = eval_simplified(simplified_model, v[perm], a[perm], 0.0)
        unshuffled = np.empty_like(shuffled)
        unshuffled[perm] = shuffled
        assert np.array_equal(direct, unshuffled)

    def test_cumulative_fuel_matches_trapezoid_oracle(self, simplified_model, dataset):
        from vcdfuel.validation import cumulative_fuel
        tr = dataset.traces[0]
        model_trace = eval_simplified_trace(simplified_model, tr.t, tr.v, tr.a)
        total, _ = cumulative_fuel(model_trace.t, model_trace.fuel)
        oracle = 0.0
        for i in range(len(tr) - 1):
            oracle += 0.5 * (model_trace.fuel[i] + model_trace.fuel[i + 1]) \
                * (model_trace.t[i + 1] - model_trace.t[i])
        assert total == pytest.approx(oracle, rel=1e-12)


class TestStructure:
    def test_positivity_along_lower_edge(self, simplified_model):
        m = simplified_model
        v = np.linspace(m.v_range[0], m.v_range[1], 200)
        assert np.all(m.positive_part(v, m.min_accel(v), 0.0) > 0)

    def test_monotone_in_acceleration(self, simplified_model):
        m = simplified_model
        v = np.linspace(m.v_range[0], m.v_range[1], 100)
        a = np.linspace(-4.0, 4.0, 100)
        vv, aa = np.meshgrid(v, a, indexing="ij")
        fp = m.positive_part(vv, aa, 0.0)
        band = aa[:, :-1] >= m.min_accel(vv[:, :-1])
        assert np.all(np.diff(fp, axis=1)[band] >= -1e-9)

    def test_grade_derivative_is_z_independent_of_accel(self, simplified_model):
        m = simplified_model
        rng = np.random.default_rng(33)
        h = 0.01
        expected = None
        for a in (-0.3, 0.0, 0.9, 2.0):
            v = rng.uniform(1.0, m.v_range[1] - 1, 50)
            hi = m.positive_part(v, np.full_like(v, a), h)
            lo = m.positive_part(v, np.full_like(v, a), -h)
            fd = (hi - lo) / (2 * h)
            z = npoly.polyval(v, m.coeff_z)
            assert np.allclose(fd, z, rtol=1e-9)

    def test_surface_converges_under_grid_refinement(self, semi_model, simplified_model):
        # function-space statement: the fitted polynomial branch moves by
        # less than 1% of the surface scale when the quadrature grid doubles
        grid = default_grid(semi_model)
        fine = fit_simplified(semi_model, dataclasses.replace(
            grid, shape=tuple(2 * n for n in grid.shape)))
        m = simplified_model
        v = np.linspace(0, m.v_range[1], 60)
        a = np.linspace(m.a_range[0], m.a_range[1], 40)
        vv, aa = np.meshgrid(v, a, indexing="ij")
        coarse_surface = m.positive_part(vv, aa, 0.0)
        fine_surface = fine.positive_part(vv, aa, 0.0)
        scale = np.max(np.abs(coarse_surface))
        assert np.max(np.abs(fine_surface - coarse_surface)) < 0.01 * scale


def reference_domain_excess(model, v, a, grade):
    """Map-domain overshoot with the wheel force and each gear's force cap
    recomputed by hand for the gears ``evaluate`` selects."""
    p = model.params
    gear = evaluate(model, v, a, grade)["gear"]
    v = np.clip(v, 0, model.speed_max)
    force = p.gear_masses[gear - 1] * np.clip(a, *ACCEL_LIMITS) + road_load(p, v) \
        + p.mass * GRAVITY * np.sin(np.clip(grade, *GRADE_LIMITS))
    n_out = transmission_output_speed(p, v)
    excess = np.zeros_like(n_out)
    for k in range(1, p.n_gears + 1):
        mask = gear == k
        if not np.any(mask):
            continue
        f_cap = max_wheel_torque_by_gear(p, model.shift_maps, v[mask])[k - 1] / p.tire_radius
        f_used = np.minimum(force[mask], f_cap)
        for poly in (model.engine_speed_maps[k - 1], model.torque_maps[k - 1]):
            (x0, x1), (y0, y1) = poly.domain
            ex = np.maximum(np.maximum(x0 - n_out[mask], n_out[mask] - x1), 0.0) / max(x1 - x0, 1e-9)
            ey = np.maximum(np.maximum(y0 - f_used, f_used - y1), 0.0) / max(y1 - y0, 1e-9)
            excess[mask] = np.maximum(excess[mask], np.maximum(ex, ey))
    return excess


class TestSinglePass:
    def test_fit_evaluates_semi_model_once(self, semi_model, monkeypatch):
        calls = []

        def counting_evaluate(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(simplified, "evaluate", counting_evaluate)
        fit_simplified(semi_model)
        assert len(calls) == 1

    def test_domain_excess_matches_recomputation(self, semi_model):
        axes = default_grid(semi_model).axes()
        v, a, grade = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
        excess = evaluate(semi_model, v, a, grade)["excess"]
        assert np.any(excess > 0)
        assert np.array_equal(excess, reference_domain_excess(semi_model, v, a, grade))


class TestFitGrid:
    def test_minimum_resolution_enforced(self):
        with pytest.raises(ValueError):
            FitGrid((0, 30), (-1, 2), (-0.1, 0.1), shape=(48, 9, 11))

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["v", "a", "grade"])
    @pytest.mark.parametrize("flip", [lambda lo, hi: (hi, lo), lambda lo, hi: (lo, lo)],
                             ids=["reversed", "empty"])
    def test_range_must_increase(self, axis, flip):
        ranges = [(0.0, 30.0), (-1.0, 2.5), (-0.12, 0.12)]
        ranges[axis] = flip(*ranges[axis])
        with pytest.raises(InvalidArgument, match="must have lo < hi"):
            FitGrid(*ranges)

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidArgument, match="degrees must be nonnegative"):
            fit_to_function(lambda v, a, g: eval_simplified(ORACLE, v, a, g),
                            cut_speed=ORACLE.cut_speed, beta=ORACLE.beta, grid=ORACLE_GRID,
                            degrees={"C": -1})

    def test_midpoint_axes(self):
        grid = FitGrid((0.0, 10.0), (-1.0, 1.0), (-0.1, 0.1), shape=(10, 10, 10))
        v_ax, _, _ = grid.axes()
        assert v_ax[0] == pytest.approx(0.5)
        assert v_ax[-1] == pytest.approx(9.5)


class TestPositivityProjection:
    def test_lifts_only_the_constant_term(self):
        low = dataclasses.replace(ORACLE, coeff_c=[-2.0, 0.02, 0.001, 1e-5])
        fixed = simplified._enforce_positivity(low)
        shift = fixed.diagnostics["positivity_shift"]
        assert shift > 2.0 and "positivity_shift" not in low.diagnostics
        assert fixed.coeff_c[0] == -2.0 + shift
        assert np.array_equal(fixed.coeff_c[1:], low.coeff_c[1:])
        for name in ("beta", "cut_speed", "coeff_p", "coeff_q", "coeff_z", "cut_boundary",
                     "v_range", "a_range", "grade_range"):
            assert np.array_equal(getattr(fixed, name), getattr(low, name)), name


class TestSerialization:
    def test_round_trip(self, simplified_model, tmp_path):
        path = tmp_path / "simplified_model.json"
        write_json(path, simplified_to_dict(simplified_model))
        back = load_simplified(path)
        rng = np.random.default_rng(34)
        v = rng.uniform(0, 30, 300)
        a = rng.uniform(-4, 4, 300)
        g = rng.uniform(-0.1, 0.1, 300)
        assert np.array_equal(eval_simplified(back, v, a, g),
                              eval_simplified(simplified_model, v, a, g))

    def test_cut_boundary_terms_documented(self, simplified_model):
        from vcdfuel.simplified import simplified_to_dict
        doc = simplified_to_dict(simplified_model)
        assert doc["cut_boundary_terms"] == [list(t) for t in CUT_BOUNDARY_TERMS]


# any finite (v, a, grade): mostly near the fitted box, often far outside it
finite = st.floats(allow_nan=False, allow_infinity=False)
points = st.lists(st.tuples(st.one_of(st.floats(-5.0, 60.0), finite),
                            st.one_of(st.floats(-6.0, 6.0), finite),
                            st.one_of(st.floats(-0.2, 0.2), finite)), min_size=1, max_size=64)


class TestTotality:
    @given(points)
    def test_semi_fuel_finite_nonnegative(self, semi_model, pts):
        v, a, g = np.array(pts).T
        fuel = evaluate(semi_model, v, a, g)["fuel"]
        assert np.all(np.isfinite(fuel)) and np.all(fuel >= 0)

    @given(points)
    def test_simplified_cut_and_floor(self, simplified_model, pts):
        m = simplified_model
        v, a, g = np.array(pts).T
        fuel = eval_simplified(m, v, a, g)
        assert np.all(np.isfinite(fuel)) and np.all(fuel >= 0)
        vv, aa, gg = np.clip(v, *m.v_range), np.clip(a, *m.a_range), np.clip(g, *m.grade_range)
        cut = (vv > m.cut_speed) & (aa < m.cut_accel(vv, gg))
        assert np.all(fuel[cut] == 0)
        assert np.all(fuel[v <= m.cut_speed] >= m.beta)
