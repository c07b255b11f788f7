"""Both reduced models' evaluators against plain references.

The references below are the evaluators as a per-gear loop: every gear's
peak wheel torque one gear at a time, and each gear's driveline maps
evaluated through ``PolyMap2D`` on the points that selected it. The
one-pass library versions must match them bit for bit on every output.
"""

import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vcdfuel.errors import InvalidArgument
from vcdfuel.extraction import PolyMap2D
from vcdfuel.powertrain import (
    GRAVITY,
    STANDSTILL_SPEED,
    launch_torque,
    max_wheel_torque_by_gear,
    road_load,
    transmission_output_speed,
    wheel_force,
)
from vcdfuel.semi_principled import (
    ACCEL_LIMITS,
    GRADE_LIMITS,
    evaluate,
    select_gear_stateless,
)
from vcdfuel.simplified import CUT_BOUNDARY_TERMS, default_grid, eval_simplified
from vcdfuel.trace import FLAG_CLAMPED, FLAG_ENVELOPE, FLAG_FLOOR

# --- references ----------------------------------------------------------------


def loop_max_wheel_torque_by_gear(params, maps, v):
    rows = []
    for k in range(1, params.n_gears + 1):
        ratio = params.final_drive * params.gear_ratios[k - 1]
        n = transmission_output_speed(params, v) * params.gear_ratios[k - 1]
        t_engine = maps.max_engine_torque(np.maximum(n, params.engine_speed_idle))
        rows.append(np.where(n <= params.engine_speed_max,
                             t_engine * ratio * params.driveline_eff, 0.0))
    return np.stack(rows)


def loop_evaluate(model, v, a, grade=0.0):
    p = model.params
    c = model.constants
    v = np.atleast_1d(np.asarray(v, dtype=float))
    a = np.broadcast_to(np.asarray(a, dtype=float), v.shape).copy()
    grade = np.broadcast_to(np.asarray(grade, dtype=float), v.shape).copy()

    flags = np.zeros(v.shape, dtype=int)
    clamped = (v < 0) | (v > model.speed_max) | (a < ACCEL_LIMITS[0]) | (a > ACCEL_LIMITS[1]) \
        | (grade < GRADE_LIMITS[0]) | (grade > GRADE_LIMITS[1])
    flags[clamped] |= FLAG_CLAMPED
    v = np.clip(v, 0.0, model.speed_max)
    a = np.clip(a, *ACCEL_LIMITS)
    grade = np.clip(grade, *GRADE_LIMITS)

    force_est = p.mass * a + road_load(p, v) + p.mass * GRAVITY * np.sin(grade)
    t_gear = loop_max_wheel_torque_by_gear(p, model.shift_maps, v)
    t_wmax = np.max(t_gear, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        pedal = np.where(t_wmax > 0,
                         100.0 * np.maximum(force_est, 0.0) * p.tire_radius / t_wmax, 0.0)
    pedal = np.clip(pedal, 0.0, 100.0)

    gear = select_gear_stateless(model, v, pedal)
    force = wheel_force(p, v, a, grade, gear)
    f_cap = np.take_along_axis(t_gear, gear[None] - 1, axis=0)[0] / p.tire_radius
    map_force = np.minimum(force, f_cap)
    flags |= np.where(force > f_cap, FLAG_ENVELOPE, 0)
    n_out = transmission_output_speed(p, v)

    engine_speed = np.zeros_like(v)
    engine_torque = np.zeros_like(v)
    for k in range(1, p.n_gears + 1):
        mask = gear == k
        if not np.any(mask):
            continue
        n_map = model.engine_speed_maps[k - 1]
        t_map = model.torque_maps[k - 1]
        x, y = n_out[mask], map_force[mask]
        flags[mask] |= np.where(n_map.out_of_domain(x, y) | t_map.out_of_domain(x, y),
                                FLAG_CLAMPED, 0)
        engine_speed[mask] = n_map.evaluate(x, y)
        engine_torque[mask] = t_map.evaluate(x, y)
    engine_torque[gear == 1] += launch_torque(c.launch_correction, a[gear == 1])

    engine_speed = np.clip(engine_speed, p.engine_speed_idle, p.engine_speed_max)
    t_cap = model.shift_maps.max_engine_torque(engine_speed)
    flags |= np.where(engine_torque > t_cap, FLAG_ENVELOPE, 0)
    flags |= np.where(engine_torque < c.torque_floor, FLAG_FLOOR, 0)
    engine_torque = np.clip(engine_torque, c.torque_floor, t_cap)

    fuel = np.maximum(0.0, model.fuel_map.evaluate(engine_speed, engine_torque))
    # the torque floor lies below the fuel map's box: a floored row is not clamped for it
    flags |= np.where(model.fuel_map.out_of_domain(engine_speed, engine_torque)
                      & (flags & FLAG_FLOOR == 0), FLAG_CLAMPED, 0)
    cut = (v > c.cut_speed) & (force < c.cut_force)
    fuel[cut] = 0.0

    idle = v < STANDSTILL_SPEED
    gear[idle] = 1
    engine_speed[idle] = p.engine_speed_idle
    engine_torque[idle] = c.torque_floor
    pedal[idle] = 0.0
    fuel[idle] = c.idle_fuel
    # a standstill row's outputs are the idle constants: only a clamped input flags it
    flags[idle] = np.where(clamped[idle], FLAG_CLAMPED, 0)

    return {"gear": gear, "engine_speed": engine_speed, "engine_torque": engine_torque,
            "pedal": pedal, "fuel": fuel, "flags": flags,
            "excess": loop_domain_excess(model, v, gear, map_force)}


def loop_domain_excess(model, v, gear, map_force):
    v = np.clip(np.atleast_1d(np.asarray(v, dtype=float)), 0.0, model.speed_max)
    n_out = transmission_output_speed(model.params, v)
    excess = np.zeros_like(n_out)
    for k in range(1, model.params.n_gears + 1):
        mask = gear == k
        if not np.any(mask):
            continue
        inputs = (n_out[mask], map_force[mask])
        for poly in (model.engine_speed_maps[k - 1], model.torque_maps[k - 1]):
            for x, (lo, hi) in zip(inputs, poly.domain):
                over = np.maximum(np.maximum(lo - x, x - hi), 0.0) / max(hi - lo, 1e-9)
                excess[mask] = np.maximum(excess[mask], over)
    return excess


def loop_eval_simplified(model, v, a, grade=0.0, with_flags=False):
    v_in = np.atleast_1d(np.asarray(v, dtype=float))
    a_in = np.broadcast_to(np.asarray(a, dtype=float), v_in.shape)
    g_in = np.broadcast_to(np.asarray(grade, dtype=float), v_in.shape)
    clamped = (v_in < model.v_range[0]) | (v_in > model.v_range[1]) \
        | (a_in < model.a_range[0]) | (a_in > model.a_range[1]) \
        | (g_in < model.grade_range[0]) | (g_in > model.grade_range[1])
    vv = np.clip(v_in, *model.v_range)
    aa = np.clip(a_in, *model.a_range)
    gg = np.clip(g_in, *model.grade_range)

    a_plus = np.maximum(aa, 0.0)
    fp = (npoly.polyval(vv, model.coeff_c) + npoly.polyval(vv, model.coeff_p) * aa
          + npoly.polyval(vv, model.coeff_q) * a_plus ** 2 + npoly.polyval(vv, model.coeff_z) * gg)
    boundary = np.zeros(vv.shape)
    for c, (i, j) in zip(model.cut_boundary, CUT_BOUNDARY_TERMS):
        boundary = boundary + c * vv ** i * gg ** j
    fuel = np.maximum(fp, 0.0)
    low = vv <= model.cut_speed
    fuel[low] = np.maximum(fp[low], model.beta)
    cut = ~low & (aa < boundary)
    fuel[cut] = 0.0
    return (fuel, clamped) if with_flags else fuel


def assert_bit_identical(got, want, key):
    assert got.dtype == want.dtype, key
    assert got.shape == want.shape, key
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), key


# --- inputs --------------------------------------------------------------------


@pytest.fixture(scope="module", params=["fitted", "launch", "distinct-boxes"])
def model(request, semi_model):
    """The fitted model, one with a nonzero launch correction, and one whose
    torque-map boxes are shifted against the engine-speed-map boxes."""
    if request.param == "launch":
        constants = dataclasses.replace(semi_model.constants,
                                        launch_correction=((0, 0), (1, 15), (3, 40)))
        return dataclasses.replace(semi_model, constants=constants)
    if request.param == "distinct-boxes":
        def shifted(m):
            (x0, x1), (y0, y1) = m.domain
            dx, dy = 0.15 * (x1 - x0), 0.15 * (y1 - y0)
            return dataclasses.replace(m, domain=((x0 + dx, x1 + dx), (y0 - dy, y1 - dy)))
        return dataclasses.replace(semi_model,
                                   torque_maps=tuple(shifted(m) for m in semi_model.torque_maps))
    return semi_model


def anchors(speed_max):
    """A fixed sweep appended to every drawn batch: standstill, every gear,
    the fuel cut, both engine envelopes and far out-of-box points."""
    v = np.linspace(0.0, speed_max * 1.1, 45)
    a = np.array([-4.0, -1.0, 0.0, 0.4, 1.5, 3.5])
    vv, aa = (x.ravel() for x in np.meshgrid(v, a, indexing="ij"))
    gg = np.resize([-0.14, -0.05, 0.0, 0.06, 0.2], vv.size)
    return vv, aa, gg


def with_anchors(speed_max, pts):
    v, a, g = np.array(pts, dtype=float).reshape(-1, 3).T
    av, aa, ag = anchors(speed_max)
    return np.concatenate([v, av]), np.concatenate([a, aa]), np.concatenate([g, ag])


# mostly near the models' boxes, sometimes anywhere, infinities included
anything = st.floats(allow_nan=False)
points = st.lists(st.tuples(st.one_of(st.floats(-5.0, 60.0), anything),
                            st.one_of(st.floats(-6.0, 6.0), anything),
                            st.one_of(st.floats(-0.2, 0.2), anything)), max_size=48)


class TestSemiOracle:
    def test_anchors_reach_every_branch(self, model):
        v, a, g = anchors(model.speed_max)
        out = evaluate(model, v, a, g)
        moving = v >= STANDSTILL_SPEED
        assert set(out["gear"][moving].tolist()) == set(range(1, model.params.n_gears + 1))
        assert np.any(~moving)
        assert np.any((out["fuel"] == 0.0) & moving)
        for flag in (FLAG_CLAMPED, FLAG_ENVELOPE, FLAG_FLOOR):
            assert np.any(out["flags"] & flag), flag
        assert np.any(out["excess"] > 0)

    @given(pts=points)
    def test_every_output_bit_identical(self, model, pts):
        v, a, g = with_anchors(model.speed_max, pts)
        got, want = evaluate(model, v, a, g), loop_evaluate(model, v, a, g)
        assert got.keys() == want.keys()
        for key in want:
            assert_bit_identical(got[key], want[key], key)

    def test_default_fit_grid_bit_identical(self, model):
        axes = default_grid(model).axes()
        v, a, g = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
        assert v.size == 19008
        got, want = evaluate(model, v, a, g), loop_evaluate(model, v, a, g)
        for key in want:
            assert_bit_identical(got[key], want[key], key)

    @given(v=st.lists(st.one_of(st.floats(-5.0, 80.0), anything), min_size=1, max_size=64))
    def test_max_wheel_torque_by_gear_bit_identical(self, semi_model, v):
        p, maps = semi_model.params, semi_model.shift_maps
        v = np.array(v)
        assert_bit_identical(max_wheel_torque_by_gear(p, maps, v),
                             loop_max_wheel_torque_by_gear(p, maps, v), "by_gear")
        assert_bit_identical(max_wheel_torque_by_gear(p, maps, float(v[0])),
                             loop_max_wheel_torque_by_gear(p, maps, float(v[0])), "scalar")


class TestSimplifiedOracle:
    @given(pts=points)
    def test_fuel_and_flags_bit_identical(self, simplified_model, pts):
        v, a, g = with_anchors(simplified_model.v_range[1], pts)
        fuel, clamped = eval_simplified(simplified_model, v, a, g, with_flags=True)
        want_fuel, want_clamped = loop_eval_simplified(simplified_model, v, a, g, with_flags=True)
        assert_bit_identical(fuel, want_fuel, "fuel")
        assert_bit_identical(clamped, want_clamped, "clamped")
        assert_bit_identical(eval_simplified(simplified_model, v, a, g), want_fuel, "fuel only")

    def test_default_fit_grid_bit_identical(self, semi_model, simplified_model):
        axes = default_grid(semi_model).axes()
        v, a, g = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
        assert_bit_identical(eval_simplified(simplified_model, v, a, g),
                             loop_eval_simplified(simplified_model, v, a, g), "fuel")


class TestInputContract:
    @pytest.mark.parametrize("shape_of", [
        lambda n: (10.0, np.linspace(-1, 2, n), 0.0),
        lambda n: (np.linspace(0, 30, n), 0.5, 0.01),
        lambda n: (12.0, 0.3, np.linspace(-0.1, 0.1, n)),
        lambda n: (np.linspace(0, 30, n)[:, None], np.linspace(-1, 2, 3), 0.0),
    ], ids=["scalar-v", "scalar-a", "scalar-v-and-a", "column-and-row"])
    def test_inputs_broadcast_together(self, semi_model, simplified_model, shape_of):
        v, a, g = shape_of(7)
        full = [np.array(np.broadcast_to(x, np.broadcast(v, a, g).shape)) for x in (v, a, g)]
        got, want = evaluate(semi_model, v, a, g), evaluate(semi_model, *full)
        for key in want:
            assert_bit_identical(got[key], want[key], key)
        fuel = eval_simplified(simplified_model, v, a, g)
        assert_bit_identical(fuel, eval_simplified(simplified_model, *full), "simplified")

    def test_simplified_scalar_only_for_scalar_inputs(self, simplified_model):
        assert isinstance(eval_simplified(simplified_model, 10.0, 0.5, 0.01), float)
        fuel = eval_simplified(simplified_model, 10.0, np.array([0.1, 0.5]))
        assert isinstance(fuel, np.ndarray) and fuel.shape == (2,)
        assert fuel[1] == eval_simplified(simplified_model, 10.0, 0.5)

    @given(size=st.integers(1, 300), column=st.integers(0, 2), data=st.data())
    def test_nan_named_with_count(self, semi_model, simplified_model, size, column, data):
        where = data.draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))
        args = [np.full(size, x) for x in (12.0, 0.5, 0.01)]
        args[column][where] = np.nan
        message = f"^{('v', 'a', 'grade')[column]} has {len(where)} NaN entries$"
        with pytest.raises(InvalidArgument, match=message):
            evaluate(semi_model, *args)
        with pytest.raises(InvalidArgument, match=message):
            eval_simplified(simplified_model, *args)

    def test_shapes_that_do_not_broadcast_named(self, semi_model, simplified_model):
        message = r"^v \(3,\), a \(2,\) and grade \(\) do not broadcast together$"
        with pytest.raises(InvalidArgument, match=message):
            evaluate(semi_model, np.zeros(3), np.zeros(2))
        with pytest.raises(InvalidArgument, match=message):
            eval_simplified(simplified_model, np.zeros(3), np.zeros(2))

    def test_infinities_clamp(self, semi_model, simplified_model):
        v, a = np.array([np.inf, -np.inf, 20.0]), np.array([0.5, 0.5, -np.inf])
        out = evaluate(semi_model, v, a, np.inf)
        assert np.all(np.isfinite(out["fuel"])) and np.all(out["flags"] & FLAG_CLAMPED)
        fuel, clamped = eval_simplified(simplified_model, v, a, np.inf, with_flags=True)
        assert np.all(np.isfinite(fuel)) and np.all(clamped)


class TestFlagMeaning:
    """On the map-based model FLAG_CLAMPED means a clamped input or a map input
    outside its box; a standstill row, whose outputs are the idle constants,
    carries only the first."""

    def test_standstill_rows_flag_only_their_inputs(self, semi_model):
        flags = evaluate(semi_model, [0.0, -np.inf, 0.0], [0.0, 0.0, 9.0])["flags"]
        assert flags.tolist() == [0, FLAG_CLAMPED, FLAG_CLAMPED]

    def test_floored_row_is_not_clamped(self, semi_model):
        out = evaluate(semi_model, 15.0, -0.5)
        assert semi_model.constants.torque_floor < semi_model.fuel_map.domain[1][0]
        assert out["flags"][0] == FLAG_FLOOR and out["excess"][0] == 0.0

    def test_torque_above_the_fuel_map_box_is_clamped(self, semi_model):
        out = evaluate(semi_model, 12.0, 3.0)
        assert out["excess"][0] == 0.0 and not out["flags"][0] & (FLAG_CLAMPED | FLAG_FLOOR)
        (n_lo, n_hi), (t_lo, _) = semi_model.fuel_map.domain
        box = dataclasses.replace(semi_model.fuel_map,
                                  domain=((n_lo, n_hi), (t_lo, 0.5 * out["engine_torque"][0])))
        lowered = dataclasses.replace(semi_model, fuel_map=box)
        assert evaluate(lowered, 12.0, 3.0)["flags"][0] & FLAG_CLAMPED


class TestOnePass:
    def test_gear_maps_not_evaluated_per_gear(self, semi_model, monkeypatch):
        """One evaluate call on points that select all six gears evaluates
        no PolyMap2D but the fuel map: the gear maps are gathered, not looped."""
        rng = np.random.default_rng(91)
        v = rng.uniform(0.0, semi_model.speed_max, 1000)
        a = rng.uniform(-1.0, 2.0, 1000)
        g = rng.uniform(-0.05, 0.05, 1000)
        assert set(evaluate(semi_model, v, a, g)["gear"].tolist()) == set(range(1, 7))
        calls = []
        original = PolyMap2D.evaluate

        def counting(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PolyMap2D, "evaluate", counting)
        evaluate(semi_model, v, a, g)
        assert len(calls) == 1 and calls[0] is semi_model.fuel_map


class TestGearMapDegrees:
    def test_unequal_degrees_rejected(self, semi_model):
        m = semi_model.torque_maps[2]
        odd = dataclasses.replace(m, degree=(2, 1),
                                  coeffs_std=np.vstack([m.coeffs_std, np.zeros((1, 2))]))
        maps = semi_model.torque_maps[:2] + (odd,) + semi_model.torque_maps[3:]
        with pytest.raises(InvalidArgument, match=r"one degree, got \[\[1, 1\], \[2, 1\]\]"):
            dataclasses.replace(semi_model, torque_maps=maps)
