"""The simplified-model fit and the fuel chart against their former loops.

The references below walk the fit grid one (speed, grade) line and one
symmetric grade pair at a time, and format the chart one point at a time.
The array versions must give the same coefficient bytes, the same errors
and the same SVG text.
"""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vcdfuel import simplified, validation
from vcdfuel.errors import InsufficientData
from vcdfuel.simplified import (
    CUT_BOUNDARY_TERMS,
    FitGrid,
    fit_simplified,
    fit_to_function,
    simplified_to_dict,
)
from vcdfuel.validation import AlignedPair

# --- references ----------------------------------------------------------------


def loop_fit_grade_coefficient(v_ax, g_ax, fuel, include, degree, v_scale):
    vs, slopes = [], []
    n_g = len(g_ax)
    for i, v in enumerate(v_ax):
        acc = []
        for j in range(n_g // 2):
            k = n_g - 1 - j
            if abs(g_ax[j] + g_ax[k]) > 1e-12:
                continue
            both = include[i, :, j] & include[i, :, k]
            if np.any(both):
                diff = (fuel[i, both, k] - fuel[i, both, j]) / (g_ax[k] - g_ax[j])
                acc.extend(diff.tolist())
        if acc:
            vs.append(v)
            slopes.append(float(np.mean(acc)))
    if len(vs) < degree + 1:
        raise InsufficientData(f"only {len(vs)} grade-slope samples for degree {degree}")
    design = npoly.polyvander(np.array(vs) / v_scale, degree)
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.array(slopes), rcond=None)
    if rank < degree + 1:
        raise InsufficientData("grade-slope sample geometry is degenerate")
    return coeffs / v_scale ** np.arange(coeffs.size)


def loop_fit_cut_boundary(v_ax, a_ax, g_ax, cut_cells, cut_speed):
    half_step = 0.5 * (a_ax[1] - a_ax[0])
    vs, gs, bounds = [], [], []
    for i, v in enumerate(v_ax):
        if v <= cut_speed:
            continue
        for j, g in enumerate(g_ax):
            line = cut_cells[i, :, j]
            if np.any(line):
                bounds.append(a_ax[np.nonzero(line)[0].max()] + half_step)
                vs.append(v)
                gs.append(g)
    if len(bounds) < len(CUT_BOUNDARY_TERMS):
        raise InsufficientData(
            f"only {len(bounds)} cut-boundary samples for {len(CUT_BOUNDARY_TERMS)} terms")
    vs = np.array(vs)
    gs = np.array(gs)
    design = np.column_stack([vs ** i * gs ** j for i, j in CUT_BOUNDARY_TERMS])
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.array(bounds), rcond=None)
    if rank < len(CUT_BOUNDARY_TERMS):
        raise InsufficientData("cut-boundary sample geometry is degenerate")
    return coeffs


def loop_write_svg_panel(pair, path):
    width, height, margin = 900, 260, 30
    t = pair.t
    series = [("#1f77b4", pair.ref["fuel"]), ("#d62728", pair.model["fuel"])]
    top = max(1e-9, max(float(np.max(s)) for _, s in series))
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for color, values in series:
        pts = []
        for i in range(t.size):
            x = margin + (width - 2 * margin) * (t[i] - t[0]) / max(t[-1] - t[0], 1e-9)
            y = height - margin - (height - 2 * margin) * values[i] / top
            pts.append(f"{x:.1f},{y:.1f}")
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1" '
                     f'points="{" ".join(pts)}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def assert_bit_identical(got, want, key):
    assert got.dtype == want.dtype and got.shape == want.shape, key
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), key


def outcome(fn, *args):
    """The coefficients' bytes, or the type and message of the error raised."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except InsufficientData as exc:
        return type(exc), str(exc)


# --- fit -----------------------------------------------------------------------


@pytest.fixture
def loop_fit(monkeypatch):
    """Run fits with the reference loops in place of the library's passes."""
    def use_loops():
        monkeypatch.setattr(simplified, "_fit_grade_coefficient", loop_fit_grade_coefficient)
        monkeypatch.setattr(simplified, "_fit_cut_boundary", loop_fit_cut_boundary)
    return use_loops


class TestFitOracle:
    def test_default_fit_grid_bit_identical(self, semi_model, loop_fit):
        got = fit_simplified(semi_model)
        loop_fit()
        want = fit_simplified(semi_model)
        for name in ("coeff_c", "coeff_p", "coeff_q", "coeff_z", "cut_boundary"):
            assert_bit_identical(getattr(got, name), getattr(want, name), name)
        assert simplified_to_dict(got) == simplified_to_dict(want)

    def test_asymmetric_grade_range_same_error(self, semi_model, loop_fit):
        grid = FitGrid(v_range=(0.0, semi_model.speed_max), a_range=(-1.0, 2.5),
                       grade_range=(-0.05, 0.12))
        with pytest.raises(InsufficientData) as got:
            fit_simplified(semi_model, grid)
        loop_fit()
        with pytest.raises(InsufficientData) as want:
            fit_simplified(semi_model, grid)
        assert str(got.value) == str(want.value) == "only 0 grade-slope samples for degree 1"

    def test_grid_without_cut_cells(self):
        grid = FitGrid(v_range=(0.0, 30.0), a_range=(-1.0, 2.5), grade_range=(-0.1, 0.1),
                       shape=(12, 10, 10))
        v_ax, a_ax, g_ax = grid.axes()
        vg, ag, gg = np.meshgrid(v_ax, a_ax, g_ax, indexing="ij")
        fuel = 0.5 + 0.02 * vg + 0.3 * ag * ag + 2.0 * gg
        no_cut = np.zeros(fuel.shape, dtype=bool)
        message = (InsufficientData, "only 0 cut-boundary samples for 6 terms")
        assert outcome(simplified._fit_cut_boundary, v_ax, a_ax, g_ax, no_cut, 5.0) == message
        assert outcome(loop_fit_cut_boundary, v_ax, a_ax, g_ax, no_cut, 5.0) == message
        everywhere = np.ones(fuel.shape, dtype=bool)
        args = (v_ax, g_ax, fuel, everywhere, 1, 30.0)
        assert outcome(simplified._fit_grade_coefficient, *args) == \
            outcome(loop_fit_grade_coefficient, *args)
        with pytest.raises(InsufficientData, match="^only 0 cut-boundary samples for 6 terms$"):
            fit_to_function(lambda v, a, g: 0.5 + 0.02 * v + 0.3 * a * a + 2.0 * g,
                            cut_speed=5.0, beta=0.1, grid=grid)

    @given(shape=st.tuples(st.integers(2, 12), st.integers(2, 9), st.integers(2, 9)),
           symmetric=st.booleans(), density=st.floats(0.2, 1.0),
           seed=st.integers(0, 2**32 - 1), cut_speed=st.floats(-1.0, 20.0),
           degree=st.integers(0, 3))
    def test_drawn_masks_bit_identical(self, shape, symmetric, density, seed, cut_speed,
                                       degree):
        rng = np.random.default_rng(seed)
        v_ax = np.linspace(0.5, 30.0, shape[0])
        a_ax = np.linspace(-1.0, 2.5, shape[1])
        g_ax = np.linspace(-0.1 if symmetric else -0.03, 0.1, shape[2])
        fuel = rng.uniform(0.0, 3.0, shape)
        include = rng.random(shape) < density
        cut_cells = rng.random(shape) < density
        args = (v_ax, g_ax, fuel, include, degree, 30.0)
        assert outcome(simplified._fit_grade_coefficient, *args) == \
            outcome(loop_fit_grade_coefficient, *args)
        args = (v_ax, a_ax, g_ax, cut_cells, cut_speed)
        assert outcome(simplified._fit_cut_boundary, *args) == \
            outcome(loop_fit_cut_boundary, *args)


# --- chart ---------------------------------------------------------------------


fuel_values = st.floats(0.0, 50.0)


class TestChartOracle:
    @given(steps=st.lists(st.floats(1e-3, 10.0), max_size=60), t0=st.floats(-100.0, 100.0),
           data=st.data())
    def test_svg_text_identical(self, tmp_path_factory, steps, t0, data):
        t = t0 + np.concatenate([[0.0], np.cumsum(steps)])
        ref, model = (np.array(data.draw(st.lists(fuel_values, min_size=t.size,
                                                  max_size=t.size))) for _ in range(2))
        pair = AlignedPair(t=t, ref={"fuel": ref}, model={"fuel": model})
        root = tmp_path_factory.mktemp("svg")
        validation._write_svg_panel(pair, root / "got.svg")
        loop_write_svg_panel(pair, root / "want.svg")
        assert (root / "got.svg").read_text() == (root / "want.svg").read_text()

    def test_pipeline_pair_identical(self, dataset, simplified_model, tmp_path):
        ref = dataset.traces[0]
        model = simplified.eval_simplified_trace(simplified_model, ref.t, ref.v, ref.a,
                                                 ref.grade)
        pair = validation.align(ref, model)
        validation._write_svg_panel(pair, tmp_path / "got.svg")
        loop_write_svg_panel(pair, tmp_path / "want.svg")
        assert (tmp_path / "got.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()
