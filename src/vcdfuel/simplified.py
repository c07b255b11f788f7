"""Closed-form polynomial fuel model fit from the map-based model.

The target form is

    fuel(v, a, th) = C(v) + P(v)*a + Q(v)*max(a,0)**2 + Z(v)*th

above an explicit lower bound, with a hard fuel-cut region below a
polynomial boundary accel(v, th) and a standstill floor beta. Fitting is
plain linear least squares of the map-based model's fuel rate sampled on a
regular midpoint grid, with the cut and standstill cells excluded, followed
by a positivity projection on the constant term.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import ConstraintInfeasible, InvalidArgument, RankDeficient
from .jsonio import field_value, from_doc, read_json, to_doc
from .powertrain import STANDSTILL_SPEED, float_table
from .semi_principled import SemiPrincipledModel, broadcast_inputs, domain_excess, evaluate
from .trace import FLAG_CLAMPED, FLAG_ENVELOPE, FLAG_FLOOR, Trace

DEFAULT_DEGREES = {"C": 3, "P": 2, "Q": 1, "Z": 1}
POSITIVITY_MARGIN = 1e-3  # g/s kept above zero after projection
FIT_A_RANGE = (-1.0, 2.5)        # m/s2, default fit box (see default_grid)
FIT_GRADE_RANGE = (-0.12, 0.12)  # rad
FIT_SHAPE = (48, 36, 11)         # grid cells per (speed, acceleration, grade) axis
EXTRAPOLATION_MARGIN = 0.25      # share of a map box's span, see fit_simplified

# term exponents (i, j) of the cut-boundary polynomial sum c_ij v**i th**j,
# total degree <= 2
CUT_BOUNDARY_TERMS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
# their columns in npoly.polyvander2d(v, th, (2, 2))
CUT_BOUNDARY_COLUMNS = np.ravel_multi_index(np.transpose(CUT_BOUNDARY_TERMS), (3, 3))


@dataclass(frozen=True)
class FitGrid:
    """Regular midpoint grid over (speed, acceleration, grade)."""

    v_range: tuple[float, float]
    a_range: tuple[float, float]
    grade_range: tuple[float, float]
    shape: tuple[int, int, int] = FIT_SHAPE

    def __post_init__(self):
        if min(self.shape) < 10:
            raise InvalidArgument(f"need at least 10 grid cells per axis, got {list(self.shape)}")
        for axis, (lo, hi) in zip(("v", "a", "grade"),
                                  (self.v_range, self.a_range, self.grade_range)):
            if not lo < hi:
                raise InvalidArgument(f"fit grid {axis} range [{lo}, {hi}] must have lo < hi")

    def axes(self):
        out = []
        for (lo, hi), n in zip((self.v_range, self.a_range, self.grade_range), self.shape):
            step = (hi - lo) / n
            out.append(lo + step * (np.arange(n) + 0.5))
        return out


def default_grid(semi: SemiPrincipledModel) -> FitGrid:
    """Default fit box: full speed range, acceleration over the responsive
    band (below it the cut region rules, above it the torque envelope pins
    the output), grades within the map-based model's domain."""
    return FitGrid(v_range=(0.0, semi.speed_max), a_range=FIT_A_RANGE,
                   grade_range=FIT_GRADE_RANGE)


@dataclass(frozen=True)
class SimplifiedModel:
    beta: float       # g/s lower bound at and below the cut speed
    cut_speed: float  # m/s
    coeff_c: np.ndarray  # ascending powers of v
    coeff_p: np.ndarray
    coeff_q: np.ndarray
    coeff_z: np.ndarray
    cut_boundary: np.ndarray  # over CUT_BOUNDARY_TERMS
    v_range: tuple[float, float]
    a_range: tuple[float, float]
    grade_range: tuple[float, float]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("coeff_c", "coeff_p", "coeff_q", "coeff_z", "cut_boundary"):
            object.__setattr__(self, name, float_table(name, getattr(self, name)))
        if self.cut_boundary.shape != (len(CUT_BOUNDARY_TERMS),):
            raise InvalidArgument(f"cut_boundary needs {len(CUT_BOUNDARY_TERMS)} entries, one per "
                                  f"term, got {self.cut_boundary.size}")
        if self.beta <= 0 or self.cut_speed <= 0:
            raise InvalidArgument("beta and cut_speed must be positive")
        for name in ("v_range", "a_range", "grade_range"):
            lo_hi = tuple(getattr(self, name))
            if len(lo_hi) != 2 or not all(isinstance(x, numbers.Real) for x in lo_hi) \
                    or not lo_hi[0] < lo_hi[1]:
                raise InvalidArgument(f"{name} must be two numbers with lo < hi, got {list(lo_hi)}")
            object.__setattr__(self, name, lo_hi)

    def cut_accel(self, v, grade=0.0):
        """Boundary acceleration below which fuel is cut (for v above cut_speed)."""
        v = np.asarray(v, dtype=float)
        grade = np.asarray(grade, dtype=float)
        # powers 0..2 of each input; a plain 1.0 multiplies exactly like v**0
        v_pow, g_pow = (1.0, v, v * v), (1.0, grade, grade * grade)
        out = np.zeros(np.broadcast(v, grade).shape)
        for c, (i, j) in zip(self.cut_boundary, CUT_BOUNDARY_TERMS):
            out = out + c * v_pow[i] * g_pow[j]
        return out

    def positive_part(self, v, a, grade=0.0):
        """The polynomial branch C + P*a + Q*(a+)^2 + Z*grade."""
        v, a = np.asarray(v, dtype=float), np.asarray(a, dtype=float)
        a_plus = np.maximum(a, 0.0)
        return (npoly.polyval(v, self.coeff_c) + npoly.polyval(v, self.coeff_p) * a
                + npoly.polyval(v, self.coeff_q) * (a_plus * a_plus)
                + npoly.polyval(v, self.coeff_z) * np.asarray(grade, dtype=float))

    def min_accel(self, v):
        """Lower edge of the meaningful operating band at zero grade."""
        return np.clip(self.cut_accel(v, 0.0), self.a_range[0], self.a_range[1])


SIMPLIFIED_KEYS = {
    "beta": "beta_gps", "cut_speed": "cut_speed_mps",
    "coeff_c": "coeff_c", "coeff_p": "coeff_p", "coeff_q": "coeff_q", "coeff_z": "coeff_z",
    "cut_boundary": "cut_boundary",
    "v_range": "v_range_mps", "a_range": "a_range_mps2", "grade_range": "grade_range_rad",
    "diagnostics": "diagnostics",
}


def eval_simplified(model: SimplifiedModel, v, a, grade=0.0, with_flags: bool = False):
    """Fuel rate [g/s]; total function, inputs clamped to the fitted box.

    Returns exactly 0 in the fuel-cut region (v above the cut speed and
    acceleration below the fitted boundary) and at least beta at or below
    the cut speed. v, a and grade broadcast together and a NaN is an
    InvalidArgument; the result is a float only if all three are scalars.
    """
    v_in, a_in, g_in = broadcast_inputs(v, a, grade)
    vv = v_in.clip(*model.v_range)
    aa = a_in.clip(*model.a_range)
    gg = g_in.clip(*model.grade_range)

    fp = model.positive_part(vv, aa, gg)
    fuel = np.maximum(fp, 0.0)
    low = vv <= model.cut_speed
    np.maximum(fp, model.beta, out=fuel, where=low)
    fuel[~low & (aa < model.cut_accel(vv, gg))] = 0.0

    scalar = np.ndim(v) == np.ndim(a) == np.ndim(grade) == 0
    if not with_flags:
        return float(fuel[0]) if scalar else fuel
    clamped = (vv != v_in) | (aa != a_in) | (gg != g_in)
    return (float(fuel[0]), bool(clamped[0])) if scalar else (fuel, clamped)


def eval_simplified_trace(model: SimplifiedModel, t, v, a, grade=0.0,
                          name: str = "simplified") -> Trace:
    """Rowwise evaluation over a (t, v, a) profile; no internal dynamics."""
    v, a, grade = broadcast_inputs(v, a, grade)
    fuel, clamped = eval_simplified(model, v, a, grade, with_flags=True)
    return Trace(name=name, t=np.asarray(t, dtype=float), v=v, a=a, grade=grade, fuel=fuel,
                 flags=clamped * FLAG_CLAMPED)


# --- fitting -----------------------------------------------------------------

def fit_simplified(semi: SemiPrincipledModel, grid: FitGrid | None = None,
                   degrees: dict | None = None) -> SimplifiedModel:
    """Reduce a map-based model to the closed polynomial form.

    The polynomial is fit over the region where the map-based model
    actually responds to its inputs. Cells where its output is pinned by a
    clamp carry no signal about the fuel surface and are left out: the
    torque floor and the engine envelope produce flat shelves, and inputs
    beyond the fitted map boxes by more than ``EXTRAPOLATION_MARGIN`` of
    their span sit on extrapolation plateaus. Letting those shelves into
    the least squares would drag the polynomial away from the band the
    model is used in; the lower bound and the cut rule cover them at
    evaluation time instead.
    """
    grid = grid or default_grid(semi)

    def fuel_fn(v, a, grade):
        out = evaluate(semi, v, a, grade)
        pinned = (out["flags"] & (FLAG_ENVELOPE | FLAG_FLOOR)) != 0
        usable = ~pinned & (domain_excess(semi, v, out) <= EXTRAPOLATION_MARGIN)
        return np.ma.masked_array(out["fuel"], mask=~usable)

    return fit_to_function(fuel_fn, cut_speed=semi.constants.cut_speed,
                           beta=semi.constants.idle_fuel, grid=grid, degrees=degrees)


def fit_to_function(fuel_fn, cut_speed: float, beta: float, grid: FitGrid,
                    degrees: dict | None = None) -> SimplifiedModel:
    """L2 fit of an arbitrary fuel function f(v, a, grade) on a midpoint grid.

    fuel_fn is sampled once. It must accept equal-shaped arrays and return
    fuel in g/s, with zeros marking its fuel-cut region. It may return a
    masked array: masked cells are left out of the polynomial fit, but
    their zeros still mark the cut region. Cut-region and standstill cells
    are excluded from the polynomial fit too; the cut boundary gets its
    own least-squares polynomial. The constant term of C is raised
    afterwards if the minimum of the polynomial along the boundary at zero
    grade falls to zero or below.
    """
    deg = dict(DEFAULT_DEGREES)
    if degrees:
        deg.update(degrees)
    if min(deg.values()) < 0:
        raise InvalidArgument(f"simplified-model degrees must be nonnegative, got {deg}")
    v_ax, a_ax, g_ax = grid.axes()
    vg, ag, gg = np.meshgrid(v_ax, a_ax, g_ax, indexing="ij")
    sample = fuel_fn(vg.ravel(), ag.ravel(), gg.ravel())
    fuel = np.asarray(np.ma.getdata(sample), dtype=float).reshape(vg.shape)

    cut_cells = (fuel == 0.0) & (vg > cut_speed)
    idle_cells = vg < STANDSTILL_SPEED
    include = ~cut_cells & ~idle_cells & ~np.ma.getmaskarray(sample).reshape(vg.shape)

    boundary = _fit_cut_boundary(v_ax, a_ax, g_ax, cut_cells, cut_speed)
    v_scale = max(abs(grid.v_range[0]), abs(grid.v_range[1]), 1e-12)

    # stage 1: grade coefficient from antisymmetric grade differences at
    # fixed (v, a); the assumption that grade sensitivity does not depend
    # on acceleration makes these slopes a direct estimate of Z(v), and
    # differencing cancels the grade-independent terms exactly
    z = _fit_grade_coefficient(v_ax, g_ax, fuel, include, deg["Z"], v_scale)

    # stage 2: C, P, Q by least squares on the grade-corrected fuel
    residual = fuel - npoly.polyval(vg, z) * gg
    design = _design_matrix(vg[include] / v_scale, ag[include], deg)
    n_coeffs = design.shape[1]
    coeffs, _, rank, _ = np.linalg.lstsq(design, residual[include], rcond=None)
    if rank < n_coeffs:
        raise RankDeficient(f"simplified-fit design rank {rank} < {n_coeffs}")
    l2 = float(np.sqrt(np.mean((design @ coeffs - residual[include]) ** 2)))
    max_err = float(np.max(np.abs(design @ coeffs - residual[include])))

    c, p, q = _split_coeffs(coeffs, deg, v_scale)
    model = SimplifiedModel(beta=beta, cut_speed=cut_speed, coeff_c=c, coeff_p=p,
                            coeff_q=q, coeff_z=z, cut_boundary=boundary,
                            v_range=grid.v_range, a_range=grid.a_range,
                            grade_range=grid.grade_range,
                            diagnostics={"l2_error": l2, "max_error": max_err,
                                         "positivity_shift": 0.0,
                                         "grid_shape": list(grid.shape)})
    return _enforce_positivity(model)


def _design_matrix(v_scaled, a, deg):
    a_plus = np.maximum(a, 0.0)
    blocks = [npoly.polyvander(v_scaled, deg["C"])]
    blocks.append(npoly.polyvander(v_scaled, deg["P"]) * a[:, None])
    blocks.append(npoly.polyvander(v_scaled, deg["Q"]) * (a_plus ** 2)[:, None])
    return np.hstack(blocks)


def _split_coeffs(coeffs, deg, v_scale):
    sizes = [deg["C"] + 1, deg["P"] + 1, deg["Q"] + 1]
    parts = np.split(coeffs, np.cumsum(sizes)[:-1])
    # undo the v scaling so stored coefficients act on v in m/s
    return tuple(part / v_scale ** np.arange(part.size) for part in parts)


def _fit_grade_coefficient(v_ax, g_ax, fuel, include, degree, v_scale) -> np.ndarray:
    """Z(v) from symmetric-difference grade slopes, one polynomial LS."""
    lo = np.arange(len(g_ax) // 2)
    lo = lo[np.abs(g_ax[lo] + g_ax[-1 - lo]) <= 1e-12]
    hi = len(g_ax) - 1 - lo
    # cells where both grades of a symmetric pair are usable, ordered (speed, pair,
    # accel): each speed's mean then sums its slopes in the order the fit always has
    iv, ip, ia = np.nonzero(np.swapaxes(include[:, :, lo] & include[:, :, hi], 1, 2))
    rows, starts = np.unique(iv, return_index=True)
    if rows.size < degree + 1:
        raise RankDeficient(f"only {rows.size} grade-slope samples for degree {degree}")
    slopes = (fuel[iv, ia, hi[ip]] - fuel[iv, ia, lo[ip]]) / (g_ax[hi[ip]] - g_ax[lo[ip]])
    design = npoly.polyvander(v_ax[rows] / v_scale, degree)
    means = [np.mean(part) for part in np.split(slopes, starts[1:])]
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.array(means), rcond=None)
    if rank < degree + 1:
        raise RankDeficient("grade-slope sample geometry is degenerate")
    return coeffs / v_scale ** np.arange(coeffs.size)


def _fit_cut_boundary(v_ax, a_ax, g_ax, cut_cells, cut_speed) -> np.ndarray:
    """Least-squares surface through the cut boundary per (speed, grade)
    grid line.

    The true boundary lies between the last cut cell and the first fueled
    one, so the sample is placed on the shared cell edge; taking the cut
    cell's center instead would bias the whole surface low by half a step.
    """
    half_step = 0.5 * (a_ax[1] - a_ax[0])
    # last cut cell of every (speed, grade) line, lines in row-major order
    last_cut = len(a_ax) - 1 - np.argmax(cut_cells[:, ::-1, :], axis=1)
    iv, ig = np.nonzero(cut_cells.any(axis=1) & (v_ax > cut_speed)[:, None])
    bounds = a_ax[last_cut[iv, ig]] + half_step
    if bounds.size < len(CUT_BOUNDARY_TERMS):
        raise RankDeficient(
            f"only {bounds.size} cut-boundary samples for {len(CUT_BOUNDARY_TERMS)} terms")
    design = npoly.polyvander2d(v_ax[iv], g_ax[ig], (2, 2))[:, CUT_BOUNDARY_COLUMNS]
    coeffs, _, rank, _ = np.linalg.lstsq(design, bounds, rcond=None)
    if rank < len(CUT_BOUNDARY_TERMS):
        raise RankDeficient("cut-boundary sample geometry is degenerate")
    return coeffs


def _enforce_positivity(model: SimplifiedModel) -> SimplifiedModel:
    """Raise C's constant term until f_p stays positive along the lower
    operating edge at zero grade, checked at 512 speeds."""
    v = np.linspace(model.v_range[0], model.v_range[1], 512)
    worst = float(np.min(model.positive_part(v, model.min_accel(v), 0.0)))
    if worst > 0:
        return model
    shift = -worst + POSITIVITY_MARGIN
    coeff_c = model.coeff_c.copy()
    coeff_c[0] += shift
    fixed = replace(model, coeff_c=coeff_c,
                    diagnostics={**model.diagnostics, "positivity_shift": shift})
    check = float(np.min(fixed.positive_part(v, fixed.min_accel(v), 0.0)))
    if check <= 0:
        raise ConstraintInfeasible("positivity projection failed to lift the minimum")
    return fixed


# --- serialization -----------------------------------------------------------

def simplified_to_dict(model: SimplifiedModel) -> dict:
    return {
        **to_doc(model, SIMPLIFIED_KEYS),
        "cut_boundary_terms": [list(t) for t in CUT_BOUNDARY_TERMS],
        "units": {
            "coeff_c": "g/s per (m/s)^i",
            "coeff_p": "g/s per (m/s)^i per (m/s^2)",
            "coeff_q": "g/s per (m/s)^i per (m/s^2)^2",
            "coeff_z": "g/s per (m/s)^i per rad",
        },
    }


def simplified_from_dict(doc: dict) -> SimplifiedModel:
    # cut_boundary holds one coefficient per term, in this order
    terms = [list(term) for term in CUT_BOUNDARY_TERMS]
    if "cut_boundary_terms" in doc and field_value(doc, "cut_boundary_terms", "table") != terms:
        raise ValueError(f"cut_boundary_terms must be {terms}")
    return from_doc(SimplifiedModel, doc, SIMPLIFIED_KEYS, optional={"diagnostics"})


def load_simplified(path) -> SimplifiedModel:
    return read_json(path, simplified_from_dict)
