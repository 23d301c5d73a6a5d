import functools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

import gencube.thresholds as th
from gencube import lp
from gencube.gates import NoiseModel, joint_depol, local_dephase, pipeline, pipeline_rows
from gencube.pauli import (
    PT_SIGNS,
    BlochOp,
    dense_rows_real,
    eigenvalues_hermitian,
    partial_transpose,
    product_rows,
    to_dense,
)
from gencube.separability import (
    CRITERIA,
    POSITIVITY_TOL,
    quantum_margins,
    quantum_separable_2q,
    slack,
)
from gencube.spaces import StateSpaceSpec
from gencube.thresholds import (
    ThresholdBracketError,
    ThresholdQuery,
    analytic_bound,
    analytic_intersection,
    curve,
    curve_to_csv,
    dephasing_impossibility,
    lhv_achievability_boundary,
    min_noise,
)

CUBE = StateSpaceSpec.cube(1.0)
# scipy's brentq is the tests' independent reference root, at this xtol
BRENT_XTOL = 1e-12


def test_cube_thresholds_reproduce_closed_forms():
    q = ThresholdQuery("joint-depol", CUBE, "cube-separable")
    assert abs(min_noise(q) - 2 / 3) < 1e-6
    q = ThresholdQuery("local-depol", CUBE, "cube-separable")
    assert abs(min_noise(q) - (2 - math.sqrt(2))) < 1e-6
    q = ThresholdQuery("local-dephase", CUBE, "cube-separable")
    assert abs(min_noise(q) - (1 - 1 / math.sqrt(2))) < 1e-6


@pytest.mark.parametrize("family, R, closed_form", [
    ("joint-depol", 1.0, 2 / 3),
    ("local-depol", 1.0, 2 - math.sqrt(2)),
    ("local-dephase", 1.0, 1 - 1 / math.sqrt(2)),
    ("local-depol", 1 / math.sqrt(3), 1 - 1 / math.sqrt(3)),
])
def test_cube_thresholds_are_margin_roots(family, R, closed_form):
    # the root of margin + tol sits within tol / slope of the exact facet root
    q = ThresholdQuery(family, StateSpaceSpec.cube(R), "cube-separable")
    assert abs(min_noise(q) - closed_form) < 5e-9


@pytest.mark.parametrize("family, R", [
    ("joint-depol", 0.7), ("joint-depol", 1.0), ("joint-depol", 1.3),
    ("local-depol", 0.7), ("local-depol", 1.0), ("local-depol", 1.3),
    ("local-dephase", 1.0),
])
def test_cube_root_is_where_the_oracle_starts_to_accept(family, R):
    # min_noise roots the least margin + tol, the oracle's own cut
    lam = min_noise(ThresholdQuery(family, StateSpaceSpec.cube(R), "cube-separable"))

    def verdict(p):
        row = pipeline_rows(np.ones((1, 16)), R, NoiseModel(family, p))
        return lp.decide_membership(row[0]).feasible

    assert not verdict(lam - 1e-11)
    assert verdict(lam + 1e-11)


def test_partial_dephasing_on_rescaled_cube_needs_total_noise():
    # for R != 1 only complete dephasing separates: the threshold sits at 1/2
    q = ThresholdQuery("local-dephase", StateSpaceSpec.cube(1.3), "cube-separable")
    assert min_noise(q) > 0.5 - 1e-5


def test_min_noise_bracket_errors(monkeypatch):
    # every row's slack held constant at +1, then at -1
    q = ThresholdQuery("joint-depol", CUBE, "cube-separable")
    zero = np.zeros(684)
    monkeypatch.setattr(th, "_slack_polynomials", lambda *args: (zero, zero, zero + 1.0))
    with pytest.raises(ThresholdBracketError, match="already holds"):
        min_noise(q)
    monkeypatch.setattr(th, "_slack_polynomials", lambda *args: (zero, zero, zero - 1.0))
    with pytest.raises(ThresholdBracketError, match="still fails"):
        min_noise(q)
    # the sphere's eigen-rows refuse the same two brackets
    q = ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.3), "quantum-separable",
                       "sphere-grid")
    zero = np.zeros(20)
    monkeypatch.setattr(th, "_eigen_slack_polynomials", lambda *args: (zero, zero, zero + 1.0))
    with pytest.raises(ThresholdBracketError, match="criterion already holds at zero noise"):
        min_noise(q)
    monkeypatch.setattr(th, "_eigen_slack_polynomials", lambda *args: (zero, zero, zero - 1.0))
    with pytest.raises(ThresholdBracketError, match="criterion still fails at full noise"):
        min_noise(q)


def test_unit_cube_thresholds_sit_below_their_closed_forms_by_the_stated_gaps():
    # min_noise's docstring: the roots at margin = -tol lie 3.3e-10, 3.5e-10
    # and 1.8e-10 below 2/3, 2 - sqrt 2 and 1 - 1/sqrt 2
    for family, exact, gap in [("joint-depol", 2 / 3, "3.3e-10"),
                               ("local-depol", 2 - math.sqrt(2), "3.5e-10"),
                               ("local-dephase", 1 - 1 / math.sqrt(2), "1.8e-10")]:
        lam = min_noise(ThresholdQuery(family, CUBE, "cube-separable"))
        assert f"{exact - lam:.1e}" == gap, family


# ---------------------------------------------------------------------------
# Facet roots: the linear criteria's thresholds in closed form
# ---------------------------------------------------------------------------

LINEAR_CRITERIA = ("cube-separable", "pauli-positive")
FAMILIES = ("joint-depol", "local-depol", "local-dephase")
# the benchmark's curve lattice, R = 1 and the two rescalings the README quotes
REFERENCE_R = (tuple(round(0.65 + 0.05 * k, 2) for k in range(16))
               + (1.0, 1 / math.sqrt(3), 1.73))


def _brent_root(criterion, family, R, P):
    """One Brent root of the criterion's least slack over the inputs P,
    the pipeline output evaluated afresh at every iterate."""
    hi = 0.5 if family == "local-dephase" else 1.0

    def least(p):
        out = pipeline_rows(P, R, NoiseModel(family, p))
        return float(np.min(slack(criterion, out)))

    if least(0.0) >= 0.0:
        raise ThresholdBracketError("criterion already holds at zero noise")
    if least(hi) < 0.0:
        raise ThresholdBracketError("criterion still fails at full noise")
    return brentq(least, 0.0, hi, xtol=BRENT_XTOL)


def _brent_min_noise(q):
    """The vertex-input threshold as one Brent root of the least slack."""
    P = np.ones((1, 16)) if q.input_policy == "worst-vertex" else lp.vertex_product_matrix().T
    return _brent_root(q.criterion, q.noise_family, q.space.R, P)


@pytest.mark.parametrize("policy", ["worst-vertex", "all-vertices"])
@pytest.mark.parametrize("criterion", LINEAR_CRITERIA)
@pytest.mark.parametrize("family", FAMILIES)
def test_facet_root_matches_the_brent_root(family, criterion, policy):
    for R in REFERENCE_R:
        q = ThresholdQuery(family, StateSpaceSpec.cube(R), criterion, policy)
        assert abs(min_noise(q) - _brent_min_noise(q)) < 1e-12, R


def _linear_values(criterion, B):
    """Every row's value of a linear criterion before the min, plus its
    tolerance: the normalized facets, or the positivity rows / 4."""
    values = lp.facet_margins(B) if criterion == "cube-separable" else lp.positivity_values(B) / 4
    return values.ravel() + CRITERIA[criterion][1]


SCAN_R = (0.3, 0.5, 0.65, 0.8, 1.0, 1.16, 1.4, 1.73, 2.2, 3.0)


@pytest.mark.parametrize("criterion", LINEAR_CRITERIA)
@pytest.mark.parametrize("family", FAMILIES)
def test_each_row_changes_sign_at_most_once(family, criterion):
    # the 64 vertex pairs include the all-ones pair, so this covers both
    # policies: each row's slack is the quadratic of its coefficients (it
    # agrees with the pipeline at five strengths, and the slack has degree
    # <= 2), and on a fine grid of [0, hi] no row goes from >= 0 back to
    # < 0, so each changes sign at most once, from < 0 to >= 0
    P = lp.vertex_product_matrix().T
    hi = 0.5 if family == "local-dephase" else 1.0
    for R in SCAN_R:
        a, b, c = th._slack_polynomials(criterion, P, R, family)
        for p in np.linspace(0.0, hi, 5):
            values = _linear_values(criterion, pipeline_rows(P, R, NoiseModel(family, p)))
            assert np.max(np.abs(values - (c + p * (b + p * a)))) < 1e-13, (R, p)
        held = np.zeros(len(a), dtype=bool)
        for p in np.linspace(0.0, hi, 257):
            holds = c + p * (b + p * a) >= 0.0
            assert not (held & ~holds).any(), (R, p)
            held = holds


def test_a_row_dipping_below_zero_inside_the_bracket_is_refused(monkeypatch):
    # 8 p^2 - 8 p + 1 is +1 at both ends of [0, 1] and -1 at p = 1/2
    real = th._slack_polynomials

    def with_dip(*args):
        return tuple(np.append(x, v) for x, v in zip(real(*args), (8.0, -8.0, 1.0)))

    q = ThresholdQuery("joint-depol", CUBE, "cube-separable")
    assert abs(min_noise(q) - 2 / 3) < 1e-8
    monkeypatch.setattr(th, "_slack_polynomials", with_dip)
    with pytest.raises(RuntimeError, match="changes sign twice"):
        min_noise(q)


@pytest.mark.parametrize("criterion", LINEAR_CRITERIA)
@pytest.mark.parametrize("R", [0.8, 1.0, 1.3])
def test_joint_depol_rows_are_linear(R, criterion):
    # the joint-depol factors are 1 - p: no row has a p^2 term, and the
    # threshold is the largest linear root -c / b
    a, b, c = th._slack_polynomials(criterion, np.ones((1, 16)), R, "joint-depol")
    assert (a == 0.0).all()
    below = c < 0.0
    q = ThresholdQuery("joint-depol", StateSpaceSpec.cube(R), criterion)
    assert min_noise(q) == np.max(-c[below] / b[below])


@pytest.mark.parametrize("criterion", LINEAR_CRITERIA)
@pytest.mark.parametrize("R, row", [(0.8, 17), (1.3, 13)])
def test_dephasing_threshold_off_unit_rescaling_is_a_linear_root(R, row, criterion):
    # at R != 1 the binding dephasing row is a Pauli-pair probability with
    # a Z on one qubit (row 17: X+ Z-, row 13: Y- Z-; the positivity orbit
    # leads the facet table): it reads only coefficients the dephasing
    # scales by 1 - 2p or leaves alone, so its p^2 term is exactly 0 and the
    # threshold is its linear root -c / b, just below p = 1/2
    a, b, c = th._slack_polynomials(criterion, np.ones((1, 16)), R, "local-dephase")
    q = ThresholdQuery("local-dephase", StateSpaceSpec.cube(R), criterion)
    assert a[row] == 0.0 and c[row] < 0.0
    assert min_noise(q) == -c[row] / b[row]


def test_analytic_bounds_at_unit_rescaling():
    ab = analytic_bound("local-depol", 1.0)
    assert ab.active == "xy"
    assert abs(ab.active_value - (math.sqrt(2) - 1)) < 1e-12
    jb = analytic_bound("joint-depol", 1.0)
    assert jb.active == "tdb1"
    assert abs(jb.active_value - 1 / 3) < 1e-12
    with pytest.raises(ValueError):
        analytic_bound("local-dephase", 1.0)


def test_query_criteria_are_the_separability_table():
    for criterion in CRITERIA:
        args = ((StateSpaceSpec.sphere(1.0), criterion, "sphere-grid")
                if criterion == "quantum-separable" else (CUBE, criterion))
        assert ThresholdQuery("joint-depol", *args).criterion == criterion
    with pytest.raises(ValueError, match="unknown criterion 'cube'"):
        ThresholdQuery("joint-depol", CUBE, "cube")


def test_analytic_bounds_monotone_xy():
    vals = [analytic_bound("local-depol", R).value("xy") for R in np.linspace(0.3, 2.0, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_analytic_intersections():
    R, r = analytic_intersection("local-depol")
    assert abs((1 - r) - 0.392919) < 1e-4
    assert abs((1 - R) - 0.479927) < 1e-4
    Rj, rj = analytic_intersection("joint-depol")
    assert abs(Rj - 1 / math.sqrt(3)) < 1e-6
    assert abs(rj - math.sqrt(3) / (2 + math.sqrt(3))) < 1e-6


def test_analytic_intersections_are_pinned():
    # the crossings as float sign changes of bound2 - bound1, to the last
    # bit; the joint one is 1/sqrt 3 correctly rounded
    assert analytic_intersection("local-depol")[0] == 0.5200729134155841
    assert analytic_intersection("joint-depol")[0] == 0.5773502691896257


def test_analytic_intersection_refuses_a_family_without_bounds():
    # the same ValueError as analytic_bound, not a bare KeyError
    with pytest.raises(ValueError, match="no closed-form bounds for local-dephase"):
        analytic_intersection("local-dephase")


def test_boundary_refuses_a_family_without_bounds():
    # the same ValueError as analytic_bound, not a bare KeyError
    with pytest.raises(ValueError, match="no closed-form bounds for local-dephase"):
        lhv_achievability_boundary("local-dephase")


def test_boundaries_are_pinned():
    # the roots on each family's first bound, to the last bit
    assert lhv_achievability_boundary("local-depol") == 0.544933386189242
    assert lhv_achievability_boundary("joint-depol") == 0.7071067805829943


BOUND_FAMILIES = ("local-depol", "joint-depol")


def _bound_state(family, R):
    """The pipeline output on the all-ones input at R, with the noise on the
    family's first bound, read off the package's own curve."""
    r = th._BOUND_CURVES[family].r(R)
    return pipeline_rows(np.ones((1, 16)), R, NoiseModel(family, 1.0 - r))


def _bound_state_slacks(family, R):
    """The 684 normalized facet values + tol of the state on the bound."""
    return lp.facet_margins(_bound_state(family, R))[0] + CRITERIA["cube-separable"][1]


def _brent_boundary(family):
    """The boundary as one Brent root of the least slack in R on [0.3, 1]."""
    return brentq(lambda R: float(_bound_state_slacks(family, R).min()), 0.3, 1.0,
                  xtol=BRENT_XTOL)


@pytest.mark.parametrize("family", BOUND_FAMILIES)
def test_boundary_is_a_sign_change_of_every_facet_row(family):
    R = lhv_achievability_boundary(family)
    below = math.nextafter(R, 0.0)
    assert (_bound_state_slacks(family, R) >= 0.0).all()
    assert (_bound_state_slacks(family, below) < 0.0).any()
    # the same cut as the package's own slack
    assert slack("cube-separable", _bound_state(family, R))[0] >= 0.0
    assert slack("cube-separable", _bound_state(family, below))[0] < 0.0


@pytest.mark.parametrize("family", BOUND_FAMILIES)
def test_boundary_matches_the_brent_root(family):
    assert abs(lhv_achievability_boundary(family) - _brent_boundary(family)) < 1e-12


@pytest.mark.parametrize("family", BOUND_FAMILIES)
def test_boundary_rows_are_the_slack_polynomials(family):
    # D(x) times each facet row's slack, read at the curve's points, is the
    # float slack on the bound state there
    c, terms = th._BOUND_CURVES[family], th._bound_terms(family)
    tol = CRITERIA["cube-separable"][1]
    P = th._criterion_rows("cube-separable").T @ terms[:16] + tol * terms[16]
    for R in (0.35, 0.5, 0.75, 1.0):
        x = c.x_of_R(R)
        assert abs(c.R(x) - R) < 1e-15
        values = np.polyval(P.T, x) / np.polyval(terms[16], x)
        assert np.abs(values - _bound_state_slacks(family, R)).max() < 1e-13


def _bound_gap(family, R):
    """bound2 - bound1 at R, from the package's own bounds."""
    (_, first), (_, second) = analytic_bound(family, R).bounds
    return second - first


@pytest.mark.parametrize("family", BOUND_FAMILIES)
def test_analytic_intersection_is_a_sign_change_of_the_bound_gap(family):
    R, r = analytic_intersection(family)
    below = math.nextafter(R, 0.0)
    assert _bound_gap(family, R) >= 0.0 > _bound_gap(family, below)
    assert r == analytic_bound(family, R).bounds[0][1]
    # the closed forms' crossing, an independent reference
    (first, _), (second, _) = th._BOUND_CURVES[family].rows
    brent = brentq(lambda R: BOUND_FORMULAS[second](R) - BOUND_FORMULAS[first](R),
                   0.3, 0.95, xtol=BRENT_XTOL)
    assert abs(R - brent) < 1e-12


def test_boundary_bracket_errors(monkeypatch):
    # r = 0 (total noise) leaves the identity state, which is separable at
    # every R; r = 1 (no noise) the CSIGN output, which is not at R = 1
    monkeypatch.setattr(th._BoundCurve, "r", lambda self, R: 0.0)
    with pytest.raises(ThresholdBracketError, match="bound already achievable at R = 0.3"):
        lhv_achievability_boundary("joint-depol")
    monkeypatch.setattr(th._BoundCurve, "r", lambda self, R: 1.0)
    with pytest.raises(ThresholdBracketError, match="bound not achievable at R = 1"):
        lhv_achievability_boundary("joint-depol")


def test_intersection_bracket_errors(monkeypatch):
    # bound2 - bound1 held at +1, then at -1, over the whole bracket
    monkeypatch.setattr(th, "_bound_values", lambda *args: (("a", 0.0), ("b", 1.0)))
    with pytest.raises(ThresholdBracketError, match="bounds already crossed at R = 0.3"):
        analytic_intersection("joint-depol")
    monkeypatch.setattr(th, "_bound_values", lambda *args: (("a", 1.0), ("b", 0.0)))
    with pytest.raises(ThresholdBracketError, match="bounds not crossed by R = 0.95"):
        analytic_intersection("joint-depol")


def _tdb2(R):
    d = 1.0 + 1.0 / R - R
    return math.inf if d <= 0 else 1.0 / d


# the paper's closed forms of the bounds, the references for the rows' roots
BOUND_FORMULAS = {
    "xy": lambda R: math.sqrt(1.0 + R * R) - R,
    "xz": lambda R: (R - 1.0 + math.sqrt((R - 1.0) ** 2 + 4.0 / R)) * R / 2.0,
    "tdb1": lambda R: 1.0 / (2.0 * R + 1.0),
    "tdb2": _tdb2,
}
# 224 points on [0.3, 2.5] and the golden ratio, where 1 + 1/R - R = 0 and
# tdb2 becomes inf
BOUND_LATTICE = tuple(np.linspace(0.3, 2.5, 224)) + ((1.0 + math.sqrt(5.0)) / 2.0,)


def _cancellation(name, R):
    """How far the bound's closed form cancels at R: 1, but for tdb2 the
    size of the terms of 1 + 1/R - R over their sum, which vanishes at the
    golden ratio.  Near there the row root and the formula each carry that
    sum's rounding, scaled up by this factor."""
    return max(1.0, (1.0 + 1.0 / R + R) / abs(1.0 + 1.0 / R - R)) if name == "tdb2" else 1.0


def _bound_mismatches():
    """The (family, R, name) cases on the lattice where analytic_bound is
    more than 64 ulps (times the closed form's cancellation) from its
    closed form, or inf where that is finite or the other way round; the
    name "curve" for the leading bound's r read off its curve."""
    bad = []
    for family in BOUND_FAMILIES:
        for R in map(float, BOUND_LATTICE):
            values = analytic_bound(family, R).bounds
            values += (("curve", th._BOUND_CURVES[family].r(R)),)
            for name, value in values:
                formula = values[0][0] if name == "curve" else name
                ref = BOUND_FORMULAS[formula](R)
                if math.isinf(ref) or math.isinf(value):
                    ok = value == ref
                else:
                    ok = abs(value - ref) <= 64 * math.ulp(ref) * _cancellation(formula, R)
                if not ok:
                    bad.append((family, R, name))
    return bad


def test_bounds_are_their_closed_forms_on_the_lattice():
    assert len(BOUND_LATTICE) >= 200
    assert _bound_mismatches() == []
    # tdb2 is inf from the golden ratio on, and the lattice reaches it
    assert analytic_bound("joint-depol", BOUND_LATTICE[-1]).value("tdb2") == math.inf
    assert analytic_bound("joint-depol", 2.5).value("tdb2") == math.inf


def test_a_wrong_bound_row_leaves_the_lattice(monkeypatch):
    c = th._BOUND_CURVES["local-depol"]
    monkeypatch.setitem(th._BOUND_CURVES, "local-depol", replace(c, rows=(c.rows[0], ("xz", 0))))
    bad = _bound_mismatches()
    assert bad and {(family, name) for family, _, name in bad} == {("local-depol", "xz")}


def test_bounds_and_intersections_are_python_floats():
    for family in BOUND_FAMILIES:
        for _, value in analytic_bound(family, 0.8).bounds:
            assert type(value) is float
        R, r = analytic_intersection(family)
        assert type(R) is float and type(r) is float


@pytest.mark.parametrize("shape", ["below", "above", "far below", "far above"])
def test_sign_change_closes_from_either_side(shape):
    # f < 0 below 0.6 and >= 0 from it on, guessed from 1 ulp or 0.1 away
    root = 0.6
    guess = {"below": math.nextafter(root, 0.0), "above": math.nextafter(root, 1.0),
             "far below": 0.5, "far above": 0.7}[shape]

    def f(x):
        return -1.0 if x < root else 1.0

    assert th._sign_change(f, guess, f(guess), 0.3, 1.0) == root


@pytest.mark.parametrize("R", [0.0, -1.0, math.inf, math.nan])
def test_threshold_readers_of_R_refuse_it_outside_the_positive_finite_reals(R):
    with pytest.raises(ValueError, match="R must be positive and finite"):
        analytic_bound("local-depol", R)
    with pytest.raises(ValueError, match="R must be positive and finite"):
        dephasing_impossibility(R, 0.1)
    q = ThresholdQuery("joint-depol", CUBE, "cube-separable")
    with pytest.raises(ValueError, match="R_min must be positive and finite"):
        curve(q, R, 1.0, 3)
    with pytest.raises(ValueError, match="R_max must be positive and finite"):
        curve(q, 0.5, R, 3)


def test_query_refuses_an_unknown_noise_family():
    with pytest.raises(ValueError, match="unknown noise family 'bogus'"):
        ThresholdQuery("bogus", CUBE, "cube-separable")


def test_joint_boundary_is_one_over_sqrt2():
    # the root for the state on the tdb1 bound lies within the cube rule's
    # tolerance of the closed form
    assert abs(lhv_achievability_boundary("joint-depol") - 1 / math.sqrt(2)) < 1e-9


def test_curve_and_csv_format():
    q = ThresholdQuery("joint-depol", CUBE, "cube-separable")
    pts = curve(q, 0.9, 1.1, 3)
    assert [round(p.R, 6) for p in pts] == [0.9, 1.0, 1.1]
    assert {p.achieved_by for p in pts} == {"facet"}
    mid = pts[1]
    assert abs(mid.lambda_star - 2 / 3) < 1e-5
    csv = curve_to_csv(pts)
    lines = csv.strip().splitlines()
    assert lines[0] == "R,lambda_star,method"
    assert len(lines) == 4
    assert lines[2].startswith("1,0.666666")


@pytest.mark.parametrize("steps", [0, -1])
def test_curve_rejects_fewer_than_one_step(steps):
    q = ThresholdQuery("joint-depol", CUBE, "cube-separable")
    with pytest.raises(ValueError, match="steps must be at least 1"):
        curve(q, 0.9, 1.1, steps)


def test_dephasing_impossibility():
    v = dephasing_impossibility(1.2, 0.3)
    assert not v.valid
    expected = (1 - 2 * 0.3) * (1 / 1.2 - 1.2) / 4
    assert abs(v.witness - expected) < 1e-12
    assert v.witness < 0
    assert dephasing_impossibility(1.0, 0.123).valid
    assert dephasing_impossibility(1.7, 0.5).valid
    with pytest.raises(ValueError):
        dephasing_impossibility(0.0, 0.1)


def test_dephasing_witness_matches_pipeline_eigenvalue():
    R, p = 1.2, 0.3
    u = BlochOp(np.array([1.0, 0.0, 0.0]))
    v = BlochOp(np.array([0.0, 0.0, 1.0]))
    out = pipeline(u, v, R, local_dephase(p))
    eigs = eigenvalues_hermitian(to_dense(out))
    wit = dephasing_impossibility(R, p).witness
    assert abs(eigs[0] - wit) < 1e-12


def test_sphere_grid_reduction_spectra():
    # theta -> theta + pi is a local-unitary equivalence: spectra invariant
    rng = np.random.default_rng(55)
    for _ in range(5):
        th, ph = rng.uniform(0, math.pi / 2, 2)
        R = rng.uniform(0.7, 1.8)
        n = joint_depol(rng.uniform(0.1, 0.9))

        def out(theta, phi):
            u = BlochOp(np.array([math.cos(theta), 0.0, math.sin(theta)]))
            v = BlochOp(np.array([math.cos(phi), 0.0, math.sin(phi)]))
            return pipeline(u, v, R, n)

        a, b = out(th, ph), out(th + math.pi, ph)
        assert np.allclose(eigenvalues_hermitian(to_dense(a)),
                           eigenvalues_hermitian(to_dense(b)), atol=1e-10)
        assert np.allclose(
            eigenvalues_hermitian(to_dense(partial_transpose(a))),
            eigenvalues_hermitian(to_dense(partial_transpose(b))), atol=1e-10)
        # reflection of theta about pi/2 is the Z (x) I equivalence
        c = out(math.pi - th, ph)
        assert np.allclose(eigenvalues_hermitian(to_dense(a)),
                           eigenvalues_hermitian(to_dense(c)), atol=1e-10)


def _xz_bloch(angles):
    """The Bloch stack (cos a, 0, sin a) of each angle a."""
    return np.column_stack((np.cos(angles), np.zeros_like(angles), np.sin(angles)))


def _angle_pairs(thetas, phis):
    """Inputs (cos th, 0, sin th) (x) (cos ph, 0, sin ph) for every th in
    thetas (outer) and ph in phis (inner): Bloch stacks U, V and the angles."""
    th, ph = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    return _xz_bloch(th), _xz_bloch(ph), th, ph


def _folded_grid_root(family, R, n=60):
    """The sphere threshold as the n x n angle grid over [0, pi/2]^2 found it:
    one root over the th <= ph half of the grid (the qubit swap maps
    (th, ph) to (ph, th)), then one more over the 21 x 21 cell of +-1 grid
    step around the input that binds at the first root, the larger of the
    two."""
    angles = np.linspace(0.0, math.pi / 2.0, n)
    U, V, th_, ph = _angle_pairs(angles, angles)
    half = th_ <= ph
    th_, ph = th_[half], ph[half]
    P = product_rows(U[half], V[half])
    lam = _brent_root("quantum-separable", family, R, P)
    k = int(np.argmin(slack("quantum-separable", pipeline_rows(P, R, NoiseModel(family, lam)))))
    step = (math.pi / 2.0) / max(n - 1, 1)
    fine = np.linspace(-step, step, 21)
    U, V, _, _ = _angle_pairs(np.clip(th_[k] + fine, 0.0, math.pi / 2.0),
                              np.clip(ph[k] + fine, 0.0, math.pi / 2.0))
    return max(lam, _brent_root("quantum-separable", family, R, product_rows(U, V)))


def _grid_scan_reference(q):
    """The sphere-grid threshold as a per-point scan: one brentq per grid
    point that can raise the running maximum, then the same over the 21 x 21
    refinement cell around the arg-max."""
    R, hi = q.space.R, (0.5 if q.noise_family == "local-dephase" else 1.0)

    def bloch(t):
        return BlochOp(np.array([math.cos(t), 0.0, math.sin(t)]))

    def point_threshold(th, ph, floor):
        u, v = bloch(th), bloch(ph)
        slack = lambda p: (quantum_margins(
            pipeline(u, v, R, NoiseModel(q.noise_family, p)).coeffs.reshape(1, 16))[0]
            + POSITIVITY_TOL)
        if slack(hi) < 0.0:
            raise ThresholdBracketError("criterion still fails at full noise")
        if slack(floor) >= 0.0:
            return None
        return brentq(slack, floor, hi, xtol=BRENT_XTOL)

    best, arg = 0.0, (0.0, 0.0)
    angles = np.linspace(0.0, math.pi / 2.0, q.grid_n)
    for th in angles:
        for ph in angles:
            t = point_threshold(th, ph, best)
            if t is not None and t > best:
                best, arg = t, (th, ph)
    step = (math.pi / 2.0) / max(q.grid_n - 1, 1)
    fine = np.linspace(-step, step, 21)
    for dth in fine:
        for dph in fine:
            t = point_threshold(min(max(arg[0] + dth, 0.0), math.pi / 2.0),
                                min(max(arg[1] + dph, 0.0), math.pi / 2.0), best)
            if t is not None and t > best:
                best = t
    return best


@pytest.mark.parametrize("grid_n", [8, 12])
@pytest.mark.parametrize("family, R", [("joint-depol", 1.3), ("local-depol", 1.16),
                                       ("local-dephase", 1.0)])
def test_sphere_grid_root_equals_the_per_point_scan(family, R, grid_n):
    q = ThresholdQuery(family, StateSpaceSpec.sphere(R), "quantum-separable",
                       "sphere-grid", grid_n=grid_n)
    assert abs(min_noise(q) - _grid_scan_reference(q)) < 1e-12


@pytest.mark.parametrize("R", [1.0, 1.16, 1.73])
@pytest.mark.parametrize("family", ["joint-depol", "local-depol", "local-dephase"])
def test_sphere_grid_outputs_are_swap_symmetric(family, R):
    # the swap fold of the grid, and why min_noise leaves out (Z, X):
    # (th, ph) and (ph, th) give the same margin
    n = 12
    angles = np.linspace(0.0, math.pi / 2.0, n)
    U, V, _, _ = _angle_pairs(angles, angles)
    mirror = np.arange(n * n).reshape(n, n).T.ravel()   # row of (ph, th)
    P = product_rows(U, V)
    hi = 0.5 if family == "local-dephase" else 1.0
    for p in np.linspace(0.0, hi, 4):
        m = quantum_margins(pipeline_rows(P, R, NoiseModel(family, p)))
        assert np.max(np.abs(m - m[mirror])) < 1e-14


def _sphere_query(family, R):
    return ThresholdQuery(family, StateSpaceSpec.sphere(R), "quantum-separable", "sphere-grid")


# 3 families x 10 rescalings over [0.5, 2.2], the README's and the bench's
# among them
GRID_R = (0.5, 0.75, 0.9, 1.0, 1.16, 1.3, 1.5, 1.73, 1.95, 2.2)


@pytest.mark.parametrize("family", FAMILIES)
def test_sphere_threshold_equals_the_folded_grid_root(family):
    # the three axis pairs give the 60 x 60 grid's value, refinement included
    for R in GRID_R:
        try:
            expected = _folded_grid_root(family, R)
        except ThresholdBracketError as err:
            with pytest.raises(ThresholdBracketError, match=str(err)):
                min_noise(_sphere_query(family, R))
            continue
        assert abs(min_noise(_sphere_query(family, R)) - expected) < 1e-12, R


# captured from the unfolded complex sweep, grid_n = 60
SPHERE_THRESHOLDS = {
    ("joint-depol", 1.73): 0.5361930276353888,
    ("local-depol", 1.16): 0.3941216218884855,
    ("joint-depol", 1.0): 0.6666666653333333,
}


@pytest.mark.parametrize("family, R", list(SPHERE_THRESHOLDS))
def test_sphere_thresholds_pinned(family, R):
    q = ThresholdQuery(family, StateSpaceSpec.sphere(R), "quantum-separable",
                       "sphere-grid", grid_n=60)
    assert abs(min_noise(q) - SPHERE_THRESHOLDS[family, R]) < 1e-12


# the real parts of the 16 Pauli products sigma_i (x) sigma_j, in integers:
# the axis pairs' outputs have no odd-Y coefficient, so their operators are real
PAULI_REAL = np.rint(4.0 * dense_rows_real(np.eye(16))).astype(int)


def _exact_operator(b):
    """(1/4) sum_j b_j sigma_j of a real 16-vector without odd-Y entries, as a
    4 x 4 array of Fractions (every float is a rational, taken exactly)."""
    return sum(Fraction(float(x)) * PAULI_REAL[j] for j, x in enumerate(b)) / 4


def _eigen_projector(w, pair, signs):
    """Pi = rank (1/4) sum_j 4 w_j s_j sigma_j, rank = 1 / tr((Pi / rank)^2),
    if that is a projector on which the row w is an eigenvalue of the axis
    pair's output (s_j = signs, PT_SIGNS for the partial transpose), exactly:
    rho Pi = (w . b) Pi for C[0], C[1] and C[2] of every family at R = 1/2
    and 2; else None."""
    Q = _exact_operator(4.0 * w * signs)
    rank = 1 / np.trace(Q @ Q)
    Pi = rank * Q
    if rank.denominator != 1 or not (Pi @ Pi == Pi).all():
        return None
    for family in FAMILIES:
        for R in (0.5, 2.0):
            for b in th._output_polynomial(th._AXIS_PAIRS, R, family)[:, pair]:
                value = sum(Fraction(float(x)) for x in b * w)
                if not (_exact_operator(b * signs) @ Pi == value * Pi).all():
                    return None
    return Pi


def test_eigen_rows_are_exact_quarter_rows():
    pairs, W = th._eigen_rows()
    assert W.shape == (20, 16) and not W.flags.writeable
    assert set(np.abs(W).ravel()) <= {0.0, 0.25}
    assert len({tuple(w) for w in W}) == 13
    ranks = {}
    for pair in range(3):
        rows = {tuple(w) for w in W[pairs == pair]}
        covered = set()
        for side, signs in (("rho", np.ones(16)), ("PT", PT_SIGNS)):
            # the distinct rows that are eigenvalues on this side fill it
            Pis = {w: Pi for w in rows
                   if (Pi := _eigen_projector(np.array(w), pair, signs)) is not None}
            assert (sum(Pis.values()) == np.eye(4, dtype=int)).all()
            ranks[pair, side] = sorted(int(np.trace(Pi)) for Pi in Pis.values())
            covered |= set(Pis)
        # and every row is an eigenvalue on one side at least
        assert covered == rows
    # multiplicities [2, 1, 1] on (X, X) and (Z, Z), [1, 1, 1, 1] on (X, Z)
    assert ranks == {(pair, side): [1, 1, 1, 1] if pair == 1 else [1, 1, 2]
                     for pair in range(3) for side in ("rho", "PT")}


# 3 families x 69 rescalings on [0.5, 2.2]
LATTICE_R = tuple(float(R) for R in np.linspace(0.5, 2.2, 69))


@functools.cache
def _lattice_references():
    """The Brent root of the eigensolver's least slack over the axis pairs
    at every lattice case, or the refusal's message."""
    out = {}
    for family in FAMILIES:
        for R in LATTICE_R:
            try:
                out[family, R] = _brent_root("quantum-separable", family, R, th._AXIS_PAIRS)
            except ThresholdBracketError as err:
                out[family, R] = str(err)
    return out


def _lattice_mismatches():
    """The lattice cases whose sphere threshold is more than 1e-12 from the
    Brent reference's, or is refused otherwise."""
    bad = []
    for (family, R), expected in _lattice_references().items():
        try:
            got = min_noise(_sphere_query(family, R))
        except RuntimeError as err:
            got = str(err)
        if isinstance(got, str) or isinstance(expected, str):
            if got != expected:
                bad.append((family, R, got, expected))
        elif abs(got - expected) >= 1e-12:
            bad.append((family, R, got, expected))
    return bad


def test_sphere_threshold_is_the_brent_root_on_the_lattice():
    assert _lattice_mismatches() == []


def test_a_negated_eigen_row_entry_leaves_the_lattice(monkeypatch):
    # the row that binds for joint depol at R = 1, its first Pauli entry
    pairs, W = th._eigen_rows()
    k = int(np.argmin(th._eigen_slack_polynomials(1.0, "joint-depol")[2]))
    W = W.copy()
    W[k, np.flatnonzero(W[k, 1:])[0] + 1] *= -1.0
    monkeypatch.setattr(th, "_eigen_rows", lambda: (pairs, W))
    assert _lattice_mismatches()


# slack the eigensolver's rounding may hide, far below any cell's bound
EIG_ROUNDING = 1e-12
# the certificate's budget: each case below needs 176k to 354k cells
MAX_CELLS = 1_000_000


def _sphere_certificate(family, R, p):
    """Branch and bound over the folded square [0, pi/2]^2 of pure product
    inputs (cos th, 0, sin th) (x) (cos ph, 0, sin ph) at noise strength p,
    with a zeroth-order Lipschitz bound (Piyavskii, USSR Comput. Math. Math.
    Phys. 12, 57 (1972)).  Mixed product inputs are mixtures of these, and
    the PPT set is convex, so these inputs decide the criterion.

    A cell of half-width h holds when the quantum-separable slack at its
    centre exceeds the most the slack can move over the cell.  Each factor
    (1, u) lies within h of its value at the centre, whose norm is sqrt 2,
    so the product row moves by at most 2 sqrt 2 h + h^2; the output's
    coefficients by the map's spectral norm times that; and the operator by
    half of their norm in the Frobenius norm, so in the spectral norm too.
    By Weyl's inequality that bounds the shift of the least eigenvalue of
    the operator and of its partial transpose, which only flips coefficient
    signs.  A cell that does not hold is split in four.

    Returns None once every cell holds, or (th, ph) of the first centre
    whose slack is below -EIG_ROUNDING, an input that violates the
    criterion; fails after more than MAX_CELLS cells."""
    noise = NoiseModel(family, p)
    lipschitz = np.linalg.norm(pipeline_rows(np.eye(16), R, noise), 2) / 2.0
    h = math.pi / 16.0
    centres = np.arange(h, math.pi / 2.0, 2.0 * h)
    th_, ph = (a.ravel() for a in np.meshgrid(centres, centres, indexing="ij"))
    cells = 0
    while th_.size:
        cells += th_.size
        assert cells <= MAX_CELLS, f"undecided after {cells} cells"
        P = product_rows(_xz_bloch(th_), _xz_bloch(ph))
        s = slack("quantum-separable", pipeline_rows(P, R, noise))
        k = int(np.argmin(s))
        if s[k] < -EIG_ROUNDING:
            return float(th_[k]), float(ph[k])
        undecided = s - lipschitz * (2.0 * math.sqrt(2.0) * h + h * h) < EIG_ROUNDING
        h /= 2.0
        th_ = (th_[undecided, None] + h * np.array([-1.0, -1.0, 1.0, 1.0])).ravel()
        ph = (ph[undecided, None] + h * np.array([-1.0, 1.0, -1.0, 1.0])).ravel()
    return None


# the bracket the certificate closes above each sphere threshold
CERTIFIED_DELTA = 1e-4


@pytest.mark.parametrize("family, R", list(SPHERE_THRESHOLDS))
def test_sphere_threshold_is_certified_over_the_folded_square(family, R):
    # every pure product input holds at the threshold + 1e-4
    p = min_noise(_sphere_query(family, R)) + CERTIFIED_DELTA
    assert _sphere_certificate(family, R, p) is None


@pytest.mark.parametrize("family, R", list(SPHERE_THRESHOLDS))
def test_sphere_certificate_refuses_below_the_threshold(family, R):
    # 1e-9 below the threshold, the same branch and bound names an input
    # that the dense criterion refuses
    p = min_noise(_sphere_query(family, R)) - 1e-9
    violation = _sphere_certificate(family, R, p)
    assert violation is not None
    u, v = (BlochOp(np.array([math.cos(a), 0.0, math.sin(a)])) for a in violation)
    assert not quantum_separable_2q(pipeline(u, v, R, NoiseModel(family, p)))


@pytest.mark.parametrize("grid_n", [0, -3])
def test_query_rejects_a_grid_below_one(grid_n):
    with pytest.raises(ValueError, match="grid_n must be at least 1"):
        ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.0), "quantum-separable",
                       "sphere-grid", grid_n=grid_n)


@pytest.mark.parametrize("criterion", LINEAR_CRITERIA)
def test_sphere_grid_takes_the_quantum_criterion_only(criterion):
    # the axis pairs bind for the spectra alone, which local unitaries keep
    with pytest.raises(ValueError, match="take the quantum-separable criterion"):
        ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.0), criterion, "sphere-grid")


@pytest.mark.parametrize("policy", ["worst-vertex", "all-vertices"])
def test_vertex_inputs_refuse_the_quantum_criterion(policy):
    # the eigen-rows exist only for the axis pairs; the 64 vertex pairs'
    # outputs and partial transposes do not commute
    with pytest.raises(ValueError, match="vertex inputs take a linear criterion"):
        ThresholdQuery("joint-depol", CUBE, "quantum-separable", policy)


def test_one_point_grid_stays_valid():
    # the single input (0, 0) is X (x) X; joint depol then binds at 2/3
    q = ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.0), "quantum-separable",
                       "sphere-grid", grid_n=1)
    assert abs(min_noise(q) - 2 / 3) < 1e-8


def test_sphere_threshold_unit_rescaling_matches_cube_case():
    # joint depol on the unrescaled sphere: the EPR threshold 2/3
    q = ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.0),
                       "quantum-separable", "sphere-grid", grid_n=25)
    lam = min_noise(q)
    assert abs(lam - 2 / 3) < 2e-3


def test_worst_vertex_equals_all_vertices_smoke():
    # the full three-family agreement runs in the acceptance suite
    q1 = ThresholdQuery("joint-depol", CUBE, "cube-separable", "worst-vertex")
    q2 = ThresholdQuery("joint-depol", CUBE, "cube-separable", "all-vertices")
    assert abs(min_noise(q1) - min_noise(q2)) < 1e-4


def test_lp_threshold_never_below_analytic_bound():
    # positivity is necessary for separability
    for family in ("joint-depol", "local-depol"):
        for R in (0.6, 0.8, 1.0, 1.2):
            q = ThresholdQuery(family, StateSpaceSpec.cube(R), "cube-separable")
            lam = min_noise(q)
            r_bound = analytic_bound(family, R).active_value
            assert lam >= (1 - min(r_bound, 1.0)) - 1e-5


def test_pauli_positive_threshold_matches_analytic_bound():
    for family in ("joint-depol", "local-depol"):
        for R in (0.8, 1.0, 1.3):
            q = ThresholdQuery(family, StateSpaceSpec.cube(R), "pauli-positive")
            lam = min_noise(q)
            r_bound = analytic_bound(family, R).active_value
            assert abs(lam - (1 - min(r_bound, 1.0))) < 1e-6


def test_sphere_curve_smoke():
    q = ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.0),
                       "quantum-separable", "sphere-grid", grid_n=12)
    pts = curve(q, 1.0, 1.2, 2)
    assert len(pts) == 2
    assert pts[0].lambda_star > pts[1].lambda_star  # less gate noise needed at R > 1
    assert pts[0].achieved_by == "PPT"
