import math

import numpy as np
import pytest
from scipy.optimize import brentq

from gencube.gates import NoiseModel, joint_depol, local_dephase, pipeline, pipeline_rows
from gencube.pauli import (
    BlochOp,
    PauliCoeffs2Q,
    eigenvalues_hermitian,
    partial_transpose,
    product_rows,
    to_dense,
)
from gencube.separability import POSITIVITY_TOL, cube_decide, quantum_margin, quantum_margins
from gencube.spaces import StateSpaceSpec
from gencube.thresholds import (
    ROOT_XTOL,
    ThresholdBracketError,
    ThresholdQuery,
    analytic_bound,
    analytic_intersection,
    curve,
    curve_to_csv,
    dephasing_impossibility,
    min_noise,
    sphere_grid_inputs,
)

CUBE = StateSpaceSpec.cube(1.0)


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
        return cube_decide(PauliCoeffs2Q(row.reshape(4, 4))).feasible

    assert not verdict(lam - 1e-11)
    assert verdict(lam + 1e-11)


def test_partial_dephasing_on_rescaled_cube_needs_total_noise():
    # for R != 1 only complete dephasing separates: the threshold sits at 1/2
    q = ThresholdQuery("local-dephase", StateSpaceSpec.cube(1.3), "cube-separable")
    assert min_noise(q) > 0.5 - 1e-5


def test_min_noise_bracket_errors(monkeypatch):
    import gencube.thresholds as th

    q = ThresholdQuery("joint-depol", CUBE, "cube-separable")
    monkeypatch.setattr(th, "_margin_fn", lambda c: (lambda A: 1.0))
    with pytest.raises(ThresholdBracketError, match="already holds"):
        min_noise(q)
    monkeypatch.setattr(th, "_margin_fn", lambda c: (lambda A: -1.0))
    with pytest.raises(ThresholdBracketError, match="still fails"):
        min_noise(q)


def test_analytic_bounds_at_unit_rescaling():
    ab = analytic_bound("local-depol", "cube", 1.0)
    assert ab.active == "xy"
    assert abs(ab.active_value - (math.sqrt(2) - 1)) < 1e-12
    jb = analytic_bound("joint-depol", "cube", 1.0)
    assert jb.active == "tdb1"
    assert abs(jb.active_value - 1 / 3) < 1e-12
    with pytest.raises(ValueError):
        analytic_bound("local-dephase", "cube", 1.0)


def test_analytic_bounds_monotone_xy():
    vals = [analytic_bound("local-depol", "cube", R).value("xy") for R in np.linspace(0.3, 2.0, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_analytic_intersections():
    R, r = analytic_intersection("local-depol")
    assert abs((1 - r) - 0.392919) < 1e-4
    assert abs((1 - R) - 0.479927) < 1e-4
    Rj, rj = analytic_intersection("joint-depol")
    assert abs(Rj - 1 / math.sqrt(3)) < 1e-6
    assert abs(rj - math.sqrt(3) / (2 + math.sqrt(3))) < 1e-6


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


def test_sphere_grid_inputs_domain():
    U, V, th, ph = sphere_grid_inputs(5)
    assert U.shape == V.shape == (25, 3) and th.shape == ph.shape == (25,)
    for u, v, t, f in zip(U, V, th, ph):
        assert 0 <= t <= math.pi / 2 and 0 <= f <= math.pi / 2
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        assert u[1] == 0.0
        assert np.array_equal(u, [math.cos(t), 0.0, math.sin(t)])
        assert np.array_equal(v, [math.cos(f), 0.0, math.sin(f)])


def _grid_scan_reference(q):
    """The sphere-grid threshold as a per-point scan: one brentq per grid
    point that can raise the running maximum, then the same over the 21 x 21
    refinement cell around the arg-max."""
    R, hi = q.space.R, (0.5 if q.noise_family == "local-dephase" else 1.0)

    def bloch(t):
        return BlochOp(np.array([math.cos(t), 0.0, math.sin(t)]))

    def point_threshold(th, ph, floor):
        u, v = bloch(th), bloch(ph)
        slack = lambda p: (quantum_margin(pipeline(u, v, R, NoiseModel(q.noise_family, p)))
                           + POSITIVITY_TOL)
        if slack(hi) < 0.0:
            raise ThresholdBracketError("criterion still fails at full noise")
        if slack(floor) >= 0.0:
            return None
        return brentq(slack, floor, hi, xtol=ROOT_XTOL)

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
    # the swap fold of min_noise: (th, ph) and (ph, th) give the same margin
    n = 12
    U, V, _, _ = sphere_grid_inputs(n)
    mirror = np.arange(n * n).reshape(n, n).T.ravel()   # row of (ph, th)
    P = product_rows(U, V)
    hi = 0.5 if family == "local-dephase" else 1.0
    for p in np.linspace(0.0, hi, 4):
        m = quantum_margins(pipeline_rows(P, R, NoiseModel(family, p)))
        assert np.max(np.abs(m - m[mirror])) < 1e-14


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


@pytest.mark.parametrize("grid_n", [0, -3])
def test_query_rejects_a_grid_below_one(grid_n):
    with pytest.raises(ValueError, match="grid_n must be at least 1"):
        ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.0), "quantum-separable",
                       "sphere-grid", grid_n=grid_n)


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
            r_bound = analytic_bound(family, "cube", R).active_value
            assert lam >= (1 - min(r_bound, 1.0)) - 1e-5


def test_pauli_positive_threshold_matches_analytic_bound():
    for family in ("joint-depol", "local-depol"):
        for R in (0.8, 1.0, 1.3):
            q = ThresholdQuery(family, StateSpaceSpec.cube(R), "pauli-positive")
            lam = min_noise(q)
            r_bound = analytic_bound(family, "cube", R).active_value
            assert abs(lam - (1 - min(r_bound, 1.0))) < 1e-6


def test_sphere_curve_smoke():
    q = ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.0),
                       "quantum-separable", "sphere-grid", grid_n=12)
    pts = curve(q, 1.0, 1.2, 2)
    assert len(pts) == 2
    assert pts[0].lambda_star > pts[1].lambda_star  # less gate noise needed at R > 1
    assert pts[0].achieved_by == "PPT"
