import math
from fractions import Fraction

import numpy as np
import pytest

from gencube import lp
from gencube.constructions import (
    MAGIC,
    W_MAGIC,
    appendix2_checks,
    bell_cube_certificate,
    build_cj,
    cj_apply,
    error_per_gate_bounds,
    find_lemma8_params,
    lemma8_noise_window,
    lemma8_report,
    separable_ball_radius,
    vertex_orbit,
)
from gencube.dense import partial_trace
from gencube.pauli import (
    PAULIS,
    BlochOp,
    PauliCoeffs2Q,
    choi_transfer_matrix,
    from_dense,
    product,
    to_dense,
)
from gencube.separability import verify_certificate
from gencube.spaces import CUBE_SIGNS, cube_vertices

from highs_reference import highs_feasible


def _cj_apply_dense(cj, A: PauliCoeffs2Q) -> PauliCoeffs2Q:
    """The channel through a 16 x 16 kron and a partial trace: cj_apply as it
    was computed before the transfer matrix."""
    if not A.is_normalized:
        raise ValueError("cj_apply expects a normalized input")
    rho_in = to_dense(A).entries
    op = np.kron(rho_in.T, np.eye(4))
    out = 4.0 * partial_trace(op @ cj.rho.entries, [2, 3], 4)
    return from_dense((out + out.conj().T) / 2)


def test_magic_basis():
    kT, kTb = MAGIC.t_state, MAGIC.t_bar_state
    assert abs(np.vdot(kT, kTb)) < 1e-12
    n = np.ones(3) / math.sqrt(3)
    obs = sum(n[k] * PAULIS[k + 1] for k in range(3))
    assert np.allclose(obs @ kT, kT, atol=1e-12)
    assert np.allclose(obs @ kTb, -kTb, atol=1e-12)


def test_magic_identity():
    corner = (PAULIS[0] + PAULIS[1] + PAULIS[2] + PAULIS[3]) / 2
    approx = W_MAGIC * MAGIC.t_projector - (W_MAGIC - 1) * MAGIC.t_bar_projector
    assert np.max(np.abs(corner - approx)) < 1e-12
    assert abs(W_MAGIC ** 2 + (W_MAGIC - 1) ** 2 - 2.0) < 1e-12


def test_build_cj_marginal_and_positivity():
    cj = build_cj(0.998, 0.0005)
    rho = cj.rho.entries
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    marg = partial_trace(rho, [0, 1], 4)
    assert np.max(np.abs(marg - np.eye(4) / 4)) < 1e-10


def test_build_cj_marginal_over_parameter_grid():
    for alpha in np.linspace(0.9, 1.0, 5):
        for eps in np.linspace(0.0, 1e-3, 4):
            try:
                cj = build_cj(float(alpha), float(eps))
            except ValueError:
                continue
            marg = partial_trace(cj.rho.entries, [0, 1], 4)
            assert np.max(np.abs(marg - np.eye(4) / 4)) < 1e-10


def test_build_cj_rejects_invalid_delta():
    with pytest.raises(ValueError):
        build_cj(0.5, 0.4)  # delta^2 > 1


def test_cj_identity_channel_convention():
    # CJ of the identity channel reproduces the input exactly
    vec = np.zeros(16, dtype=complex)
    for i in range(4):
        ket = np.zeros(4)
        ket[i] = 1.0
        vec += np.kron(ket, ket) / 2
    from gencube.constructions import CjState
    from gencube.pauli import DenseHermitian

    cj_id = CjState(DenseHermitian(np.outer(vec, vec.conj())), 1, 0, 1, 0, 0)
    rng = np.random.default_rng(61)
    for _ in range(10):
        A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
        coeffs = np.array(A.coeffs)
        coeffs[0, 0] = 1.0
        A = PauliCoeffs2Q(coeffs)
        out = cj_apply(cj_id, A)
        assert np.max(np.abs(out.coeffs - A.coeffs)) < 1e-12


@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_choi_transfer_matrix_matches_the_dense_route(noise):
    cj = build_cj(0.998, 1e-3, noise)
    T = choi_transfer_matrix(cj.rho)
    assert cj.transfer is cj.transfer and np.array_equal(cj.transfer, T)
    rng = np.random.default_rng(65)
    for _ in range(20):
        b = rng.standard_normal(16)
        b[0] = 1.0
        A = PauliCoeffs2Q(b.reshape(4, 4))
        ref = _cj_apply_dense(cj, A).coeffs.ravel()
        assert np.max(np.abs(T @ b - ref)) < 1e-14
        assert np.max(np.abs(cj_apply(cj, A).coeffs.ravel() - ref)) < 1e-14


def test_lemma8_infeasible_inputs_pinned():
    # u = +-(1, -1, 1) with every v, in vertex order
    rep = lemma8_report(0.998, 1e-3)
    vertices = [tuple(s) for s in CUBE_SIGNS.tolist()]
    assert rep.infeasible_inputs == tuple((u, v) for u in [(1, -1, 1), (-1, 1, -1)]
                                          for v in vertices)
    assert rep.vertex_feasible == 48


def test_cj_apply_linear_and_trace_preserving():
    cj = build_cj(0.99, 0.001)
    rng = np.random.default_rng(62)
    A = rng.standard_normal((4, 4))
    A[0, 0] = 1.0
    B = rng.standard_normal((4, 4))
    B[0, 0] = 1.0
    mid = PauliCoeffs2Q((A + B) / 2)
    lhs = cj_apply(cj, mid).coeffs
    rhs = (cj_apply(cj, PauliCoeffs2Q(A)).coeffs + cj_apply(cj, PauliCoeffs2Q(B)).coeffs) / 2
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert abs(cj_apply(cj, PauliCoeffs2Q(A)).coeffs[0, 0] - 1.0) < 1e-12


def test_cj_apply_positive_on_quantum_inputs():
    cj = build_cj(0.995, 0.0005)
    rng = np.random.default_rng(63)
    for _ in range(100):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a) * rng.uniform(1.0, 3.0)
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b) * rng.uniform(1.0, 3.0)
        out = cj_apply(cj, product(BlochOp(a), BlochOp(b)))
        eigs = np.linalg.eigvalsh(to_dense(out).entries)
        assert eigs[0] > -1e-9


def test_cj_output_near_magic_mixture_at_alpha_one():
    cj = build_cj(1.0, 0.0)
    t_dir = np.ones(3) / math.sqrt(3)
    for u in cube_vertices():
        out = cj_apply(cj, product(u, BlochOp(np.zeros(3))))
        # A2 marginal Bloch vector lies on the T axis
        a2 = out.coeffs[1:, 0]
        assert np.linalg.norm(a2 - (a2 @ t_dir) * t_dir) < 1e-12


def test_lemma8_report_spec_example_parameters():
    rep = lemma8_report(0.998, 0.0005)
    assert rep.marginal_deviation < 1e-10
    assert rep.output_min_pt < -1e-8
    assert rep.cj_min_pt_inout < -1e-3
    assert rep.cj_min_pt_ab < -1e-3
    # the gate is *not* separability preserving on the two conjugate-axis
    # vertices: 2 x 8 input pairs fail, everything else passes
    assert rep.vertex_feasible == 48
    fail_u = {u for (u, v) in rep.infeasible_inputs}
    assert fail_u == {(1, -1, 1), (-1, 1, -1)}
    lines = rep.as_lines()
    assert any(line.startswith("vertex_feasible:") for line in lines)


def test_lemma8_epsilon_zero_outputs_ppt():
    rep = lemma8_report(0.998, 0.0)
    assert rep.output_min_pt > -1e-10


def test_lemma8_far_alpha_many_failures():
    rep = lemma8_report(0.7, 0.001)
    assert rep.vertex_feasible < 48


def test_find_lemma8_params_reports_best():
    best, searched = find_lemma8_params(alphas=(0.998,), epsilons=(1e-4, 1e-5))
    assert best is not None
    assert searched
    assert best.output_min_pt < -1e-8
    # the noiseless channel fails 16 corners; its noisy retry passes them all
    assert best.all_vertices_feasible
    assert best.marginal_deviation < 1e-10


def test_lemma8_noise_window_derivation():
    alpha, eps = 0.998, 1e-4
    p0, p1 = lemma8_noise_window(lemma8_report(alpha, eps))
    assert 0.0 < p0 < p1
    aligned = {(1, -1, 1), (-1, 1, -1)}
    # just below p0 the 16 aligned pairs keep a negative Born probability
    below = lemma8_report(alpha, eps, noise=0.999 * p0)
    assert below.vertex_min_born < -lp.FEASIBILITY_TOL
    assert below.vertex_feasible == 48
    assert {u for (u, v) in below.infeasible_inputs} == aligned
    mid = 0.5 * (p0 + p1)
    rep = lemma8_report(alpha, eps, noise=mid)
    assert rep.vertex_feasible == 64
    assert rep.output_min_pt < -1e-8
    assert rep.marginal_deviation < 1e-10
    # the pass is exact, not an artefact of the float LP tolerance
    cj = build_cj(alpha, eps, mid)
    for u in aligned:
        for v in cube_vertices():
            out = cj_apply(cj, product(BlochOp(np.array(u, dtype=float)), v))
            status, _ = lp.solve_membership_exact([Fraction(float(x)) for x in out.coeffs.ravel()])
            assert status == "feasible", (u, v.bloch)


def test_error_per_gate_bounds(monkeypatch):
    # all 64 verdicts are facet verdicts, whose weights need no LP
    def refuse(*args, **kwargs):
        raise AssertionError("HiGHS ran outside the band")

    monkeypatch.setattr(lp, "linprog", refuse)
    rep = error_per_gate_bounds()
    assert rep.lower == 0.2
    assert rep.upper == 0.5
    assert rep.w_identity_residual < 1e-12
    assert abs(rep.w_square_identity - 2.0) < 1e-12
    assert rep.upper_feasible_count == 64
    assert len(rep.upper_certificates) == 64


def test_bell_cube_certificates():
    target, cert = bell_cube_certificate("phi+")
    assert np.array_equal(target.coeffs, np.diag([1.0, 1.0, -1.0, 1.0]))
    assert np.count_nonzero(cert.weights) == 8
    assert np.allclose(cert.weights[cert.weights > 0], 1 / 8)
    assert verify_certificate(cert, target, tol=1e-12)
    # psi+ constraint flips to x1=x2, y1=y2, z1=-z2
    target_psi, cert_psi = bell_cube_certificate("psi+")
    assert np.array_equal(target_psi.coeffs, np.diag([1.0, 1.0, 1.0, -1.0]))
    assert verify_certificate(cert_psi, target_psi, tol=1e-12)
    for which in ("phi-", "psi-"):
        t, c = bell_cube_certificate(which)
        assert verify_certificate(c, t, tol=1e-12)


def test_bell_certificate_wrong_constraint_fails():
    target, cert = bell_cube_certificate("phi+")
    # y1 = +y2 instead: reproduces +1 at the YY entry, mismatch at A_22
    from gencube.separability import LhvCertificate, vertex_pair_index
    import itertools

    w = np.zeros(64)
    for signs in itertools.product((1, -1), repeat=3):
        v = (signs[0], signs[1], signs[2])
        w[vertex_pair_index(signs, v)] += 1 / 8
    assert not verify_certificate(LhvCertificate(w, 1e-12), target, tol=1e-12)


def test_appendix2_checks():
    rep = appendix2_checks(n_samples=1000, seed=5)
    assert rep.stated_probability == -0.5
    assert rep.over_unit_violations == 1000
    assert rep.unit_ball_violations == 0


def test_separable_ball_radius():
    t = BlochOp(np.ones(3) / math.sqrt(3))
    r_t = separable_ball_radius(t, t, n_directions=6, seed=3)
    assert r_t > 0.01
    z = BlochOp(np.array([0.0, 0.0, 1.0]))
    r_z = separable_ball_radius(z, z, n_directions=6, seed=3)
    assert r_z == 0.0
    # radius shrinks approaching the corner direction
    near = BlochOp(np.array([0.57, 0.57, 0.57]) / np.linalg.norm([0.57, 0.57, 0.57]) * 0.999)
    mid = BlochOp(np.ones(3) / math.sqrt(3) * 0.5)
    r_near = separable_ball_radius(near, near, n_directions=6, seed=3)
    r_mid = separable_ball_radius(mid, mid, n_directions=6, seed=3)
    assert r_mid > r_near > 0


@pytest.mark.parametrize("a, b, seed", [
    (np.ones(3) / math.sqrt(3), np.ones(3) / math.sqrt(3), 3),
    (np.ones(3) / (2 * math.sqrt(3)), np.ones(3) / (2 * math.sqrt(3)), 3),
    (np.array([0.3, -0.5, 0.2]), np.array([0.6, 0.1, -0.4]), 11),
    (np.array([0.9, 0.2, -0.7]), np.array([-0.1, 0.8, 0.5]), 5),
])
def test_separable_ball_radius_lies_on_the_boundary(a, b, seed):
    # one direction: the radius is that ray's exit, checked by HiGHS
    r = separable_ball_radius(BlochOp(a), BlochOp(b), n_directions=1, seed=seed)
    assert 0.0 < r < 1.0
    d = np.random.default_rng(seed).standard_normal(15)
    d = np.concatenate(([0.0], d / np.linalg.norm(d)))
    centre = product(BlochOp(a), BlochOp(b)).coeffs.ravel()
    assert highs_feasible(centre + r * (1 - 1e-6) * d)
    assert not highs_feasible(centre + r * (1 + 1e-6) * d)


def test_vertex_orbit_visits_all():
    orbit = vertex_orbit()
    assert len(orbit) == 8
    assert len(set(orbit)) == 8
