"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 needs the white-noise term of the magic-basis channel (see the
README section "Criterion 7: why the magic channel carries white noise"):
the noiseless channel's output on the two cube corners conjugate-aligned
with the T axis carries a Born probability of -eps/3, a positivity facet
value of -4 eps/3, so on its own it is cube-separable on all 64 corners at
tolerance 1e-9 only for eps <= 7.5e-10, while the required PT eigenvalue
< -1e-8 needs eps >= 8.1e-9.  Mixing the Choi state with weight p of I/16
maps every Born probability and every output PT eigenvalue x to
(1-p) x + p/4; since eps/3 < 1.24 eps, some p lifts the former above 0
while the latter stays below it.
"""
import math
import random
from fractions import Fraction

import numpy as np

from gencube import lp
from gencube.constructions import (
    appendix2_checks,
    error_per_gate_bounds,
    find_lemma8_params,
    vertex_orbit,
)
from gencube.gates import csign, joint_depol, pipeline
from gencube.pauli import BlochOp, PauliCoeffs2Q, to_dense
from gencube.separability import (
    appendix1_certificates,
    cube_separable,
    verify_certificate,
)
from gencube.simulator import parse_circuit, simulate_dense, simulate_hn, tvd
from gencube.spaces import (
    StateSpaceSpec,
    cube_vertices,
    operator_compatible,
    projective_qubit_povm,
    PovmSet,
    qubit_xyz_povms,
)
from gencube.thresholds import (
    ThresholdQuery,
    analytic_bound,
    analytic_intersection,
    dephasing_impossibility,
    lhv_achievability_boundary,
    min_noise,
)

from circuit_suite import SUITE

CUBE = StateSpaceSpec.cube(1.0)


def check(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_cube_thresholds():
    got_joint = min_noise(ThresholdQuery("joint-depol", CUBE, "cube-separable"))
    got_local = min_noise(ThresholdQuery("local-depol", CUBE, "cube-separable"))
    got_deph = min_noise(ThresholdQuery("local-dephase", CUBE, "cube-separable"))
    ok = (abs(got_joint - 2 / 3) < 1e-6
          and abs(got_local - (2 - math.sqrt(2))) < 1e-6
          and abs(got_deph - (1 - 1 / math.sqrt(2))) < 1e-6)
    check("criterion 1: cube thresholds 2/3, 2-sqrt2, 1-1/sqrt2 within 1e-6", ok,
          f"{got_joint:.8f}, {got_local:.8f}, {got_deph:.8f}")


def test_criterion_02_appendix1_certificates():
    items = appendix1_certificates()
    all_verify = all(
        item.valid and verify_certificate(item.certificate, item.target, 1.0, 1e-12)
        for item in items
    )
    p6 = 1 - 1 / math.sqrt(2)
    p7 = 2 - math.sqrt(2)
    inside = appendix1_certificates(dephase_p=p6 + 1e-3, depol_p=p7 + 1e-3)
    outside = appendix1_certificates(dephase_p=p6 - 1e-3, depol_p=p7 - 1e-3)
    boundary_ok = (
        all(i.valid and verify_certificate(i.certificate, i.target, 1.0, 1e-12)
            for i in inside[6:])
        and all((not i.valid) and not verify_certificate(i.certificate, i.target, 1.0, 1e-12)
                for i in outside[6:])
    )
    check("criterion 2: appendix LHV catalog verifies at 1e-12 with exact validity regions",
          all_verify and boundary_ok)


def test_criterion_03_appendix2():
    rep = appendix2_checks(n_samples=1000, seed=17)
    ok = (rep.stated_probability == -0.5
          and rep.over_unit_violations == 1000
          and rep.unit_ball_violations == 0)
    check("criterion 3: -1/2 probability exact; 1000/1000 over-unit witnesses, 0 inside", ok,
          f"p={rep.stated_probability}, over={rep.over_unit_violations}, "
          f"inside={rep.unit_ball_violations}")


def test_criterion_04_rescaled_cubes_local_depol():
    R_int, r_int = analytic_intersection("local-depol")
    inter_ok = abs((1 - r_int) - 0.392919) < 1e-4 and abs((1 - R_int) - 0.479927) < 1e-4

    R_star = lhv_achievability_boundary("local-depol")
    r_star = analytic_bound("local-depol", R_star).value("xy")
    boundary_ok = abs(R_star - 0.5449335) < 1e-3 and abs((1 - r_star) - 0.4060953) < 1e-3

    t3 = min_noise(ThresholdQuery("local-depol", StateSpaceSpec.cube(1 / math.sqrt(3)),
                                  "cube-separable"))
    t2 = min_noise(ThresholdQuery("local-depol", StateSpaceSpec.cube(1 / math.sqrt(2)),
                                  "cube-separable"))
    special_ok = (abs(t3 - (1 - 1 / math.sqrt(3))) < 1e-4
                  and abs(t2 - (1 - (math.sqrt(3) - 1) / math.sqrt(2))) < 1e-4)
    check("criterion 4: rescaled-cube local depol: intersection, boundary, special R",
          inter_ok and boundary_ok and special_ok,
          f"1-r={1-r_int:.6f}, 1-R={1-R_int:.6f}, R*={R_star:.5f}, "
          f"t(1/sqrt3)={t3:.6f}, t(1/sqrt2)={t2:.6f}")


def test_criterion_05_rescaled_cubes_joint_depol():
    R_int, r_int = analytic_intersection("joint-depol")
    inter_ok = (abs(R_int - 1 / math.sqrt(3)) < 1e-6
                and abs(r_int - math.sqrt(3) / (2 + math.sqrt(3))) < 1e-6)

    R_star = lhv_achievability_boundary("joint-depol")
    lam_star = 1 - analytic_bound("joint-depol", R_star).value("tdb1")
    boundary_ok = (abs(R_star - 1 / math.sqrt(2)) < 1e-3
                   and abs(lam_star - (1 - 1 / (math.sqrt(2) + 1))) < 1e-4)

    allones = BlochOp(np.ones(3))
    at_intersection = pipeline(allones, allones, R_int, joint_depol(1 - r_int))
    infeasible_ok = not cube_separable(at_intersection).feasible
    check("criterion 5: rescaled-cube joint depol: intersection, boundary, "
          "non-cube-separable point",
          inter_ok and boundary_ok and infeasible_ok,
          f"R_int={R_int:.7f}, r_int={r_int:.7f}, R*={R_star:.5f}, lam*={lam_star:.6f}")


def test_criterion_06_rescaled_sphere():
    qj = ThresholdQuery("joint-depol", StateSpaceSpec.sphere(1.73),
                        "quantum-separable", "sphere-grid", grid_n=60)
    lam_joint = min_noise(qj)
    ql = ThresholdQuery("local-depol", StateSpaceSpec.sphere(1.16),
                        "quantum-separable", "sphere-grid", grid_n=60)
    p_local = min_noise(ql)
    sweep_ok = abs(lam_joint - 0.536) < 0.005 and abs(p_local - 0.395) < 0.005

    dephasing_ok = True
    for R in (0.7, 0.9, 1.1, 1.4, 1.73):
        for p in (0.0, 0.1, 0.25, 0.4, 0.49):
            dephasing_ok &= not dephasing_impossibility(R, p).valid
    check("criterion 6: sphere sweeps 0.536@R=1.73 and 0.395@R=1.16; dephasing invalid",
          sweep_ok and dephasing_ok,
          f"lam_joint={lam_joint:.4f}, p_local={p_local:.4f}")


def test_criterion_07_lemma8_search():
    # Noiseless, the Born probability -eps/3 on the conjugate-axis vertices
    # makes "all 64 cube-separable at 1e-9" and "min PT < -1e-8" disjoint in
    # eps; the search's white-noise retry is what meets both.
    best, searched = find_lemma8_params(
        alphas=(0.999, 0.998, 0.995, 0.99),
        epsilons=(1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 3e-9),
    )
    assert searched, "search ran no configurations"
    ok = (best is not None and best.all_vertices_feasible
          and best.output_min_pt < -1e-8
          and best.marginal_deviation < 1e-10
          and best.cj_min_pt_inout < -1e-9 and best.cj_min_pt_ab < -1e-9)
    detail = "no candidate" if best is None else (
        f"best alpha={best.alpha}, eps={best.epsilon}: {best.vertex_feasible}/64 feasible, "
        f"minPT={best.output_min_pt:.2e}, marg={best.marginal_deviation:.1e}"
    )
    check("criterion 7: lemma-8 search (all-64 feasible AND eps>0 AND non-PPT)", ok, detail)


def test_criterion_08_error_per_gate():
    rep = error_per_gate_bounds()
    ok = (rep.lower == 0.2 and rep.w_identity_residual < 1e-12
          and rep.upper_feasible_count == 64)
    check("criterion 8: error-per-gate lower bound 0.2 exact; 50% construction feasible 64/64",
          ok, f"lower={rep.lower}, resid={rep.w_identity_residual:.1e}, "
              f"feasible={rep.upper_feasible_count}/64")


def test_criterion_09_symmetry_reduction():
    ok = True
    details = []
    for family in ("joint-depol", "local-depol", "local-dephase"):
        a = min_noise(ThresholdQuery(family, CUBE, "cube-separable", "worst-vertex"))
        b = min_noise(ThresholdQuery(family, CUBE, "cube-separable", "all-vertices"))
        details.append(f"{family}: {abs(a-b):.2e}")
        ok &= abs(a - b) < 1e-6
    orbit = vertex_orbit()
    ok &= len(orbit) == 8 and len(set(orbit)) == 8
    check("criterion 9: worst-vertex = all-vertices thresholds (1e-6); orbit visits all 8",
          ok, "; ".join(details))


def test_criterion_10_hn_simulator():
    ok = True
    details = []
    for name, text in sorted(SUITE.items()):
        circuit = parse_circuit(text)
        exact = simulate_dense(circuit)
        res = simulate_hn(circuit, 100000, seed=2024)
        d = tvd(res.histogram, exact)
        details.append(f"{name}: tvd={d:.4f}")
        ok &= d < 0.02
    c0 = parse_circuit(SUITE["adaptive_feedforward"])
    ok &= simulate_hn(c0, 20000, seed=5).histogram == simulate_hn(c0, 20000, seed=5).histogram

    rng = np.random.default_rng(81)
    U = np.diag([1, 1, 1, -1]).astype(complex)
    worst = 0.0
    for _ in range(100):
        A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
        lhs = to_dense(csign(A)).entries
        rhs = U @ to_dense(A).entries @ U.conj().T
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok &= worst < 1e-12
    check(f"criterion 10: HN vs dense TVD < 0.02 on {len(SUITE)} circuits; deterministic; "
          "csign map exact",
          ok, "; ".join(details) + f"; csign dev={worst:.1e}")


def test_criterion_11_operator_compatibility():
    res = operator_compatible(qubit_xyz_povms())
    verts = {tuple(v.bloch) for v in cube_vertices()}
    corners_ok = res.compatible and len(res.corners) == 8
    if corners_ok:
        from gencube.pauli import bloch_from_dense

        recovered = set()
        for c in res.corners:
            op = bloch_from_dense(c)
            key = tuple(round(x) for x in op.bloch)
            recovered.add(key)
            corners_ok &= max(abs(op.bloch[i] - key[i]) for i in range(3)) < 1e-10
            corners_ok &= abs(op.trace_coeff - 1.0) < 1e-10
        corners_ok &= recovered == verts

    rng = np.random.default_rng(83)
    four = PovmSet(tuple(projective_qubit_povm(a) for a in rng.standard_normal((4, 3))), 2)
    four_ok = not operator_compatible(four).compatible

    counting_ok = True
    # d = 2, N = 4 projective
    counting_ok &= 4 * 2 > 2 ** 2 + 4 - 1
    # d = 3, N = 5 projective
    povms3 = []
    for _ in range(5):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        povms3.append(tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(3)))
    five = PovmSet(tuple(povms3), 3)
    res5 = operator_compatible(five)
    counting_ok &= (not res5.compatible) and "exceeds" in res5.reason
    check("criterion 11: XYZ corners = cube vertices (1e-10); generic sets rejected",
          corners_ok and four_ok and counting_ok)


def test_criterion_12_lp_oracle_soundness():
    random.seed(90)
    cols = lp.exact_vertex_columns()
    V = lp.vertex_product_matrix()
    agree = 0
    infeasible_verified = True
    n_queries = 500
    for _ in range(n_queries):
        nterm = random.randint(1, 6)
        idx = random.sample(range(64), nterm)
        raw = [Fraction(random.randint(1, 100)) for _ in range(nterm)]
        tot = sum(raw)
        b = [sum(r / tot * cols[j][i] for r, j in zip(raw, idx)) for i in range(16)]
        if random.random() < 0.55:
            mag = Fraction(random.choice([1, 5, 20]), 100)
            for i in range(1, 16):
                b[i] += mag * Fraction(random.randint(-1000, 1000), 1000)
        bfl = np.array([float(x) for x in b])
        res = cube_separable(PauliCoeffs2Q(bfl.reshape(4, 4)))
        status, _ = lp.solve_membership_exact(b)
        agree += res.feasible == (status == "feasible")
        if not res.feasible:
            y = res.functional.dual.ravel()
            infeasible_verified &= float(np.min(V.T @ y)) >= -1e-9
            infeasible_verified &= res.functional.violation > 0
            infeasible_verified &= float(y @ bfl) < 0
    check("criterion 12: 500 queries agree with exact-rational oracle; duals verified",
          agree == n_queries and infeasible_verified, f"agree={agree}/{n_queries}")
