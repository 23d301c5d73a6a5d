import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from gencube import lp, separability
from gencube.gates import (
    NoiseModel,
    apply_noise,
    csign,
    joint_depol,
    local_dephase,
    local_depol,
    pipeline,
    pipeline_rows,
)
from gencube.pauli import (
    ODD_Y,
    PT_SIGNS,
    BlochOp,
    PauliCoeffs2Q,
    born_probability,
    dense_rows,
    eigenvalues_hermitian,
    from_dense,
    partial_transpose,
    product,
    product_rows,
    to_dense,
)
from gencube.separability import (
    CRITERIA,
    LhvCertificate,
    appendix1_certificates,
    certificate_from_text,
    certificate_to_text,
    cube_separable,
    pauli_margins,
    positive_for_pauli,
    quantum_margins,
    quantum_separable_2q,
    slack,
    verify_certificate,
    vertex_pair_index,
)
from gencube.spaces import CUBE_SYMMETRIES, cube_vertices, rescale2, vertex_index

from highs_reference import highs_feasible

BELL = PauliCoeffs2Q(np.diag([1.0, 1.0, -1.0, 1.0]))
ALLONES = BlochOp(np.ones(3))


def test_bell_state_is_cube_separable():
    res = cube_separable(BELL)
    assert res.feasible
    assert verify_certificate(res.certificate, BELL)


def test_vertex_product_has_unit_weight_certificate():
    u = BlochOp(np.array([1.0, -1.0, 1.0]))
    v = BlochOp(np.array([-1.0, -1.0, 1.0]))
    A = product(u, v)
    res = cube_separable(A)
    assert res.feasible
    # some optimal basic solution: a single unit weight reproduces A
    w = np.zeros(64)
    w[vertex_pair_index(u.bloch, v.bloch)] = 1.0
    assert verify_certificate(LhvCertificate(w, 1e-12), A, tol=1e-12)


def test_certificate_of_a_rescaled_operator_is_checked_in_the_unit_frame():
    # the vertex product of the R-scaled space, A rescaled by R, carries A's
    # weights when asked at R, and only then
    u = BlochOp(np.array([1.0, -1.0, 1.0]))
    v = BlochOp(np.array([-1.0, -1.0, 1.0]))
    w = np.zeros(64)
    w[vertex_pair_index(u.bloch, v.bloch)] = 1.0
    cert = LhvCertificate(w, 1e-12)
    scaled = rescale2(product(u, v), 1.3)
    assert verify_certificate(cert, scaled, 1.3)
    assert not verify_certificate(cert, scaled)
    assert not verify_certificate(cert, product(u, v), 1.3)


def test_noiseless_csign_output_infeasible_with_functional():
    A = csign(product(ALLONES, ALLONES))
    assert not positive_for_pauli(A)
    res = cube_separable(A)
    assert not res.feasible
    f = res.functional
    assert f is not None
    V = lp.vertex_product_matrix()
    vals = V.T @ f.dual.ravel()
    assert np.min(vals) >= -1e-9
    assert f.dual.ravel() @ A.coeffs.ravel() < 0
    assert f.violation > 0


def test_cube_separable_validates_input():
    bad = PauliCoeffs2Q(np.diag([2.0, 0, 0, 0]))
    with pytest.raises(ValueError):
        cube_separable(bad)


def test_positive_for_pauli():
    mixed = np.zeros((4, 4))
    mixed[0, 0] = 1.0
    assert positive_for_pauli(PauliCoeffs2Q(mixed))
    # rescaled dephased output fails for R != 1, p < 1/2
    out = pipeline(ALLONES, ALLONES, 1.3, local_dephase(0.2))
    assert not positive_for_pauli(out)
    out_flat = pipeline(ALLONES, ALLONES, 1.0, local_dephase(1 - 1 / math.sqrt(2)))
    assert positive_for_pauli(out_flat)


def test_quantum_separable_2q():
    assert not quantum_separable_2q(BELL)
    r = 1 / math.sqrt(3.0)
    damped = PauliCoeffs2Q(np.diag([1.0, r * r, -r * r, r * r]))
    assert quantum_separable_2q(damped)  # exactly on the PPT boundary
    u = BlochOp(np.array([0.3, -0.2, 0.4]))
    v = BlochOp(np.array([0.0, 0.5, -0.5]))
    assert quantum_separable_2q(product(u, v))


def test_quantum_separable_implies_cube_separable():
    rng = np.random.default_rng(41)
    for _ in range(200):
        terms = rng.integers(1, 5)
        acc = np.zeros((4, 4))
        ws = rng.dirichlet(np.ones(terms))
        for w in ws:
            a = rng.standard_normal(3)
            a = a / np.linalg.norm(a)
            b = rng.standard_normal(3)
            b = b / np.linalg.norm(b)
            acc += w * product(BlochOp(a), BlochOp(b)).coeffs
        A = PauliCoeffs2Q(acc)
        assert quantum_separable_2q(A)
        assert cube_separable(A).feasible


def test_separable_implies_pauli_positive():
    rng = np.random.default_rng(42)
    verts = cube_vertices()
    for _ in range(50):
        w = rng.dirichlet(np.ones(6))
        idx = rng.integers(0, 8, (6, 2))
        acc = sum(wk * product(verts[i], verts[j]).coeffs
                  for wk, (i, j) in zip(w, idx))
        A = PauliCoeffs2Q(acc)
        res = cube_separable(A)
        assert res.feasible
        assert positive_for_pauli(A)


def test_verify_certificate_rejects_bad_weights():
    res = cube_separable(BELL)
    w = np.array(res.certificate.weights)
    w[0] += 0.1
    assert not verify_certificate(LhvCertificate(w, 1e-9), BELL)


def test_certificate_serialization_round_trip():
    res = cube_separable(BELL)
    text = certificate_to_text(res.certificate)
    back = certificate_from_text(text)
    assert back.tolerance_used == res.certificate.tolerance_used
    assert np.array_equal(back.weights, res.certificate.weights)
    assert text.startswith("# lhv certificate tolerance=")
    assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == 64


@pytest.mark.parametrize("line", ["1000 000 0.5", "00 0000 0.5", "000 002 0.5",
                                  "000 000", "000 000 0.5 0.5", "000 000 0.5\n000 000 0.5",
                                  "# tolerance="])
def test_certificate_text_rejects_malformed_bit_fields(line):
    body = certificate_to_text(cube_separable(BELL).certificate).splitlines()
    # replace the first weight line, for pair (000, 000)
    text = "\n".join(body[:2] + [line] + body[3:]) + "\n"
    with pytest.raises(ValueError, match="malformed certificate text"):
        certificate_from_text(text)


def test_pauli_margin_is_the_least_born_probability():
    # reference: the 36 Pauli-pair Born probabilities of the unit-frame operator
    rng = np.random.default_rng(21)
    families = (joint_depol, local_depol, local_dephase)
    for _ in range(200):
        u = BlochOp(rng.uniform(-1, 1, 3))
        v = BlochOp(rng.uniform(-1, 1, 3))
        R = float(rng.uniform(0.5, 1.8))
        A = pipeline(u, v, R, families[rng.integers(3)](float(rng.uniform(0, 0.5))))
        base = rescale2(A, 1.0 / R)
        ref = min(born_probability(base, p, s, q, t)
                  for p in (1, 2, 3) for q in (1, 2, 3) for s in (1, -1) for t in (1, -1))
        assert abs(pauli_margins(base.coeffs.reshape(1, 16))[0] - ref) < 1e-15
        assert positive_for_pauli(base) == (ref >= -separability.POSITIVITY_TOL)


def test_quantum_margin_is_the_least_eigenvalue_with_its_partial_transpose():
    rng = np.random.default_rng(8)
    for _ in range(100):
        A = PauliCoeffs2Q(np.r_[1.0, rng.uniform(-1, 1, 15)].reshape(4, 4))
        ref = min(eigenvalues_hermitian(to_dense(A))[0],
                  eigenvalues_hermitian(to_dense(partial_transpose(A)))[0])
        assert abs(quantum_margins(A.coeffs.reshape(1, 16))[0] - ref) < 1e-12
        assert quantum_separable_2q(A) == (ref >= -1e-9)


def _random_stack():
    rng = np.random.default_rng(9)
    return np.column_stack((np.ones(300), rng.uniform(-1, 1, (300, 15))))


def test_stacked_quantum_margins_match_the_one_matrix_margin():
    B = _random_stack()
    stacked = quantum_margins(B)
    assert stacked.shape == (300,)
    for b, m in zip(B, stacked):
        assert abs(quantum_margins(b.reshape(1, 16))[0] - m) < 1e-14


def _entry_permuted_margins(B):
    """quantum_margins with the partial transpose taken as an entry
    permutation of the dense operators: one complex Hermitian eigensolve."""
    rho = dense_rows(B)
    n = len(rho)
    pt = rho.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)
    low = np.linalg.eigvalsh(np.concatenate((rho, pt)))[:, 0]
    return np.minimum(low[:n], low[n:])


def test_coefficient_partial_transpose_matches_the_entry_permutation():
    B = _random_stack()
    n = len(B)
    rho = dense_rows(B)
    permuted = rho.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)
    assert np.array_equal(dense_rows(B * PT_SIGNS), permuted)
    assert np.array_equal(quantum_margins(B), _entry_permuted_margins(B))


def _xz_outputs(family, R):
    """Outputs of XZ-plane product inputs through the noisy CSIGN, at five
    strengths: a stack with no odd-Y coefficient."""
    rng = np.random.default_rng(31)
    th, ph = rng.uniform(0.0, 2.0 * math.pi, (2, 40))
    U = np.column_stack((np.cos(th), np.zeros(40), np.sin(th)))
    V = np.column_stack((np.cos(ph), np.zeros(40), np.sin(ph)))
    P = product_rows(U, V)
    hi = 0.5 if family == "local-dephase" else 1.0
    return np.concatenate([pipeline_rows(P, R, NoiseModel(family, p))
                           for p in np.linspace(0.0, hi, 5)])


@pytest.mark.parametrize("R", [0.8, 1.0, 1.3])
@pytest.mark.parametrize("family", ["joint-depol", "local-depol", "local-dephase"])
def test_real_route_matches_the_complex_eigensolve(family, R, monkeypatch):
    B = _xz_outputs(family, R)
    assert not B[:, ODD_Y].any()
    ref = _entry_permuted_margins(B)
    # the stack takes the real route: the complex build is never reached
    def no_complex(_):
        raise AssertionError("complex route taken")
    monkeypatch.setattr(separability, "dense_rows", no_complex)
    got = quantum_margins(B)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-14


def test_one_odd_y_coefficient_takes_the_complex_route():
    B = _random_stack()
    B[:, ODD_Y] = 0.0
    B[17, np.flatnonzero(ODD_Y)[3]] = 0.4
    assert np.array_equal(quantum_margins(B), _entry_permuted_margins(B))


def test_cube_separable_with_rescaled_vertices():
    # an operator of the R-scaled space is asked in the unit frame
    R = 0.8
    u = BlochOp(np.array([R, R, -R]))
    v = BlochOp(np.array([-R, R, R]))
    A = product(u, v)
    assert cube_separable(rescale2(A, 1 / R)).feasible
    # the unscaled corner product is outside the shrunken polytope
    big = product(ALLONES, ALLONES)
    assert not cube_separable(rescale2(big, 1 / R)).feasible


def test_exact_oracle_agreement_small():
    rng = np.random.default_rng(43)
    import random

    random.seed(43)
    V = lp.vertex_product_matrix()
    cols = lp.exact_vertex_columns()
    agree = 0
    for _ in range(40):
        nterm = random.randint(1, 6)
        idx = random.sample(range(64), nterm)
        raw = [Fraction(random.randint(1, 100)) for _ in range(nterm)]
        tot = sum(raw)
        b = [sum(r / tot * cols[j][i] for r, j in zip(raw, idx)) for i in range(16)]
        if random.random() < 0.6:
            mag = Fraction(random.choice([1, 5, 20]), 100)
            for i in range(1, 16):
                b[i] += mag * Fraction(random.randint(-1000, 1000), 1000)
        bfl = np.array([float(x) for x in b])
        res_float = cube_separable(PauliCoeffs2Q(bfl.reshape(4, 4)))
        status, cert = lp.solve_membership_exact(b)
        assert res_float.feasible == (status == "feasible")
        agree += 1
        if status == "feasible":
            resid = [sum(cols[j][i] * cert[j] for j in range(64)) - b[i] for i in range(16)]
            assert all(x == 0 for x in resid)
            assert all(x >= 0 for x in cert)
            assert sum(cert) == 1
        else:
            y = cert
            assert min(sum(y[i] * cols[j][i] for i in range(16)) for j in range(64)) >= 0
            assert sum(y[i] * b[i] for i in range(16)) < 0
    assert agree == 40


def test_appendix1_all_verify():
    items = appendix1_certificates()
    assert len(items) == 8  # item 5 contributes two sub-identities
    for item in items:
        assert item.valid, item.name
        assert verify_certificate(item.certificate, item.target, tol=1e-12), item.name


def test_appendix1_rows_join_5a_and_5b(monkeypatch):
    rows = separability.appendix1_checks()
    assert [label for label, _, _ in rows] == [f"appendix certificate {k}" for k in range(1, 8)]
    assert all(passed is True and detail == "" for _, passed, detail in rows)
    # an invalid 5b fails row 5 alone
    items = appendix1_certificates()
    items[5] = dataclasses.replace(items[5], valid=False)
    monkeypatch.setattr(separability, "appendix1_certificates", lambda: items)
    assert [passed for _, passed, _ in separability.appendix1_checks()] == [
        True, True, True, True, False, True, True]


def test_appendix1_item1_matches_display():
    items = appendix1_certificates()
    target = items[0].target.coeffs
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1:, 1:] = 1.0
    assert np.array_equal(target, expected)


def test_appendix1_item4_is_joint_depol_output():
    items = appendix1_certificates()
    item4 = items[3]
    expected = apply_noise(csign(product(ALLONES, ALLONES)), joint_depol(2 / 3)).coeffs
    assert np.max(np.abs(item4.target.coeffs - expected)) < 1e-15
    assert abs(item4.target.coeffs[0, 1] - 1 / 3) < 1e-15
    assert abs(item4.target.coeffs[1, 2] + 1 / 3) < 1e-15


def test_appendix1_validity_boundaries():
    p6 = 1 - 1 / math.sqrt(2.0)
    p7 = 2 - math.sqrt(2.0)
    # exactly at threshold: leading weight vanishes, still valid
    at = appendix1_certificates(dephase_p=p6, depol_p=p7)
    assert at[6].valid and at[7].valid
    head6 = 1 - 2 * (1 - 2 * p6) - (1 - 2 * p6) ** 2
    assert abs(head6) < 1e-12
    # inside the valid region
    inside = appendix1_certificates(dephase_p=p6 + 1e-3, depol_p=p7 + 1e-3)
    for item in inside[6:]:
        assert item.valid
        assert verify_certificate(item.certificate, item.target, tol=1e-12)
    # just outside: a weight goes negative and verification fails
    outside = appendix1_certificates(dephase_p=p6 - 1e-3, depol_p=p7 - 1e-3)
    for item in outside[6:]:
        assert not item.valid
        assert item.validity_reason is not None
        assert not verify_certificate(item.certificate, item.target, tol=1e-12)


def test_appendix1_certs6_7_track_gate_outputs_over_range():
    for p in (0.31, 0.35, 0.45):
        item = appendix1_certificates(dephase_p=p)[6]
        expected = apply_noise(csign(product(ALLONES, ALLONES)), local_dephase(p)).coeffs
        assert np.max(np.abs(item.target.coeffs - expected)) < 1e-15
    for p in (0.6, 0.7, 0.9):
        item = appendix1_certificates(depol_p=p)[7]
        expected = apply_noise(csign(product(ALLONES, ALLONES)), local_depol(p)).coeffs
        assert np.max(np.abs(item.target.coeffs - expected)) < 1e-15


# item 6 is defined for p in [0, 1/2], where the dephasing scale 1 - 2p is
# nonnegative: past 1/2 it is flagged invalid, though the output stays
# cube-separable up to 1/sqrt 2
@pytest.mark.parametrize("item, arg, kind, lo, hi, top", [
    (6, "dephase_p", "local-dephase", 1 - 1 / math.sqrt(2.0), 1 / math.sqrt(2.0), 0.5),
    (7, "depol_p", "local-depol", 2 - math.sqrt(2.0), 1.0, 1.0),
], ids=["local-dephase", "local-depol"])
def test_appendix_items_6_and_7_hold_from_their_threshold_on(item, arg, kind, lo, hi, top):
    for p in np.linspace(lo, hi, 9):
        got = appendix1_certificates(**{arg: float(p)})[item]
        output = pipeline(ALLONES, ALLONES, 1.0, NoiseModel(kind, float(p)))
        assert got.valid == (p <= top), p
        assert verify_certificate(got.certificate, output) == (p <= top), p
    # just outside the separable range the item is invalid and a weight is
    # negative
    for p in (lo - 1e-3, hi + 1e-3):
        if 0.0 <= p <= 1.0:
            got = appendix1_certificates(**{arg: p})[item]
            assert not got.valid and got.validity_reason is not None, p
            assert got.certificate.weights.min() < 0.0, p


# ---------------------------------------------------------------------------
# The facet table and the facet decision
# ---------------------------------------------------------------------------


def _integer_columns() -> np.ndarray:
    return np.array([[int(x) for x in col] for col in lp.exact_vertex_columns()]).T


def test_facet_table_is_three_orbits():
    F = lp.facet_table()
    assert F.shape == (684, 16)
    assert F.dtype.kind == "i"
    assert len(np.unique(F, axis=0)) == 684
    orbits = [lp.facet_orbit(rep) for _, rep in lp.FACET_REPRESENTATIVES]
    assert [len(o) for o in orbits] == [36, 72, 576]
    assert np.array_equal(F, np.concatenate(orbits))


def test_facet_orbit_is_the_row_wise_unique_of_its_images():
    # the packed keys give np.unique(axis=0)'s rows, order and dtype
    for _, rep in lp.FACET_REPRESENTATIVES:
        images = lp.local_images(np.asarray(rep, dtype=np.int64)).reshape(-1, 4, 4)
        images = np.concatenate([images, images.transpose(0, 2, 1)]).reshape(-1, 16)
        expected = np.unique(images, axis=0)
        got = lp.facet_orbit(rep)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    # entries at both ends of the key's range survive the round trip
    rep = np.diag([-8, 7, 0, 1])    # the identity entry keeps its sign
    assert {-8, 7} <= set(lp.facet_orbit(rep).ravel().tolist())


@pytest.mark.parametrize("entry", [8, -9])
def test_facet_orbit_refuses_entries_its_key_cannot_hold(entry):
    with pytest.raises(ValueError, match=r"facet entries must lie in \[-8, 7\]"):
        lp.facet_orbit(np.diag([entry, 1, 0, 0]))


def test_local_images_row_48a_plus_b_is_ga_A_gb_transpose():
    G = np.zeros((48, 4, 4), dtype=np.int64)
    G[:, 0, 0] = 1
    G[:, 1:, 1:] = CUBE_SYMMETRIES
    A = np.random.default_rng(41).standard_normal((4, 4))
    images = lp.local_images(A)
    assert images.shape == (48 * 48, 16)
    for a in range(48):
        for b in range(48):
            np.testing.assert_array_equal(images[48 * a + b], (G[a] @ A @ G[b].T).ravel())


def test_vertex_product_columns_follow_the_vertex_order():
    V = lp.vertex_product_matrix()
    verts = cube_vertices()
    for i in range(8):
        for j in range(8):
            np.testing.assert_array_equal(V[:, 8 * i + j], product(verts[i], verts[j]).coeffs.ravel())


def test_vertex_product_matrix_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        lp.vertex_product_matrix()[1:] *= 0.5
    A = PauliCoeffs2Q(np.diag([1.0, 1.0, -1.0, 1.0]))      # phi+
    res = cube_separable(A)
    assert res.feasible and verify_certificate(res.certificate, A)


def test_certificate_text_bits_are_vertex_indices():
    cert = LhvCertificate(np.arange(64) / 2016.0, 1e-12)
    lines = certificate_to_text(cert).splitlines()[2:]
    for k, line in enumerate(lines):
        u_bits, v_bits, _ = line.split()
        u, v = ([1 - 2 * int(c) for c in bits] for bits in (u_bits, v_bits))
        assert 8 * vertex_index(u) + vertex_index(v) == k == vertex_pair_index(u, v)


@pytest.mark.parametrize("u, v", [((0.5, 1, 1), (1, 1, 1)), ((0, -1, 1), (1, 1, 1, -1))])
def test_vertex_pair_index_refuses_non_vertices(u, v):
    with pytest.raises(ValueError, match="not a cube vertex"):
        vertex_pair_index(u, v)


def test_facets_valid_and_tight_on_rank_15_vertex_sets():
    F = lp.facet_table()
    cols = _integer_columns()
    values = F @ cols      # exact: integer arithmetic
    assert values.min() == 0
    # per row, the tight columns (the others zeroed); every column has entry
    # 1 at the identity, so linear rank 15 is affine rank 15: each facet is
    # a face of dimension 14 of the 15-dimensional polytope
    tight = cols[None, :, :] * (values == 0)[:, None, :]
    ranks = np.linalg.matrix_rank(tight.astype(float))
    assert np.all(ranks == 15), np.nonzero(ranks != 15)


def _random_queries(rng, n):
    """Convex mixes of 1..6 vertex products, perturbed by 0-20 % per
    coefficient."""
    V = lp.vertex_product_matrix()
    for _ in range(n):
        k = int(rng.integers(1, 7))
        b = V[:, rng.choice(64, k, replace=False)] @ rng.dirichlet(np.ones(k))
        b[1:] += rng.choice([0.01, 0.05, 0.2]) * rng.uniform(-1, 1, 15)
        yield b


def test_facet_verdicts_agree_with_highs():
    rng = np.random.default_rng(61)
    checked = 0
    for b in _random_queries(rng, 1100):
        d = lp.decide_membership(b)
        if d.route != "facet":
            continue
        assert d.feasible == highs_feasible(b), b
        checked += 1
    assert checked >= 1000


def test_infeasible_functional_is_the_violated_integer_facet():
    # the Bell state's correlations, 1.2 times too strong
    A = PauliCoeffs2Q(np.diag([1.0, 1.2, -1.2, 1.2]))
    res = cube_separable(A)
    assert not res.feasible and res.method == "facet"
    facet = lp.facet_table()[lp.decide_membership(A.coeffs.ravel()).facet]
    assert np.array_equal(res.functional.dual.ravel(), facet)
    assert facet @ A.coeffs.ravel() < 0 and res.functional.violation > 0


@pytest.mark.parametrize("offset", [5e-9, 1e-8])
def test_knife_edge_below_two_thirds_is_infeasible(offset):
    # these points once came out feasible from an exact solve of a
    # neighbouring, rounded instance
    A = apply_noise(csign(product(ALLONES, ALLONES)), joint_depol(2 / 3 - offset))
    res = cube_separable(A)
    assert not res.feasible
    assert res.method == "facet"
    status, _ = lp.solve_membership_exact([Fraction(x) for x in A.coeffs.ravel()])
    assert status == "infeasible"


def _residual(w, b):
    """max(|V w - b|_inf, |sum w - 1|)."""
    return max(np.abs(lp.vertex_product_matrix() @ w - b).max(), abs(w.sum() - 1.0))


def test_weights_for_a_rounded_boundary_point():
    # float(1/3) puts the 2/3 joint-depol output outside by a rounding error:
    # the exact simplex refutes the float instance, its least margin is
    # -1.1e-16, and the descent weights its mix with that much white noise
    A = apply_noise(csign(product(ALLONES, ALLONES)), joint_depol(2 / 3))
    b = A.coeffs.ravel()
    assert lp.solve_membership_exact([Fraction(x) for x in b])[0] == "infeasible"
    res = cube_separable(A)
    assert res.feasible and res.method == "mixed"
    assert res.certificate.tolerance_used == lp.FEASIBILITY_TOL
    assert verify_certificate(res.certificate, A)
    w = lp.caratheodory_weights(b)
    assert w.min() >= 0.0 and _residual(w, b) <= 1e-12


# (noise family, its R = 1 threshold, offset below it, verdict, margin) for
# the all-ones output, on either side of the cut m = -tol; the least facet
# is a positivity row (f_0 = 1) in all three families
_BAND_CUTS = [
    (joint_depol, 2 / 3, 3.4e-10, False, -1.02e-9),
    (joint_depol, 2 / 3, 3.3e-10, True, -9.9e-10),
    (local_depol, 2 - math.sqrt(2), 3.6e-10, False, -1.018e-9),
    (local_depol, 2 - math.sqrt(2), 3.5e-10, True, -9.899e-10),
    (local_dephase, 1 - 1 / math.sqrt(2), 1.8e-10, False, -1.018e-9),
    (local_dephase, 1 - 1 / math.sqrt(2), 1.75e-10, True, -9.899e-10),
]


@pytest.mark.parametrize("noise, threshold, offset, feasible, margin", _BAND_CUTS,
                         ids=[f"{o}-{f}-{m}" for *_, o, f, m in _BAND_CUTS])
def test_band_cut_is_the_white_noise_tolerance(noise, threshold, offset, feasible, margin):
    # feasible iff the least margin f . b / f_0 is >= -tol: an accepted point
    # is weighted within tol, a refused one is infeasible in exact arithmetic
    A = apply_noise(csign(product(ALLONES, ALLONES)), noise(threshold - offset))
    d = lp.decide_membership(A.coeffs.ravel())
    assert d.feasible is feasible and d.route == ("mixed" if feasible else "facet")
    assert d.margin == pytest.approx(margin, rel=1e-3)
    res = cube_separable(A)
    assert res.feasible is feasible and res.method == d.route
    if feasible:
        assert verify_certificate(res.certificate, A)
    else:
        exact = lp.solve_membership_exact([Fraction(x) for x in A.coeffs.ravel()])
        assert exact[0] == "infeasible"


# the R = 1 cube thresholds of the three families, and dephasing's upper
# edge, approached from the refused side (threshold - side * offset)
_EDGES = [("joint-depol", 2 / 3, 1), ("local-depol", 2 - math.sqrt(2), 1),
          ("local-dephase", 1 - 1 / math.sqrt(2), 1), ("local-dephase", 1 / math.sqrt(2), -1)]


@pytest.mark.parametrize("kind, threshold, side", _EDGES,
                         ids=["joint-depol", "local-depol", "local-dephase",
                              "local-dephase-upper"])
def test_vertex_pair_outputs_share_one_verdict_near_the_threshold(kind, threshold, side):
    # the 64 vertex-pair outputs are images of each other under the cube's
    # symmetries: one verdict and one route at every strength of a 5e-12 grid
    V = lp.vertex_product_matrix().T
    for offset in np.arange(401) * 5e-12:
        outputs = pipeline_rows(V, 1.0, NoiseModel(kind, threshold - side * offset))
        verdicts = {(d.feasible, d.route) for d in map(lp.decide_membership, outputs)}
        assert len(verdicts) == 1, (offset, verdicts)


def _near_cut_points(rng, n):
    """Points whose least margin is drawn uniformly from [-2 tol, 0): a convex
    mix of 1..20 vertex products moved along a random direction until its
    least margin first reaches the draw."""
    V = lp.vertex_product_matrix()
    F = lp.facet_table().astype(float)
    for _ in range(n):
        k = int(rng.integers(1, 21))
        b = V[:, rng.choice(64, k, replace=False)] @ rng.dirichlet(np.ones(k))
        d = np.concatenate(([0.0], rng.standard_normal(15)))
        target = -2 * lp.FEASIBILITY_TOL * rng.random()
        fb, fd = F @ b, F @ d
        down = fd < 0
        yield b + np.min((target * F[down, 0] - fb[down]) / fd[down]) * d


def test_one_verdict_on_all_images_near_the_cut():
    # the cube's 2304 local symmetries and the party swap permute the facet
    # values, so all 4608 images of a point get its verdict and route
    routes = set()
    for b in _near_cut_points(np.random.default_rng(5), 12):
        assert -2.1 * lp.FEASIBILITY_TOL <= lp.decide_membership(b).margin < 0.0
        images = lp.local_images(b.reshape(4, 4))
        images = np.concatenate([images, images.reshape(-1, 4, 4).transpose(0, 2, 1)
                                 .reshape(-1, 16)])
        verdicts = {(d.feasible, d.route) for d in map(lp.decide_membership, images)}
        assert len(verdicts) == 1, verdicts
        routes |= verdicts
    assert routes == {(True, "mixed"), (False, "facet")}


def test_verdicts_near_the_cut_are_certified():
    # accepted: the weights reproduce b within tol; refused: exactly infeasible
    refused = 0
    for b in _near_cut_points(np.random.default_rng(7), 300):
        A = PauliCoeffs2Q(b.reshape(4, 4))
        res = cube_separable(A)
        if res.feasible:
            assert res.method == "mixed"
            assert verify_certificate(res.certificate, A, tol=lp.FEASIBILITY_TOL), b
        elif refused < 5:
            assert lp.solve_membership_exact([Fraction(x) for x in b])[0] == "infeasible"
            refused += 1
    assert refused == 5


def _facet_feasible_points():
    """180 convex mixes of 1..20 vertex products, half of them perturbed,
    and the 64 vertex-pair outputs of each noise family from its threshold
    to full noise; only points with every facet value >= 0."""
    rng = np.random.default_rng(73)
    V = lp.vertex_product_matrix()
    for _ in range(180):
        k = int(rng.integers(1, 21))
        b = V[:, rng.choice(64, k, replace=False)] @ rng.dirichlet(np.ones(k))
        if rng.random() < 0.5:
            b[1:] += 0.05 * rng.uniform(-1, 1, 15)
        yield b
    for family, lo, hi in (("joint-depol", 2 / 3, 1.0), ("local-depol", 2 - math.sqrt(2), 1.0),
                           ("local-dephase", 1 - 1 / math.sqrt(2), 1 / math.sqrt(2))):
        for p in np.linspace(lo, hi, 4):
            yield from pipeline_rows(V.T, 1.0, NoiseModel(family, p))


def test_caratheodory_weights_reproduce_facet_feasible_points():
    checked = 0
    for b in _facet_feasible_points():
        if lp.facet_values(b).min() < 0.0:
            continue
        w = lp.caratheodory_weights(b)
        assert w.min() >= 0.0 and np.count_nonzero(w) <= 16, b
        assert _residual(w, b) <= 1e-12, b
        checked += 1
    assert checked >= 600


def test_caratheodory_weights_near_low_dimensional_faces():
    # points just inside faces spanned by 1..9 vertex products, pulled toward
    # the centre e_0 by s = 1e-13 .. 1e-5, where the facet values are of the
    # size of a rounding error
    rng = np.random.default_rng(11)
    V = lp.vertex_product_matrix()
    e0 = np.eye(16)[0]
    for _ in range(2000):
        k = int(rng.integers(1, 10))
        cols = rng.choice(64, k, replace=False)
        u = rng.uniform(0, 1, k)
        s = 10 ** rng.uniform(-13, -5)
        b = (1 - s) * V[:, cols] @ (u / u.sum()) + s * e0
        w = lp.caratheodory_weights(b)
        assert w.min() >= 0.0 and np.count_nonzero(w) <= 16, b
        assert _residual(w, b) <= 1e-12, b


def test_caratheodory_weights_refuse_a_point_outside():
    with pytest.raises(ValueError, match="outside the polytope"):
        lp.caratheodory_weights(np.diag([1.0, 1.2, -1.2, 1.2]).ravel())


def test_caratheodory_weights_refuse_a_non_finite_point():
    # m < -tol is False for a NaN least margin, so the margin test alone
    # would let such a point into the descent: a non-finite point is
    # refused before any margin is read
    nan = np.full(16, np.nan)
    assert not lp.decide_membership(nan).feasible
    inf = np.eye(16)[0]
    inf[5] = np.inf
    for b in (nan, inf):
        with pytest.raises(ValueError, match="finite"):
            lp.caratheodory_weights(b)


def _index_descent(b):
    """caratheodory_weights on index arrays: each step filters the candidates
    through the 684 x 64 table of facets on vertices, and each face of at
    most 16 vertices has its rank computed afresh.  The descent on face
    masks must give its floats bit for bit."""
    F = lp.facet_table().astype(float)
    T = lp.facet_table() @ _integer_columns()
    V = lp.vertex_product_matrix()
    m = float(lp.facet_margins(b).min())
    if m < -lp.FEASIBILITY_TOL:
        raise ValueError("b lies outside the polytope")
    x = b if m >= 0.0 else (b - m * np.eye(16)[0]) / (1.0 - m)
    w, mass = np.zeros(64), 1.0
    cand = np.arange(64)
    while True:
        C = V[:, cand]
        if cand.size <= 16 and np.linalg.matrix_rank(C) == cand.size:
            w[cand] += mass * np.clip(np.linalg.lstsq(C, x, rcond=None)[0], 0.0, None)
            return w
        j = cand[np.argmax(x @ C)]
        values = np.maximum(F @ x, 0.0)
        exits = values < T[:, j]
        if not exits.any():
            w[j] += mass
            return w
        ratios = values[exits] / (T[exits, j] - values[exits])
        t = float(ratios.min())
        reached = np.flatnonzero(exits)[ratios == t]
        cand = cand[~T[np.ix_(reached, cand)].any(axis=0)]
        w[j] += mass * t / (1.0 + t)
        mass /= 1.0 + t
        x = x + t * (x - V[:, j])


# the certify workload's knife-edge offsets from the R = 1 thresholds, and
# the sample workload's noise strengths per family
_KNIFE_OFFSETS = (1e-6, 5e-8, 1e-8, 5e-9, -1e-6, -5e-8, -1e-8, -5e-9)
_STRENGTH_RANGES = {"joint-depol": (0.70, 0.95), "local-depol": (0.62, 0.95),
                    "local-dephase": (0.32, 0.50)}


def _rescaled_vertex():
    """The R = 0.8 vertex product of test_cube_separable_with_rescaled_vertices
    in the unit frame: one step takes its face to the empty mask."""
    R = 0.8
    A = product(BlochOp(np.array([R, R, -R])), BlochOp(np.array([-R, R, R])))
    return rescale2(A, 1 / R).coeffs.ravel()


def _descent_lattice():
    """The knife-edge CSIGN outputs of the all-ones pair (3 families x 8
    offsets), criterion 12's rational points in floats, the 64 vertex-pair
    outputs over each family's sampling strengths, Dirichlet mixes of the
    vertex products, and the rescaled vertex product."""
    V = lp.vertex_product_matrix()
    for family, threshold in (("joint-depol", 2 / 3), ("local-depol", 2 - math.sqrt(2)),
                              ("local-dephase", 1 - 1 / math.sqrt(2))):
        for offset in _KNIFE_OFFSETS:
            model = NoiseModel(family, threshold + offset)
            yield pipeline(ALLONES, ALLONES, 1.0, model).coeffs.ravel()
    for b in _criterion12_rationals(120):
        yield np.array([float(x) for x in b])
    for family, (lo, hi) in _STRENGTH_RANGES.items():
        for p in np.linspace(lo, hi, 3):
            yield from pipeline_rows(V.T, 1.0, NoiseModel(family, p))
    rng = np.random.default_rng(29)
    for k in (64, 40, 16, 8, 3) * 20:
        yield V[:, rng.choice(64, k, replace=False)] @ rng.dirichlet(np.ones(k))
    yield _rescaled_vertex()


def _weights_or_refusal(descent, b):
    try:
        return descent(b).tobytes()
    except ValueError as err:
        return str(err)


def _descent_mismatches(points) -> list:
    """The points on which the package's descent and the index descent differ
    in any bit of their weights, or in their refusal."""
    return [b for b in points
            if _weights_or_refusal(lp.caratheodory_weights, b) != _weights_or_refusal(_index_descent, b)]


def _record_faces(monkeypatch) -> set:
    """Every face mask the descent asks the independence test of."""
    test, faces = lp._independent_face, set()
    monkeypatch.setattr(lp, "_independent_face", lambda face: faces.add(face) or test(face))
    return faces


def test_the_masked_descent_is_the_index_descent_bit_for_bit(monkeypatch):
    independent = lp._independent_face
    faces = _record_faces(monkeypatch)
    points = list(_descent_lattice())
    assert _descent_mismatches(points) == []
    weighted = [b for b in points if lp.decide_membership(b).feasible]
    assert len(weighted) >= 700 and len(points) - len(weighted) >= 12
    # every face asked has its rank decided as matrix_rank decides it
    V = lp.vertex_product_matrix()
    assert len(faces) >= 100
    for face in faces:
        cols = lp._face_columns(face)
        assert cols.tolist() == [j for j in range(64) if face >> j & 1]
        assert independent(face) == (np.linalg.matrix_rank(V[:, cols]) == cols.size)
    assert independent.cache_info().maxsize == lp._FACE_CACHE


def test_an_empty_face_keeps_the_lost_mass_lost(monkeypatch):
    # the rescaled vertex product leaves no vertex after one step; the empty
    # face is independent, its least squares on 16 x 0 adds nothing, and the
    # weights sum to 1 less a rounding error, as on index arrays
    faces = _record_faces(monkeypatch)
    b = _rescaled_vertex()
    w = lp.caratheodory_weights(b)
    assert faces == {0}
    assert lp._face_columns(0).dtype.kind == "i" and lp._face_columns(0).size == 0
    assert w.tobytes() == _index_descent(b).tobytes()
    assert 0.0 < 1.0 - w.sum() <= 1e-15


def test_facet_masks_are_the_vertices_on_each_facet(monkeypatch):
    on = lp.facet_table() @ _integer_columns() == 0
    masks = lp._facet_arrays()[3]
    assert masks.shape == (684,)
    bits = np.array([[int(m) >> j & 1 for j in range(64)] for m in masks], dtype=bool)
    assert np.array_equal(bits, on)
    # the masks are read off the facet table in force
    _use_facet_table(monkeypatch, lp.facet_table()[::-1])
    assert np.array_equal(lp._facet_arrays()[3], masks[::-1])


def test_a_cleared_mask_bit_leaves_the_lattice(monkeypatch):
    # clear, in the mask of a facet the first step reaches on a lattice
    # point inside every facet, the bit of a vertex that point's weights
    # use: the vertex leaves the face at that step, and the lattice no
    # longer matches the index descent
    F, inv, T, masks = lp._facet_arrays()
    points = list(_descent_lattice())
    b = next(p for p in points if lp.facet_margins(p).min() > 0.0)
    values = np.maximum(F @ b, 0.0)
    j = int(np.argmax(b @ lp.vertex_product_matrix()))
    exits = values < T[j]
    ratios = values[exits] / (T[j][exits] - values[exits])
    k = int(np.flatnonzero(exits)[np.argmin(ratios)])
    v = int(np.flatnonzero(lp.caratheodory_weights(b))[-1])
    assert int(masks[k]) >> v & 1
    cleared = masks.copy()
    cleared[k] ^= np.uint64(1 << v)
    monkeypatch.setattr(lp, "_facet_arrays", lambda: (F, inv, T, cleared))
    mismatches = _descent_mismatches(points)
    assert any(m is b for m in mismatches)


# ---------------------------------------------------------------------------
# The exact oracle
# ---------------------------------------------------------------------------


def _reference_exact_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan solve of a square exact system."""
    m = len(rhs)
    A = [rows[i][:] + [rhs[i]] for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if A[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular basis in exact dual solve")
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(m):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * c for a, c in zip(A[r], A[col])]
    return [A[i][m] for i in range(m)]


def _fraction_simplex_reference(b: list[Fraction]):
    """The Fraction-tableau simplex that lp.solve_membership_exact replaced,
    kept to pin its outputs: phase-1 simplex with Bland's rule.

    Returns ("feasible", weights) with exact convex weights, or
    ("infeasible", y) with an exact Farkas functional satisfying
    y . V_j >= 0 for every vertex-product column and y . b < 0.
    """
    cols = lp.exact_vertex_columns()
    m, n = 16, 64
    flip = [-1 if b[i] < 0 else 1 for i in range(m)]
    # flipped constraint columns, artificials appended
    fcols = [[flip[i] * col[i] for i in range(m)] for col in cols]
    fcols += [[Fraction(1) if i == k else Fraction(0) for i in range(m)] for k in range(m)]
    T = [[fcols[j][i] for j in range(n + m)] for i in range(m)]
    rhs = [flip[i] * b[i] for i in range(m)]
    basis = list(range(n, n + m))
    # phase-1 reduced costs: artificials cost 1
    r = [-sum(T[i][j] for i in range(m)) for j in range(n)] + [Fraction(0)] * m
    ncols = n + m
    for _ in range(20000):
        enter = next((j for j in range(ncols) if r[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = rhs[i] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("phase-1 unbounded (cannot happen)")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * c for a, c in zip(T[i], T[leave])]
                rhs[i] -= f * rhs[leave]
        f = r[enter]
        r = [a - f * c for a, c in zip(r, T[leave])]
        basis[leave] = enter
    else:
        raise ArithmeticError("simplex iteration limit exceeded")
    artificial_mass = sum(rhs[i] for i in range(m) if basis[i] >= n)
    if artificial_mass == 0:
        w = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                w[bi] = rhs[i]
        return "feasible", w
    # Farkas dual from the final basis: solve B^T y = c_B exactly
    bt_rows = [[fcols[basis[j]][i] for i in range(m)] for j in range(m)]
    c_b = [Fraction(1) if basis[j] >= n else Fraction(0) for j in range(m)]
    y = _reference_exact_linear(bt_rows, c_b)
    y_final = [-(y[i] * flip[i]) for i in range(m)]
    return "infeasible", y_final


def _criterion12_rationals(n, seed=90):
    """Criterion 12's queries: exact convex mixes of 1..6 vertex products,
    55 % of them perturbed by 1, 5 or 20 % per coefficient."""
    import random

    rnd = random.Random(seed)
    cols = lp.exact_vertex_columns()
    for _ in range(n):
        nterm = rnd.randint(1, 6)
        idx = rnd.sample(range(64), nterm)
        raw = [Fraction(rnd.randint(1, 100)) for _ in range(nterm)]
        tot = sum(raw)
        b = [sum(r / tot * cols[j][i] for r, j in zip(raw, idx)) for i in range(16)]
        if rnd.random() < 0.55:
            mag = Fraction(rnd.choice([1, 5, 20]), 100)
            for i in range(1, 16):
                b[i] += mag * Fraction(rnd.randint(-1000, 1000), 1000)
        yield b


def _gate_outputs_near_thresholds():
    """Float CSIGN outputs of the all-ones pair, as exact dyadic rationals,
    at 2/3 and at each family's R = 1 threshold, offset by +-{5e-9, 1e-8, 1e-6}."""
    thresholds = {joint_depol: (2 / 3,), local_depol: (2 / 3, 2 - math.sqrt(2)),
                  local_dephase: (2 / 3, 1 - 1 / math.sqrt(2))}
    noiseless = csign(product(ALLONES, ALLONES))
    for family, ps in thresholds.items():
        for p in ps:
            for offset in (5e-9, 1e-8, 1e-6):
                for q in (p - offset, p + offset):
                    yield [Fraction(x) for x in apply_noise(noiseless, family(q)).coeffs.ravel()]


# the 2/3 joint-depol output pulled this far toward the maximally mixed point
_PULL = Fraction(1, 2 ** 40)


def _pulled_instance():
    A = apply_noise(csign(product(ALLONES, ALLONES)), joint_depol(2 / 3))
    centre = [Fraction(1)] + [Fraction(0)] * 15
    return [(1 - _PULL) * Fraction(x) + _PULL * c for x, c in zip(A.coeffs.ravel(), centre)]


def test_integer_tableau_returns_the_fraction_simplex_outputs():
    queries = list(_criterion12_rationals(40)) + list(_gate_outputs_near_thresholds())
    queries.append(_pulled_instance())
    statuses = set()
    for b in queries:
        out = lp._bland_phase1(b)
        assert out == _fraction_simplex_reference(b), b
        statuses.add(out[0])
    assert statuses == {"feasible", "infeasible"}


@pytest.mark.parametrize("size", [15, 17])
def test_exact_oracle_rejects_a_wrong_length(size):
    with pytest.raises(ValueError):
        lp.solve_membership_exact([Fraction(1)] + [Fraction(0)] * (size - 1))


def _ray_points(n, seed=5):
    """(exit, just outside) pairs along n rays from the maximally mixed point
    c: the exit c + t* d of the 684-facet H-polytope along an integer
    direction d in the A_00 = 0 plane, t* = min -f.c / f.d, and
    c + t* (1 + 2^-30) d."""
    import random

    rnd = random.Random(seed)
    F = lp.facet_table()
    c = [Fraction(1)] + [Fraction(0)] * 15
    for _ in range(n):
        d = [0] + [rnd.randint(-1000, 1000) for _ in range(15)]
        fd = F @ np.array(d)
        t = min(Fraction(-int(f0), int(x)) for f0, x in zip(F[:, 0], fd) if x < 0)
        yield ([ci + t * di for ci, di in zip(c, d)],
               [ci + t * (1 + Fraction(1, 2 ** 30)) * di for ci, di in zip(c, d)])


def test_facet_table_is_complete_along_random_rays():
    # a missing facet would leave some exit point outside the vertex
    # polytope, where no exact weights w >= 0 exist: the route could then
    # neither solve for them on the descent's support nor get them from the
    # tableau it falls back to, and would return the point infeasible
    cols = _integer_columns()
    for edge, past in _ray_points(200):
        status, w = lp.solve_membership_exact(edge)
        assert status == "feasible"
        assert all(x >= 0 for x in w) and sum(w) == 1
        status, y = lp.solve_membership_exact(past)
        assert status == "infeasible"
        # exact Farkas check on the integer columns: y scaled to integers
        scale = math.lcm(*(x.denominator for x in y))
        assert min(np.array([int(x * scale) for x in y], dtype=object) @ cols) >= 0
        assert sum(yi * bi for yi, bi in zip(y, past)) < 0


def _certifies(b, out) -> bool:
    """Whether out = (status, certificate) proves its status on b exactly:
    weights w >= 0 with V w = b, or y with y . V_j >= 0 on every column and
    y . b < 0."""
    status, c = out
    cols = lp.exact_vertex_columns()
    if status == "feasible":
        support = [j for j in range(64) if c[j]]
        return (min(c) >= 0 and len(c) == 64
                and all(sum(cols[j][i] * c[j] for j in support) == b[i] for i in range(16)))
    return (min(sum(yi * vi for yi, vi in zip(c, col)) for col in cols) >= 0
            and sum(yi * bi for yi, bi in zip(c, b)) < 0)


def _count_fallbacks(monkeypatch) -> list:
    """Record every point solve_membership_exact hands to its tableau."""
    tableau, sent = lp._bland_phase1, []
    monkeypatch.setattr(lp, "_bland_phase1", lambda b: sent.append(b) or tableau(b))
    return sent


def test_exact_route_returns_the_tableau_status(monkeypatch):
    tableau = lp._bland_phase1
    sent = _count_fallbacks(monkeypatch)
    queries = list(_criterion12_rationals(100)) + list(_gate_outputs_near_thresholds())
    queries.append(_pulled_instance())
    queries += [b for pair in _ray_points(30, seed=6) for b in pair]
    statuses = set()
    for b in queries:
        out = lp.solve_membership_exact(b)
        assert out[0] == tableau(b)[0], b
        assert _certifies(b, out), b
        statuses.add(out[0])
    assert statuses == {"feasible", "infeasible"}
    # every one of these points is settled by a facet or by its support
    assert sent == []


@pytest.mark.parametrize("xx, status", [(Fraction(1, 2), "feasible"),
                                        (Fraction(3, 2), "infeasible")])
def test_exact_route_is_scale_free(xx, status):
    # A_XX = 1/2 mixes two vertex products, A_XX = 3/2 breaks 1 - A_XX >= 0;
    # a positive scale keeps the verdict, also one beyond every float
    point = [Fraction(1)] + [Fraction(0)] * 4 + [xx] + [Fraction(0)] * 10
    for scale in (Fraction(1), Fraction(10) ** 400, Fraction(1, 10 ** 400)):
        b = [scale * x for x in point]
        out = lp.solve_membership_exact(b)
        assert out[0] == status and _certifies(b, out)


def _rounded_vertex_mixes(n, seed):
    """Exact convex mixes of 1..6 vertex products, each coefficient rounded
    to a float and read back exactly: the certify workload's random/0%
    queries, which sit just off their face."""
    import random

    rnd = random.Random(seed)
    cols = lp.exact_vertex_columns()
    for _ in range(n):
        nterm = rnd.randint(1, 6)
        idx = rnd.sample(range(64), nterm)
        raw = [Fraction(rnd.randint(1, 100)) for _ in range(nterm)]
        tot = sum(raw)
        yield [Fraction(float(sum(r / tot * cols[j][i] for r, j in zip(raw, idx))))
               for i in range(16)]


def test_rounded_vertex_mixes_are_weighted_past_their_support(monkeypatch):
    # a rounded mix a hair off its face needs vertices the float descent
    # leaves out, so its own support has no exact weights; the point moved
    # off the face along the residual has them, and the tableau is not asked
    tableau = lp._bland_phase1
    sent = _count_fallbacks(monkeypatch)
    past, moved = lp._weights_past_support, []
    monkeypatch.setattr(lp, "_weights_past_support",
                        lambda *args: moved.append(args[1]) or past(*args))
    queries = list(_rounded_vertex_mixes(60, seed=0))
    for b in queries:
        out = lp.solve_membership_exact(b)
        assert out[0] == tableau(b)[0], b
        assert _certifies(b, out), b
    assert sent == []
    assert 0 < len(moved) < len(queries)


def _across_facet(row, s=Fraction(1, 2 ** 20)):
    """(1 - s) p + s e_0 and (1 + s) p - s e_0, p the centroid of the vertex
    products on the facet: just inside it, and just past it."""
    cols = lp.exact_vertex_columns()
    on = np.flatnonzero(lp.facet_table()[row] @ _integer_columns() == 0)
    p = [sum(cols[j][i] for j in on) / len(on) for i in range(16)]
    e0 = [Fraction(1)] + [Fraction(0)] * 15
    return ([(1 - s) * x + s * e for x, e in zip(p, e0)],
            [(1 + s) * x - s * e for x, e in zip(p, e0)])


def _use_facet_table(monkeypatch, F):
    """Make the package read F as the facet table."""
    monkeypatch.setattr(lp, "facet_table", lambda: F)
    arrays = lp._facet_arrays.__wrapped__()
    monkeypatch.setattr(lp, "_facet_arrays", lambda: arrays)


@pytest.mark.parametrize("row", [40, 500], ids=["chsh", "i3322"])
def test_a_missing_facet_only_sends_points_to_the_tableau(row, monkeypatch):
    # the point just past the facet violates no other row: the table without
    # the row can neither refute it nor weight it, so the tableau refutes it
    F = lp.facet_table()
    assert F[row, 0] == (2 if row < 108 else 4)
    inside, outside = _across_facet(row)
    values = F.astype(object) @ np.array(outside, dtype=object)
    assert np.flatnonzero(values < 0).tolist() == [row]
    _use_facet_table(monkeypatch, np.delete(F, row, axis=0))
    sent = _count_fallbacks(monkeypatch)
    out = lp.solve_membership_exact(outside)
    assert out[0] == "infeasible" and sent == [outside]
    assert _certifies(outside, out)
    out = lp.solve_membership_exact(inside)
    assert out[0] == "feasible" and _certifies(inside, out)


def test_an_invalid_facet_row_only_sends_points_to_the_tableau(monkeypatch):
    # a CHSH row with its constant lowered by one is negative just inside its
    # facet and on the facet's vertices: the route checks a row on every
    # column before it refutes with it, and the tableau accepts the point
    F = lp.facet_table()
    inside, _ = _across_facet(40)
    _use_facet_table(monkeypatch, np.vstack([F, F[40] - np.eye(16, dtype=F.dtype)[0]]))
    sent = _count_fallbacks(monkeypatch)
    out = lp.solve_membership_exact(inside)
    assert out[0] == "feasible" and sent == [inside]
    assert _certifies(inside, out)


def test_support_weights_refuse_a_negative_or_inconsistent_solve():
    # b = (3 V_0 - V_1) / 2 solves on {0, 1} with weight -1/2, and lies off
    # the span of {0, 2}; (V_0 + V_1) / 2 solves on {0, 1} with 1/2 each
    V = _integer_columns()
    beyond = [int(x) for x in 3 * V[:, 0] - V[:, 1]]
    assert lp._weights_on_support([0, 1], beyond, 2) is None
    assert lp._weights_on_support([0, 2], beyond, 2) is None
    mix = [int(x) for x in V[:, 0] + V[:, 1]]
    half = Fraction(1, 2)
    assert lp._weights_on_support([0, 1], mix, 2) == [half, half] + [Fraction(0)] * 62


def _bareiss_on_support(cols, Db, D):
    """_weights_on_support eliminating [V_S | Db] afresh on every call: the
    replayed record of V_S must give its weights, and its None."""
    V = [[int(v) for v in row] for row in _integer_columns()]
    T = [[V[i][j] for j in cols] + [Db[i]] for i in range(16)]
    free, pivots, prev = list(range(16)), [], 1
    for c in cols:
        r = next((i for i in free if T[i][0]), None)
        if r is None:
            T = [row[1:] for row in T]
            continue
        free.remove(r)
        piv, P = T[r][0], T[r][1:]
        for i, row in enumerate(T):
            f = row[0]
            T[i] = P if i == r else [(x * piv - f * p) // prev for x, p in zip(row[1:], P)]
        prev = piv
        pivots.append((r, c))
    if any(T[i][0] for i in free) or any(T[r][0] * prev < 0 for r, _ in pivots):
        return None
    w = [Fraction(0)] * 64
    for r, c in pivots:
        w[c] = Fraction(T[r][0], prev * D)
    return w


def test_replayed_elimination_is_the_fresh_elimination(monkeypatch):
    # every support the exact route solves on the lattice, from the descent
    # and from the point moved past a face, and three made ones: columns 0
    # and 56 sum to columns 8 and 48 (vertices 0, 7 and 1, 6 of party A are
    # opposite corners), so column 56 gets no pivot
    solve, calls = lp._weights_on_support, []
    monkeypatch.setattr(lp, "_weights_on_support",
                        lambda *args: calls.append(args) or solve(*args))
    for b in _descent_lattice():
        lp.solve_membership_exact([Fraction(x) for x in b])
    for b in _rounded_vertex_mixes(40, seed=3):
        lp.solve_membership_exact(b)
    V = _integer_columns()
    beyond = [int(x) for x in 3 * V[:, 0] - V[:, 1]]
    assert (V[:, 0] + V[:, 56] == V[:, 8] + V[:, 48]).all()
    pair = [int(x) for x in V[:, 8] + V[:, 48]]
    made = [([0, 1], beyond, 2), ([0, 2], beyond, 2), ([0, 8, 48, 56, 57], pair, 2),
            ([0, 56, 8, 48], pair, 2)]
    outcomes = set()
    supports = {tuple(cols) for cols, _, _ in calls}
    for cols, Db, D in calls + made:
        got = solve(cols, Db, D)
        assert got == _bareiss_on_support(cols, Db, D), (cols, Db, D)
        outcomes.add(got is None)
    assert outcomes == {True, False} and len(supports) >= 50
    steps, pivots, free = lp._support_elimination((0, 8, 48, 56, 57))
    assert [c for _, c in pivots] == [0, 8, 48, 57] and len(free) == 12
    assert solve([0, 8, 48, 56, 57], pair, 2)[56] == 0
    assert lp._support_elimination.cache_info().maxsize == lp._SUPPORT_CACHE


def test_the_exact_route_hands_its_screen_values_to_the_descent(monkeypatch):
    # the facet table multiplies a feasible point once: the screen's values
    # F b go to the descent, which reads its margin and its first step off
    # them; facet_margins is not asked again
    descend, seen = lp._descent, []
    monkeypatch.setattr(lp, "_descent", lambda b, Fb: seen.append((b, Fb)) or descend(b, Fb))
    monkeypatch.setattr(lp, "facet_margins", None)
    statuses = [lp.solve_membership_exact(b)[0] for b in _rounded_vertex_mixes(30, seed=4)]
    assert len(seen) >= statuses.count("feasible") >= 10
    monkeypatch.undo()
    F = lp._facet_arrays()[0]
    for b, Fb in seen:
        assert np.array_equal(Fb, F @ b)
        assert descend(b, Fb).tobytes() == lp.caratheodory_weights(b).tobytes()


def test_stacked_cube_slack_is_each_rows_oracle_verdict():
    assert CRITERIA["cube-separable"][1] == lp.FEASIBILITY_TOL
    B = np.array(list(_near_cut_points(np.random.default_rng(17), 300)))
    holds = slack("cube-separable", B) >= 0.0
    assert 0 < holds.sum() < len(B)
    assert holds.tolist() == [lp.decide_membership(b).feasible for b in B]


def _rows_near_the_positivity_cut(margins, rng, n):
    """n random normalized rows mixed with white noise until their margin is
    drawn uniformly from [-2 tol, 0).  Mixing with weight w of I/4 maps every
    Born probability and every eigenvalue m to (1 - w) m + w / 4."""
    B = np.column_stack((np.ones(n), rng.uniform(-1, 1, (n, 15))))
    m = margins(B)
    target = -2 * separability.POSITIVITY_TOL * rng.random(n)
    assert (m < target).all()
    w = ((target - m) / (0.25 - m))[:, None]
    B = (1 - w) * B + w * np.eye(16)[0]
    B[:, 0] = 1.0
    return B


@pytest.mark.parametrize("criterion, holds_for", [
    ("pauli-positive", positive_for_pauli),
    ("quantum-separable", quantum_separable_2q),
])
def test_stacked_slack_is_each_rows_verdict(criterion, holds_for):
    margins, tol = CRITERIA[criterion]
    assert tol == separability.POSITIVITY_TOL
    B = _rows_near_the_positivity_cut(margins, np.random.default_rng(23), 300)
    assert (margins(B) >= -2.1 * tol).all() and (margins(B) < 0.0).all()
    holds = slack(criterion, B) >= 0.0
    assert 0 < holds.sum() < len(B)
    assert holds.tolist() == [holds_for(PauliCoeffs2Q(b.reshape(4, 4))) for b in B]
