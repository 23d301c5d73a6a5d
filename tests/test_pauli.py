import math

import numpy as np
import pytest

from gencube.pauli import (
    PAULIS,
    BlochOp,
    DenseHermitian,
    PauliCoeffs2Q,
    bloch_from_dense,
    bloch_to_dense,
    born_probability,
    choi_transfer_matrix,
    conjugation_matrix,
    eigenvalues_hermitian,
    from_dense,
    partial_transpose,
    product,
    single_born,
    to_dense,
)

BELL_COEFFS = np.diag([1.0, 1.0, -1.0, 1.0])


def bell_projector():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_product_all_ones_vertex():
    v = BlochOp(np.ones(3))
    assert np.array_equal(product(v, v).coeffs, np.ones((4, 4)))


def test_product_maximally_mixed():
    z = BlochOp(np.zeros(3))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.array_equal(product(z, z).coeffs, expected)


def test_product_cross_terms_against_dense_factors():
    u = BlochOp(np.array([1.0, -1.0, 1.0]))
    v = BlochOp(np.array([-1.0, 1.0, 1.0]))
    A = product(u, v)
    assert A.coeffs[2, 3] == -1.0  # y1 * z2
    assert A.coeffs[1, 2] == 1.0   # x1 * y2
    dense = np.kron(bloch_to_dense(u).entries, bloch_to_dense(v).entries)
    assert np.max(np.abs(to_dense(A).entries - dense)) < 1e-12


def test_product_requires_normalized_inputs():
    with pytest.raises(ValueError):
        product(BlochOp(np.zeros(3), trace_coeff=2.0), BlochOp(np.zeros(3)))


def test_bell_state_expansion():
    A = from_dense(bell_projector())
    assert np.max(np.abs(A.coeffs - BELL_COEFFS)) < 1e-12


def test_identity_over_four_expansion():
    A = from_dense(np.eye(4) / 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.max(np.abs(A.coeffs - expected)) < 1e-12


def test_dense_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
        back = from_dense(to_dense(A))
        assert np.max(np.abs(back.coeffs - A.coeffs)) < 1e-12


def test_from_dense_is_trace_pairing():
    # oracle: direct trace computation entry by entry
    rng = np.random.default_rng(4)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = (g + g.conj().T) / 2
    A = from_dense(rho)
    for i in range(4):
        for j in range(4):
            tr = np.trace(rho @ np.kron(PAULIS[i], PAULIS[j]))
            assert abs(A.coeffs[i, j] - np.real(tr)) < 1e-12


def test_from_dense_rejects_wrong_dim():
    with pytest.raises(ValueError):
        from_dense(np.eye(2))


@pytest.mark.parametrize("convert, m", [
    (bloch_from_dense, np.array([[0.0, 1.0], [0.0, 0.0]])),
    (from_dense, np.triu(np.ones((4, 4)))),
    (from_dense, np.eye(4) + 1e-11 * np.eye(4, k=1)),
])
def test_from_dense_refuses_non_hermitian_input(convert, m):
    # the coefficients would be those of the Hermitian part alone
    with pytest.raises(ValueError, match="not Hermitian"):
        convert(m)


def test_born_probability_appendix_vertex_choice():
    from gencube.gates import csign

    u = BlochOp(np.array([1.0, 1.0, 1.0]))       # x, y, z
    v = BlochOp(np.array([1.0, 1.0, -1.0]))      # A, B, C = -1
    out = csign(product(u, v))
    assert born_probability(out, "X", 1, "X", -1) == -0.5


def test_born_probabilities_are_python_floats():
    # a numpy scalar would print as np.float64(...) in reports
    out = product(BlochOp(np.array([1.0, 1.0, 1.0])), BlochOp(np.array([1.0, 1.0, -1.0])))
    assert type(born_probability(out, "X", 1, "X", -1)) is float
    assert type(single_born(BlochOp(np.array([0.6, 0.0, 0.8])), "Z", -1)) is float


def test_born_probability_maximally_mixed():
    z = BlochOp(np.zeros(3))
    A = product(z, z)
    for p in "XYZ":
        for q in "XYZ":
            for s in (1, -1):
                for t in (1, -1):
                    assert born_probability(A, p, s, q, t) == 0.25


def test_born_probability_bell_zz_dense_oracle():
    A = PauliCoeffs2Q(BELL_COEFFS)
    got = born_probability(A, "Z", 1, "Z", 1)
    assert abs(got - 0.5) < 1e-12
    proj = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
    oracle = np.real(np.trace(proj @ bell_projector()))
    assert abs(got - oracle) < 1e-12


def test_born_marginal_consistency():
    rng = np.random.default_rng(5)
    for _ in range(50):
        A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
        for p in (1, 2, 3):
            for s in (1, -1):
                total = sum(born_probability(A, p, s, 1, t) for t in (1, -1))
                marg = 0.5 * (A.coeffs[0, 0] + s * A.coeffs[p, 0])
                assert abs(total - marg) < 1e-12


def test_quantum_states_have_valid_pair_probabilities():
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        A = from_dense(rho)
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                for s in (1, -1):
                    for t in (1, -1):
                        pr = born_probability(A, p, s, q, t)
                        assert -1e-12 <= pr <= 1 + 1e-12


def test_single_born():
    v = BlochOp(np.ones(3))
    assert single_born(v, "Z", 1) == 1.0
    assert single_born(BlochOp(np.zeros(3)), "X", -1) == 0.5
    t_state = BlochOp(np.ones(3) / np.sqrt(3))
    got = single_born(t_state, "X", 1)
    assert abs(got - (1 + 1 / np.sqrt(3)) / 2) < 1e-15
    # dense oracle
    proj = (PAULIS[0] + PAULIS[1]) / 2
    oracle = np.real(np.trace(proj @ bloch_to_dense(t_state).entries))
    assert abs(got - oracle) < 1e-14


def dense_pt_second(rho):
    return rho.reshape(2, 2, 2, 2, ).transpose(0, 3, 2, 1).reshape(4, 4)


def test_partial_transpose_bell():
    A = partial_transpose(PauliCoeffs2Q(BELL_COEFFS))
    assert A.coeffs[2, 2] == 1.0
    eigs = eigenvalues_hermitian(to_dense(A))
    assert abs(eigs[0] - (-0.5)) < 1e-12


def test_partial_transpose_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
        lhs = to_dense(partial_transpose(A)).entries
        rho = to_dense(A).entries
        rhs = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_partial_transpose_involution_and_product():
    rng = np.random.default_rng(8)
    A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
    twice = partial_transpose(partial_transpose(A))
    assert np.array_equal(twice.coeffs, A.coeffs)
    u = BlochOp(np.array([0.2, 0.5, -0.1]))
    v = BlochOp(np.array([-0.3, 0.4, 0.6]))
    pt = partial_transpose(product(u, v))
    flipped = product(u, BlochOp(v.bloch * np.array([1.0, -1.0, 1.0])))
    assert np.max(np.abs(pt.coeffs - flipped.coeffs)) < 1e-15


def test_eigenvalues_hermitian():
    assert np.allclose(eigenvalues_hermitian(np.eye(4)), np.ones(4))
    assert np.allclose(eigenvalues_hermitian(np.diag([1.0, 2, 3, 4])), [1, 2, 3, 4])
    eigs = eigenvalues_hermitian(bell_projector())
    assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-12)
    # characteristic polynomial oracle: det(rho - lambda I) vanishes
    for lam in eigs:
        assert abs(np.linalg.det(bell_projector() - lam * np.eye(4))) < 1e-10
    assert abs(np.sum(eigs) - np.real(np.trace(bell_projector()))) < 1e-10


def test_eigenvalues_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        eigenvalues_hermitian(m)


def test_dense_hermitian_validates():
    with pytest.raises(ValueError):
        DenseHermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    d = DenseHermitian(np.eye(4))
    assert d.dim == 4


@pytest.mark.parametrize("make, message", [
    (lambda: BlochOp(np.array([np.nan, 0.0, 0.0])), "bloch and trace_coeff must be finite"),
    (lambda: BlochOp(np.array([0.0, np.inf, 0.0])), "bloch and trace_coeff must be finite"),
    (lambda: BlochOp(np.zeros(3), math.nan), "bloch and trace_coeff must be finite"),
    (lambda: PauliCoeffs2Q(np.full((4, 4), np.nan)), "coeffs must be finite"),
    (lambda: PauliCoeffs2Q(np.diag([1.0, -np.inf, 0.0, 0.0])), "coeffs must be finite"),
    (lambda: DenseHermitian(np.full((2, 2), np.nan)), "entries must be finite"),
    (lambda: DenseHermitian(np.diag([1.0, np.inf])), "entries must be finite"),
])
def test_non_finite_values_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def _random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("d", [2, 4])
def test_conjugation_matrix_is_orthogonal_and_matches_dense_conjugation(d):
    rng = np.random.default_rng(70 + d)
    for _ in range(20):
        U = _random_unitary(rng, d)
        T = conjugation_matrix(U)
        assert np.max(np.abs(T @ T.T - np.eye(d * d))) < 1e-12
        a = rng.standard_normal(d * d)
        a[0] = 1.0
        b = T @ a
        if d == 2:
            rho, got = (bloch_to_dense(BlochOp(x[1:], x[0])).entries for x in (a, b))
        else:
            rho, got = (to_dense(PauliCoeffs2Q(x.reshape(4, 4))).entries for x in (a, b))
        assert np.max(np.abs(got - U @ rho @ U.conj().T)) < 1e-12


def test_transfer_matrices_reject_other_shapes():
    with pytest.raises(ValueError, match="2x2 or 4x4"):
        conjugation_matrix(np.eye(3))
    with pytest.raises(ValueError, match="16x16"):
        choi_transfer_matrix(np.eye(4))
