import functools
import itertools
import math

import numpy as np
import pytest

from gencube.dense import apply_transfer, pauli_transfer, superop
from gencube import gates
from gencube.gates import (
    CLIFFORD_ACTIONS,
    CLIFFORD_UNITARIES,
    NOISE_FAMILIES,
    NoiseModel,
    apply_noise,
    clifford1,
    csign,
    joint_depol,
    local_dephase,
    local_depol,
    pauli_flip,
    pipeline,
    pipeline_rows,
)
from gencube.lp import vertex_product_matrix
from gencube.pauli import (
    AXES,
    PAULIS,
    BlochOp,
    PauliCoeffs2Q,
    axis_index,
    bloch_to_dense,
    from_dense,
    product,
    product_rows,
    to_dense,
)
from gencube import simulator
from gencube.simulator import Clifford1, Measure, NoisyCsign, Prepare
from gencube.spaces import CUBE_SYMMETRIES, cube_vertices, rescale2

CSIGN_DENSE = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
FAMILIES = (joint_depol, local_depol, local_dephase)

# The CSIGN's action on Pauli products and the Cliffords' Bloch actions,
# transcribed by hand: (i, j) -> (k, l, sign) means the input coefficient
# A_ij lands on the output coefficient A'_kl with the given sign.
CSIGN_MAP_REFERENCE = {
    (0, 0): (0, 0, 1),
    (0, 1): (3, 1, 1),
    (0, 2): (3, 2, 1),
    (0, 3): (0, 3, 1),
    (1, 0): (1, 3, 1),
    (1, 1): (2, 2, 1),
    (1, 2): (2, 1, -1),
    (1, 3): (1, 0, 1),
    (2, 0): (2, 3, 1),
    (2, 1): (1, 2, -1),
    (2, 2): (1, 1, 1),
    (2, 3): (2, 0, 1),
    (3, 0): (3, 0, 1),
    (3, 1): (0, 1, 1),
    (3, 2): (0, 2, 1),
    (3, 3): (3, 3, 1),
}
CLIFFORD_ACTIONS_REFERENCE = {
    "X": np.diag([1, -1, -1]),
    "Y": np.diag([-1, 1, -1]),
    "Z": np.diag([-1, -1, 1]),
    "S": np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
    "H": np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]]),
}


def test_csign_gather_matches_the_transcribed_map():
    gather = np.array(sorted((4 * k + l, 4 * i + j, s)
                             for (i, j), (k, l, s) in CSIGN_MAP_REFERENCE.items()))
    src, sign = gather[:, 1], gather[:, 2].astype(float)
    for got, ref in ((gates._CSIGN_SRC, src), (gates._CSIGN_SIGN, sign)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    T = np.zeros((16, 16))
    T[np.arange(16), src] = sign
    assert np.array_equal(csign(np.eye(16)).T, T)


def test_clifford_actions_match_the_transcribed_matrices():
    assert list(CLIFFORD_ACTIONS) == list(CLIFFORD_ACTIONS_REFERENCE) == list(CLIFFORD_UNITARIES)
    for gate, M in CLIFFORD_ACTIONS.items():
        ref = CLIFFORD_ACTIONS_REFERENCE[gate]
        assert M.dtype == ref.dtype and np.array_equal(M, ref) and not M.flags.writeable, gate


def test_csign_matches_dense_conjugation():
    rng = np.random.default_rng(31)
    for _ in range(100):
        A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
        lhs = to_dense(csign(A)).entries
        rhs = CSIGN_DENSE @ to_dense(A).entries @ CSIGN_DENSE.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_csign_product_display():
    x, y, z = 1.0, -1.0, 1.0
    a, b, c = -1.0, 1.0, 1.0
    out = csign(product(BlochOp(np.array([x, y, z])), BlochOp(np.array([a, b, c])))).coeffs
    expected = np.array([
        [1, z * a, z * b, c],
        [x * c, y * b, -y * a, x],
        [y * c, -x * b, x * a, y],
        [z, a, b, z * c],
    ])
    assert np.array_equal(out, expected)


def test_csign_identity_and_involution():
    ident = np.zeros((4, 4))
    ident[0, 0] = 1.0
    assert np.array_equal(csign(PauliCoeffs2Q(ident)).coeffs, ident)
    rng = np.random.default_rng(32)
    A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
    assert np.array_equal(csign(csign(A)).coeffs, A.coeffs)


def _pauli_products(n: int) -> np.ndarray:
    """The 4^n products of Paulis on n qubits, kron chains with qubit 0's
    factor most significant."""
    return np.array([functools.reduce(np.kron, ps) for ps in itertools.product(PAULIS, repeat=n)])


def _apply_dense(rho, T, qubits, n: int) -> np.ndarray:
    """rho after the channel of transfer matrix T on `qubits`, through the
    dense reference's contraction of its Pauli coefficients
    c_idx = tr(P_idx rho), read back as 2^-n sum_idx c_idx P_idx."""
    basis = _pauli_products(n)
    c = np.einsum("iab,ba->i", basis, rho).real
    out, order, _ = apply_transfer(c, tuple(range(n)), T, qubits, np.empty_like(c))
    out = out.reshape((4,) * n).transpose(np.argsort(order)).ravel()
    return np.tensordot(out, basis, axes=1) / 2 ** n


def test_noise_models_against_dense_kraus():
    # the dense reference's noisy-CSIGN transfer matrix against the Pauli
    # side, dephasing also past 1/2
    rng = np.random.default_rng(33)
    cases = [(f, p) for f in FAMILIES for p in (0.0, 0.21, 0.37, 1.0)] + [(local_dephase, 0.7)]
    for family, p in cases:
        T = simulator._transfer_matrix(NoisyCsign(0, 1, family(p)))
        for _ in range(10):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            lhs = to_dense(apply_noise(csign(from_dense(rho)), family(p))).entries
            rhs = _apply_dense(rho, T, (0, 1), 2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12, (family.__name__, p)


def _lift(ops: dict, n: int) -> np.ndarray:
    """kron of ops[k] over qubits k = 0..n-1 (identity where absent)."""
    out = np.eye(1)
    for k in range(n):
        out = np.kron(out, ops.get(k, np.eye(2)))
    return out


def _kraus_sum(rho, kraus) -> np.ndarray:
    return sum(K @ rho @ K.conj().T for K in kraus)


@pytest.mark.parametrize("n, q1, q2", [(3, 1, 0), (3, 2, 0), (3, 0, 2),
                                       (4, 3, 1), (4, 0, 3), (4, 2, 0)])
def test_dense_ops_on_reversed_and_far_pairs_match_kron_kraus_sums(n, q1, q2):
    rng = np.random.default_rng(100 * n + 10 * q1 + q2)
    g = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    lam, p = 0.37, 0.21
    I2, Z = PAULIS[0], PAULIS[3]

    def check(S, qubits, kraus):
        got = _apply_dense(rho, pauli_transfer(S, PAULIS), qubits, n)
        assert np.max(np.abs(got - _kraus_sum(rho, kraus))) < 1e-12

    joint = [math.sqrt(1.0 - lam) * np.eye(2 ** n)]
    joint += [math.sqrt(lam) / 4 * _lift({q1: Pi, q2: Pj}, n) for Pi in PAULIS for Pj in PAULIS]
    check(superop(_noise_kraus(joint_depol(lam))), (q1, q2), joint)

    def on_both(local):
        return [_lift({q1: A}, n) @ _lift({q2: B}, n) for A in local for B in local]

    local = [math.sqrt(1.0 - 0.75 * p) * I2] + [math.sqrt(p) / 2 * P for P in PAULIS[1:]]
    check(superop(_noise_kraus(local_depol(p))), (q1, q2), on_both(local))

    dephase = [math.sqrt(1.0 - p) * I2, math.sqrt(p) * Z]
    check(superop(_noise_kraus(local_dephase(p))), (q1, q2), on_both(dephase))

    cz = _lift({q1: np.diag([1.0, 0.0])}, n) + _lift({q1: np.diag([0.0, 1.0]), q2: Z}, n)
    check(_noisy_csign_superop(joint_depol(0.0)), (q1, q2), [cz])

    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U = np.linalg.qr(h)[0]
    check(superop([U]), (q2,), [_lift({q2: U}, n)])

    # preparing sigma = sum_k w_k |v_k><v_k|: Kraus terms sqrt(w_k) |v_k><j|
    sigma = 0.5 * (I2 + 0.6 * PAULIS[1] - 0.3 * PAULIS[2] + 0.5 * Z)
    w, v = np.linalg.eigh(sigma)
    prep = [math.sqrt(w[k]) * _lift({q1: np.outer(v[:, k], I2[j])}, n)
            for k in range(2) for j in range(2)]
    check(np.multiply.outer(sigma, np.eye(2)), (q1,), prep)


# The Kraus route to an op's transfer matrix: its Kraus operators, their
# superoperator, then pauli_transfer.  The dense reference's basis-built
# transfer matrices are checked against it.


def _noise_kraus(noise: NoiseModel) -> np.ndarray:
    """Kraus operators of a CSIGN's noise on its qubit pair, stacked.  Each
    noise model is a Pauli channel,
    rho -> sum_ij q_ij (P_i (x) P_j) rho (P_i (x) P_j), with Kraus
    operators sqrt(q_ij) P_i (x) P_j (zero where q_ij is)."""
    p = noise.strength
    if noise.kind == "joint-depol":
        # (1 - p) rho + p I/4 (x) tr rho: every pair but I (x) I at p/16
        q = np.full(16, p / 16.0)
        q[0] = 1.0 - 15.0 * p / 16.0
    else:
        # the same one-qubit Pauli channel on each qubit
        a = ([1.0 - 0.75 * p] + [p / 4.0] * 3 if noise.kind == "local-depol"
             else [1.0 - p, 0.0, 0.0, p])
        q = np.outer(a, a).ravel()
    pairs = np.einsum("aij,bkl->abikjl", PAULIS, PAULIS).reshape(16, 4, 4)
    return np.sqrt(q)[:, None, None] * pairs


def _noisy_csign_superop(noise: NoiseModel) -> np.ndarray:
    """Superoperator of the CSIGN diag(1, 1, 1, -1) followed by its noise."""
    return superop(_noise_kraus(noise) @ np.diag([1.0, 1.0, 1.0, -1.0]))


def _kraus_route_transfer(op, outcome: int = 0) -> np.ndarray:
    if isinstance(op, Prepare):
        S = np.multiply.outer(bloch_to_dense(op.state).entries, np.eye(2))
    elif isinstance(op, Clifford1):
        S = superop([CLIFFORD_UNITARIES[op.gate]])
    elif isinstance(op, NoisyCsign):
        S = _noisy_csign_superop(op.noise)
    else:
        S = superop([(np.eye(2) + outcome * PAULIS[axis_index(op.axis)]) / 2])
    return pauli_transfer(S, PAULIS)


def test_basis_transfer_matrices_match_the_kraus_route():
    rng = np.random.default_rng(55)
    # every family on a grid with both ends, dephasing also past 1/2
    cases = [(NoisyCsign(0, 1, NoiseModel(f, p)), 0)
             for f in NOISE_FAMILIES for p in (0.0, 0.1, 0.37, 0.5, 2 / 3, 0.7, 0.9, 1.0)]
    cases += [(Clifford1(0, g), 0) for g in "XYZSH"]
    cases += [(Measure(0, a, "m"), s) for a in AXES for s in (1, -1)]
    # 200 points of the Bloch ball, uniform in its volume, and the six axes
    blochs = rng.standard_normal((200, 3))
    blochs *= rng.random((200, 1)) ** (1 / 3) / np.linalg.norm(blochs, axis=1, keepdims=True)
    blochs = np.vstack([blochs, np.eye(3), -np.eye(3)])
    cases += [(Prepare(0, BlochOp(b)), 0) for b in blochs]
    for op, outcome in cases:
        got = simulator._transfer_matrix(op, outcome)
        want = _kraus_route_transfer(op, outcome)
        assert got.shape == want.shape and got.dtype == float
        assert np.abs(got - want).max() <= 1e-15, (op, outcome)
    # the per-process arrays are shared by every call: none can be written
    cached = [simulator._csign_basis(), simulator._prep_basis()]
    cached += [simulator._clifford_transfer(g) for g in "XYZSH"]
    cached += [simulator._projector_transfer(a, s) for a in AXES for s in (1, -1)]
    for T in cached:
        assert not T.flags.writeable
        with pytest.raises(ValueError):
            T[0, 0] = 0.0


def _einsum_transfer(S, paulis) -> np.ndarray:
    """T[i, j] = tr(P_i Phi(P_j)) / 2^k by its definition: one three-operand
    einsum of the Pauli products, the superoperator and the products."""
    basis = one = np.asarray(paulis)
    for _ in range(S.ndim // 4 - 1):
        d = 2 * basis.shape[1]
        basis = np.einsum("aij,bkl->abikjl", basis, one).reshape(-1, d, d)
    d = basis.shape[1]
    return np.einsum("iba,abcd,jcd->ij", basis, S.reshape(d, d, d, d), basis).real / d


def _random_channel(rng, k: int) -> np.ndarray:
    """Three Kraus operators of a random k-qubit channel: the row blocks of a
    random isometry, so that sum_m K_m^dagger K_m = 1."""
    d = 2 ** k
    g = rng.standard_normal((3 * d, d)) + 1j * rng.standard_normal((3 * d, d))
    return np.linalg.qr(g)[0].reshape(3, d, d)


@pytest.mark.parametrize("k", [1, 2])
def test_pauli_transfer_is_the_three_index_contraction(k):
    rng = np.random.default_rng(40 + k)
    channels = [superop(_random_channel(rng, k)) for _ in range(50)]
    if k == 1:
        channels += [superop([U]) for U in CLIFFORD_UNITARIES.values()]
        channels += [superop([(np.eye(2) + s * P) / 2]) for P in PAULIS[1:] for s in (1, -1)]
    else:
        channels += [_noisy_csign_superop(NoiseModel(f, p))
                     for f in NOISE_FAMILIES for p in (0.0, 0.37, 0.7, 1.0)]
    for S in channels:
        T = pauli_transfer(S, PAULIS)
        assert T.shape == (4 ** k, 4 ** k) and T.dtype == float and T.flags.c_contiguous
        assert np.abs(T - _einsum_transfer(S, PAULIS)).max() <= 1e-15


def test_noise_rule_spot_values():
    A = PauliCoeffs2Q(np.diag([1.0, 1.0, -1.0, 1.0]))
    p = 0.3
    out = apply_noise(A, local_dephase(p)).coeffs
    assert abs(out[1, 1] - (1 - 2 * p) ** 2) < 1e-15
    assert out[3, 3] == 1.0
    rng = np.random.default_rng(34)
    B = PauliCoeffs2Q(rng.standard_normal((4, 4)))
    outB = apply_noise(B, local_depol(p)).coeffs
    assert abs(outB[1, 0] - (1 - p) * B.coeffs[1, 0]) < 1e-15
    total = apply_noise(B, joint_depol(1.0)).coeffs
    assert total[0, 0] == B.coeffs[0, 0]
    assert np.max(np.abs(total.ravel()[1:])) == 0.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("joint-depol", 1.5)
    with pytest.raises(ValueError):
        NoiseModel("brownian", 0.5)
    with pytest.raises(ValueError):
        NoiseModel("error-per-gate", 0.5)


def test_noise_families_are_what_the_model_and_the_cli_accept():
    from gencube.cli import build_parser

    parser = build_parser()
    for kind in NOISE_FAMILIES:
        assert NoiseModel(kind, 0.5).kind == kind
        args = parser.parse_args(["threshold", "--noise", kind, "--space", "cube"])
        assert args.noise == kind
    with pytest.raises(SystemExit):
        parser.parse_args(["threshold", "--noise", "brownian", "--space", "cube"])


def test_clifford_footnote_cycle():
    v = BlochOp(np.ones(3))
    expected = [(1, -1, -1), (-1, -1, 1), (-1, 1, -1), (-1, -1, -1),
                (-1, 1, 1), (1, 1, -1), (1, -1, 1)]
    for gate, exp in zip(["X", "Y", "X", "S", "X", "Y", "X"], expected):
        v = clifford1(v, gate)
        assert tuple(v.bloch) == exp


def test_clifford_involutions_and_vertex_closure():
    rng = np.random.default_rng(35)
    for gate in "XYZ":
        v = BlochOp(rng.uniform(-1, 1, 3))
        twice = clifford1(clifford1(v, gate), gate)
        assert np.allclose(twice.bloch, v.bloch)
    from gencube.spaces import cube_vertices

    verts = {tuple(v.bloch) for v in cube_vertices()}
    for gate in "XYZSH":
        for v in cube_vertices():
            assert tuple(clifford1(v, gate).bloch) in verts


def test_clifford_actions_are_cube_symmetries():
    members = {g.tobytes() for g in CUBE_SYMMETRIES}
    for gate, M in CLIFFORD_ACTIONS.items():
        assert M.dtype == CUBE_SYMMETRIES.dtype and M.tobytes() in members, gate


def test_vertex_transitivity():
    from gencube.spaces import cube_vertices

    start = (1.0, 1.0, 1.0)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for gate in "XYZS":
            nxt = tuple(clifford1(BlochOp(np.array(cur)), gate).bloch)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert seen == {tuple(v.bloch) for v in cube_vertices()}


def test_noise_commutes_with_local_sign_flips_and_s():
    rng = np.random.default_rng(36)
    s_perm = np.array([
        [1, 0, 0, 0],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ], dtype=float)
    for kind, p in (("joint-depol", 0.4), ("local-depol", 0.25), ("local-dephase", 0.15)):
        n = NoiseModel(kind, p)
        for _ in range(20):
            A = PauliCoeffs2Q(rng.standard_normal((4, 4)))
            for side in (0, 1):
                for axis in (1, 2, 3):
                    lhs = apply_noise(pauli_flip(A, side, axis), n).coeffs
                    rhs = pauli_flip(apply_noise(A, n), side, axis).coeffs
                    assert np.max(np.abs(lhs - rhs)) < 1e-12
            # local S on either side permutes X/Y coefficient rows/columns
            lhs = apply_noise(PauliCoeffs2Q(s_perm @ A.coeffs), n).coeffs
            rhs = (s_perm @ apply_noise(A, n).coeffs)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            lhs = apply_noise(PauliCoeffs2Q(A.coeffs @ s_perm.T), n).coeffs
            rhs = apply_noise(A, n).coeffs @ s_perm.T
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pipeline_rescaled_local_depol_matrix():
    R, r = 0.8, 0.6
    allones = BlochOp(np.ones(3))
    out = pipeline(allones, allones, R, local_depol(1 - r)).coeffs
    expected = np.array([
        [1, r * R, r * R, r],
        [r * R, r * r, -r * r, r * r / R],
        [r * R, -r * r, r * r, r * r / R],
        [r, r * r / R, r * r / R, r * r],
    ])
    assert np.max(np.abs(out - expected)) < 1e-12


def test_pipeline_rescaled_joint_depol_matrix():
    R, r = 1.3, 0.4
    allones = BlochOp(np.ones(3))
    out = pipeline(allones, allones, R, joint_depol(1 - r)).coeffs
    expected = np.array([
        [1, r * R, r * R, r],
        [r * R, r, -r, r / R],
        [r * R, -r, r, r / R],
        [r, r / R, r / R, r],
    ])
    assert np.max(np.abs(out - expected)) < 1e-12


def test_pipeline_dephasing_display():
    # inputs (I+X)/2 and (I+Z)/2 give I(x)I + tR X(x)I + I(x)Z + (t/R) X(x)Z
    R, p = 1.4, 0.2
    t = 1 - 2 * p
    u = BlochOp(np.array([1.0, 0.0, 0.0]))
    v = BlochOp(np.array([0.0, 0.0, 1.0]))
    out = pipeline(u, v, R, local_dephase(p)).coeffs
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[1, 0] = t * R
    expected[0, 3] = 1.0
    expected[1, 3] = t / R
    assert np.max(np.abs(out - expected)) < 1e-12


def test_pipeline_identity_cases():
    allones = BlochOp(np.ones(3))
    out = pipeline(allones, allones, 1.0, joint_depol(0.0))
    assert np.array_equal(out.coeffs, csign(product(allones, allones)).coeffs)


def test_rescaled_dephasing_matrix():
    # corner entries stay 1 while the off entries pick up R-asymmetric factors
    R, p = 1.25, 0.1
    t = 1 - 2 * p
    allones = BlochOp(np.ones(3))
    out = pipeline(allones, allones, R, local_dephase(p)).coeffs
    expected = np.array([
        [1, t * R, t * R, 1],
        [t * R, t * t, -t * t, t / R],
        [t * R, -t * t, t * t, t / R],
        [1, t / R, t / R, 1],
    ])
    assert np.max(np.abs(out - expected)) < 1e-12


def _staged_pipeline(u, v, R, n):
    # the pipeline as its four stages on one matrix: the reference for the rows
    return rescale2(apply_noise(csign(rescale2(product(u, v), R)), n), 1.0 / R)


def test_pipeline_rows_equal_the_one_row_pipeline_bit_for_bit():
    rng = np.random.default_rng(36)
    for family in FAMILIES:
        for R in (1.0, *rng.uniform(0.4, 2.0, 3)):
            n = family(float(rng.uniform(0.0, 0.5)))
            U, V = rng.uniform(-1, 1, (40, 3)), rng.uniform(-1, 1, (40, 3))
            rows = pipeline_rows(product_rows(U, V), R, n)
            for k in range(40):
                u, v = BlochOp(U[k]), BlochOp(V[k])
                one = pipeline(u, v, R, n).coeffs.ravel()
                assert rows[k].tobytes() == one.tobytes()
                assert one.tobytes() == _staged_pipeline(u, v, R, n).coeffs.tobytes()


def test_pipeline_rows_at_unit_rescaling_is_noisy_csign_of_the_vertex_products():
    # the HN gate tables read these 64 rows: the R = 1 frame factors are ones
    for family in FAMILIES:
        n = family(0.3)
        rows = pipeline_rows(vertex_product_matrix().T, 1.0, n)
        for k, (u, v) in enumerate((u, v) for u in cube_vertices() for v in cube_vertices()):
            ref = apply_noise(csign(product(u, v)), n).coeffs
            assert rows[k].tobytes() == ref.tobytes()


def test_pipeline_rejects_nonpositive_rescaling():
    with pytest.raises(ValueError, match="must be positive"):
        pipeline_rows(np.ones((1, 16)), 0.0, joint_depol(0.5))
