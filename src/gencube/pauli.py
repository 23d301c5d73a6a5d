"""Pauli-product-basis algebra for one- and two-qubit operators.

Operators are tracked by their real expansion coefficients in the Pauli
basis (sigma_0, sigma_1, sigma_2, sigma_3) = (I, X, Y, Z):

    single qubit:  rho = (1/2) (a I + b X + c Y + d Z)
    two qubits:    rho = (1/4) sum_ij A_ij  sigma_i (x) sigma_j

Normalized operators carry a = 1 (resp. A_00 = 1); the global 1/2 and 1/4
live only in the dense conversions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AXES",
    "PAULIS",
    "BlochOp",
    "PauliCoeffs2Q",
    "DenseHermitian",
    "product",
    "product_rows",
    "to_dense",
    "dense_rows",
    "dense_rows_real",
    "from_dense",
    "bloch_to_dense",
    "bloch_from_dense",
    "born_probability",
    "single_born",
    "partial_transpose",
    "PT_SIGNS",
    "ODD_Y",
    "eigenvalues_hermitian",
    "conjugation_matrix",
    "choi_transfer_matrix",
]

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

AXES = {"X": 1, "Y": 2, "Z": 3}

# The Pauli bases of one and two qubits: PP2[4*i+j] = sigma_i (x) sigma_j,
# used by the dense conversions and the transfer matrices.  The six
# products with exactly one sigma_Y (ODD_Y) are imaginary, the other ten real.
_P1 = np.array(PAULIS)
_PP2 = np.array([np.kron(PAULIS[i], PAULIS[j]) for i in range(4) for j in range(4)])
_PP2_REAL = np.ascontiguousarray(_PP2.real)
ODD_Y = np.array([(i == 2) != (j == 2) for i in range(4) for j in range(4)])

# Partial transpose on the second particle as a sign on the flattened
# coefficients: sigma_Y^T = -sigma_Y, so every A_i2 flips.
PT_SIGNS = np.array([-1.0 if j == 2 else 1.0 for i in range(4) for j in range(4)])

HERMITICITY_TOL = 1e-12


def axis_index(axis) -> int:
    """Map 'X'/'Y'/'Z' (or 1/2/3) to the Pauli index 1/2/3."""
    if isinstance(axis, str):
        try:
            return AXES[axis.upper()]
        except KeyError:
            raise ValueError(f"unknown axis {axis!r}") from None
    if axis in (1, 2, 3):
        return int(axis)
    raise ValueError(f"unknown axis {axis!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BlochOp:
    """Single-particle operator: Bloch 3-vector plus identity coefficient."""

    bloch: np.ndarray
    trace_coeff: float = 1.0

    def __post_init__(self):
        b = np.asarray(self.bloch, dtype=float)
        tc = float(self.trace_coeff)
        if b.shape != (3,):
            raise ValueError("bloch must be a 3-vector")
        if not (np.isfinite(b).all() and math.isfinite(tc)):
            raise ValueError("bloch and trace_coeff must be finite")
        object.__setattr__(self, "bloch", _readonly(b))
        object.__setattr__(self, "trace_coeff", tc)

    @property
    def is_normalized(self) -> bool:
        return abs(self.trace_coeff - 1.0) < 1e-12


@dataclass(frozen=True)
class PauliCoeffs2Q:
    """4x4 real coefficient matrix A_ij of a two-qubit operator.

    Row index runs over the first particle's Pauli, column over the second,
    in the order (I, X, Y, Z).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (4, 4):
            raise ValueError("coeffs must be 4x4")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", _readonly(c))

    @property
    def is_normalized(self) -> bool:
        return abs(self.coeffs[0, 0] - 1.0) < 1e-12

    def __array__(self, dtype=None, copy=None):
        return np.array(self.coeffs, dtype=dtype)


@dataclass(frozen=True)
class DenseHermitian:
    """Dense complex Hermitian matrix with a validated symmetry invariant."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be square")
        if not np.isfinite(m).all():
            raise ValueError("entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("entries are not Hermitian to 1e-12")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def product(a: BlochOp, b: BlochOp) -> PauliCoeffs2Q:
    """Coefficient matrix of the product operator a (x) b.

    A_00 = 1, the first column is a's Bloch vector, the first row is b's,
    and the interior entries are the row/column products.
    """
    if not (a.is_normalized and b.is_normalized):
        raise ValueError("product expects normalized inputs (trace_coeff = 1)")
    return PauliCoeffs2Q(product_rows(a.bloch[None], b.bloch[None]).reshape(4, 4))


def product_rows(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Flattened coefficient matrices of the normalized products u (x) v for
    the rows of the (N, 3) Bloch stacks U and V, as an (N, 16) stack."""
    va, vb = (np.insert(X, 0, 1.0, axis=1) for X in (U, V))
    return (va[:, :, None] * vb[:, None, :]).reshape(-1, 16)


def to_dense(A: PauliCoeffs2Q) -> DenseHermitian:
    """Dense 4x4 operator (1/4) sum_ij A_ij sigma_i (x) sigma_j."""
    return DenseHermitian(dense_rows(A.coeffs.reshape(1, 16))[0])


def dense_rows(B: np.ndarray) -> np.ndarray:
    """The dense operators of an (N, 16) stack of flattened coefficient
    matrices, as an (N, 4, 4) complex stack."""
    return np.tensordot(B, _PP2, axes=(1, 0)) / 4.0


def dense_rows_real(B: np.ndarray) -> np.ndarray:
    """dense_rows of an (N, 16) stack with no odd-Y coefficient, as an
    (N, 4, 4) real symmetric stack.  Only the real parts of the Pauli
    products enter, so an odd-Y coefficient would be dropped: the caller
    checks that B[:, ODD_Y] is all zero."""
    return np.tensordot(B, _PP2_REAL, axes=(1, 0)) / 4.0


def _hermitian_entries(rho) -> np.ndarray:
    """The entries of rho, refused as DenseHermitian refuses them: unless
    square, finite and Hermitian to HERMITICITY_TOL."""
    return (rho if isinstance(rho, DenseHermitian) else DenseHermitian(rho)).entries


def from_dense(rho) -> PauliCoeffs2Q:
    """Coefficient matrix A_ij = tr(rho sigma_i (x) sigma_j) of a Hermitian rho."""
    m = _hermitian_entries(rho)
    if m.shape != (4, 4):
        raise ValueError("from_dense expects a 4x4 matrix")
    coeffs = np.real(np.einsum("kab,ba->k", _PP2, m)).reshape(4, 4)
    return PauliCoeffs2Q(coeffs)


def bloch_to_dense(a: BlochOp) -> DenseHermitian:
    """Dense 2x2 operator (1/2)(a I + b X + c Y + d Z)."""
    m = a.trace_coeff * PAULIS[0]
    for k in range(3):
        m = m + a.bloch[k] * PAULIS[k + 1]
    return DenseHermitian(m / 2.0)


def bloch_from_dense(rho) -> BlochOp:
    """Inverse of bloch_to_dense, for a Hermitian rho."""
    m = _hermitian_entries(rho)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    tc = np.real(np.trace(m))
    b = np.array([np.real(np.trace(m @ PAULIS[k])) for k in (1, 2, 3)])
    return BlochOp(b, tc)


def born_probability(A: PauliCoeffs2Q, p_axis, s: int, q_axis, t: int) -> float:
    """Probability of outcomes (s, t) when measuring Pauli p (x) q.

    Returns the float (1/4)(A_00 + s A_p0 + t A_0q + s t A_pq); may be
    negative for operators outside the valid state set (callers check).
    """
    p = axis_index(p_axis)
    q = axis_index(q_axis)
    if s not in (1, -1) or t not in (1, -1):
        raise ValueError("outcomes must be +1 or -1")
    c = A.coeffs
    return float(0.25 * (c[0, 0] + s * c[p, 0] + t * c[0, q] + s * t * c[p, q]))


def single_born(a: BlochOp, axis, outcome: int) -> float:
    """Probability of `outcome` when measuring the given Pauli on one qubit."""
    k = axis_index(axis)
    if outcome not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    return float((a.trace_coeff + outcome * a.bloch[k - 1]) / 2.0)


def partial_transpose(A: PauliCoeffs2Q) -> PauliCoeffs2Q:
    """Partial transpose on the second particle: negate the sigma_Y column."""
    return PauliCoeffs2Q(A.coeffs * PT_SIGNS.reshape(4, 4))


def eigenvalues_hermitian(rho) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, refused as DenseHermitian
    refuses it."""
    return np.linalg.eigvalsh(_hermitian_entries(rho))


def conjugation_matrix(U) -> np.ndarray:
    """Transfer matrix T[k, i] = tr(P_k U P_i U^dagger) / d of the conjugation
    by a one- or two-qubit unitary U, on a Bloch operator's (a, b, c, d) or a
    flattened coefficient matrix: orthogonal, a signed permutation for a Clifford."""
    U = np.asarray(U, dtype=complex)
    if U.shape not in ((2, 2), (4, 4)):
        raise ValueError("conjugation_matrix expects a 2x2 or 4x4 unitary")
    basis = _P1 if len(U) == 2 else _PP2
    return np.real(np.einsum("kab,iba->ki", basis, U @ basis @ U.conj().T)) / len(U)


def choi_transfer_matrix(J) -> np.ndarray:
    """Transfer matrix T[k, i] = tr(J (P_i^T (x) P_k)) of the two-qubit channel
    rho -> 4 tr_in[(rho^T (x) I) J] with 16 x 16 Choi state J on qubits
    (in1, in2, out1, out2): a flattened coefficient matrix A maps to T A."""
    m = np.asarray(J.entries if isinstance(J, DenseHermitian) else J, dtype=complex)
    if m.shape != (16, 16):
        raise ValueError("choi_transfer_matrix expects a 16x16 matrix")
    # m.reshape(4, 4, 4, 4)[a, b, c, d] = <a b| J |c d>, a and c on the inputs
    return np.real(np.einsum("abcd,iac,kdb->ki", m.reshape(4, 4, 4, 4), _PP2, _PP2, optimize=True))
