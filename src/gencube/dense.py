"""Dense multi-qubit helpers shared by the channel constructions and the
reference density-matrix simulator.

An n-qubit matrix is read through its (2,)*2n tensor view (axis q is qubit
q's ket index, axis q + n its bra index, qubit 0 the leftmost factor), and
every operation touches only its own qubits' axes, at O(4^n) per call.
"""
from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "permute_qubits",
    "partial_trace",
    "partial_transpose_qubits",
    "conjugate_qubit",
    "csign_pair",
    "prepare_qubit",
    "depolarize_qubit",
    "dephase_qubit",
    "joint_depolarize_pair",
]


def _slot(n: int, qubits, ket, bra) -> tuple:
    """Index of the (2,)*2n slice with qubits[i] at ket ket[i], bra bra[i]."""
    idx = [slice(None)] * (2 * n)
    for q, k, b in zip(qubits, ket, bra):
        idx[q] = k
        idx[q + n] = b
    return tuple(idx)


def _add_product(out: np.ndarray, block: np.ndarray, rho: np.ndarray, qubits,
                 n: int) -> np.ndarray:
    """Add block (x) tr_qubits rho to the (2,)*2n tensor out, block on
    `qubits` (first one most significant), and return it as a matrix."""
    t = rho.reshape((2,) * (2 * n))
    bits = list(itertools.product((0, 1), repeat=len(qubits)))
    traced = sum(t[_slot(n, qubits, b, b)] for b in bits)
    for (i, ket), (j, bra) in itertools.product(enumerate(bits), repeat=2):
        if block[i, j]:
            out[_slot(n, qubits, ket, bra)] += block[i, j] * traced
    return out.reshape(rho.shape)


def permute_qubits(rho: np.ndarray, perm) -> np.ndarray:
    """Reorder tensor factors: new qubit k is old qubit perm[k]."""
    n = len(perm)
    t = rho.reshape((2,) * (2 * n))
    axes = list(perm) + [p + n for p in perm]
    return t.transpose(axes).reshape(2 ** n, 2 ** n)


def partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Trace out every qubit not in `keep` (order of `keep` preserved)."""
    keep = list(keep)
    order = keep + [q for q in range(n) if q not in keep]
    r = permute_qubits(rho, order)
    dk = 2 ** len(keep)
    dd = 2 ** (n - len(keep))
    return np.trace(r.reshape(dk, dd, dk, dd), axis1=1, axis2=3)


def partial_transpose_qubits(rho: np.ndarray, qubits, n: int) -> np.ndarray:
    """Transpose the tensor indices of the given qubits."""
    t = rho.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for q in qubits:
        perm[q], perm[q + n] = perm[q + n], perm[q]
    return t.transpose(perm).reshape(2 ** n, 2 ** n)


def conjugate_qubit(rho: np.ndarray, U: np.ndarray, q: int, n: int) -> np.ndarray:
    """rho -> U rho U^dagger for a 2 x 2 operator U on qubit q: the 4 x 4
    map U (x) conj(U) applied to the (ket q, bra q) axis pair."""
    t = rho.reshape(2 ** q, 2, 2 ** (n - 1), 2, 2 ** (n - q - 1))
    out = np.tensordot(np.kron(U, U.conj()).reshape(2, 2, 2, 2), t, axes=([2, 3], [1, 3]))
    return out.transpose(2, 0, 3, 1, 4).reshape(rho.shape)


def csign_pair(rho: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    """rho -> U rho U with U = diag(1, 1, 1, -1) on (q1, q2): the slices
    where both kets, or both bras, of the pair read 1 change sign."""
    out = rho.reshape((2,) * (2 * n)).copy()
    both = (slice(None),) * 2
    out[_slot(n, (q1, q2), (1, 1), both)] *= -1
    out[_slot(n, (q1, q2), both, (1, 1))] *= -1
    return out.reshape(rho.shape)


def prepare_qubit(rho: np.ndarray, local: np.ndarray, q: int, n: int) -> np.ndarray:
    """rho -> local (x) tr_q rho, the 2 x 2 state local on qubit q."""
    out = np.zeros((2,) * (2 * n), dtype=complex)
    return _add_product(out, local, rho, (q,), n)


def depolarize_qubit(rho: np.ndarray, q: int, p: float, n: int) -> np.ndarray:
    """rho -> (1-p) rho + p (I/2 (x) tr_q rho)."""
    out = (1.0 - p) * rho.reshape((2,) * (2 * n))
    return _add_product(out, p / 2 * np.eye(2), rho, (q,), n)


def dephase_qubit(rho: np.ndarray, q: int, p: float, n: int) -> np.ndarray:
    """rho -> (1-p) rho + p Z rho Z on qubit q: the two slices off the
    diagonal of (q, q + n) scale by 1 - 2p."""
    out = rho.reshape((2,) * (2 * n)).copy()
    for k in (0, 1):
        out[_slot(n, (q,), (k,), (1 - k,))] *= 1.0 - 2.0 * p
    return out.reshape(rho.shape)


def joint_depolarize_pair(rho: np.ndarray, q1: int, q2: int, lam: float, n: int) -> np.ndarray:
    """rho -> (1-lam) rho + lam (I/4 (x) tr_{q1,q2} rho)."""
    out = (1.0 - lam) * rho.reshape((2,) * (2 * n))
    return _add_product(out, lam / 4 * np.eye(4), rho, (q1, q2), n)
