"""Dense multi-qubit helpers shared by the channel constructions and the
reference density-matrix simulator.

An n-qubit matrix is read through its (2,)*2n tensor view (axis q is qubit
q's ket index, axis q + n its bra index, qubit 0 the leftmost factor).  A
channel on k qubits is its Kraus superoperator sum_K K (x) conj(K), and
apply_channel contracts it with its own qubits' ket and bra axes, at
O(4^n) per call; no operator is lifted to 2^n x 2^n.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "permute_qubits",
    "partial_trace",
    "partial_transpose_qubits",
    "superop",
    "apply_channel",
]


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


def superop(kraus) -> np.ndarray:
    """sum_K K (x) conj(K) of a stack of 2^k x 2^k Kraus operators, as a
    (2,)*4k tensor: k ket-out, k bra-out, k ket-in and k bra-in axes, in
    that order, the first qubit first in each group."""
    K = np.asarray(kraus)
    S = np.einsum("mij,mkl->ikjl", K, K.conj())
    return S.reshape((2,) * (S.size.bit_length() - 1))


def apply_channel(rho: np.ndarray, S: np.ndarray, qubits, n: int) -> np.ndarray:
    """rho -> the channel with superoperator S (see superop) on `qubits`,
    first one most significant: one contraction of S's input axes with the
    qubits' ket and bra axes of rho."""
    axes = [*qubits, *(q + n for q in qubits)]
    out = np.tensordot(S, rho.reshape((2,) * (2 * n)),
                       axes=(range(len(axes), 2 * len(axes)), axes))
    return np.moveaxis(out, range(len(axes)), axes).reshape(rho.shape)
