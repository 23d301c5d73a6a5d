"""Dense multi-qubit helpers shared by the channel constructions and the
reference simulator.

An n-qubit matrix is read through its (2,)*2n tensor view (axis q is qubit
q's ket index, axis q + n its bra index, qubit 0 the leftmost factor).  A
channel on k qubits is its Kraus superoperator sum_K K (x) conj(K), and
pauli_transfer turns it into its real Pauli transfer matrix
T[i, j] = tr(P_i Phi(P_j)) / 2^k (Chow et al., PRL 109, 060501 (2012)).
Both are linear (in each K (x) conj(K), and in S), so the reference
simulator derives its transfer matrices once per process, as fixed bases
that a noisy CSIGN's noise weights or a preparation's Bloch vector
combine.

The reference simulator holds a state rho = 2^-m sum_idx c_idx P_idx of its m
live qubits by its real coefficients c, a (4,)*m tensor stored flat in the
first 4^m entries of a buffer, whose axis p belongs to qubit order[p].
A qubit enters the state before its first op as one outer product with
its coefficients, its axis in front.  A channel contracts its T with its
own qubits' axes: at most one transposing copy, which brings those axes
to the front (lead_axes gives its permutation and the new order), and one
matrix product, each written into whichever of two buffers the state
does not occupy, so an op allocates nothing.  A qubit leaves the state
through its partial trace, its axis taken at index 0: a prefix of the
buffer when its axis leads and otherwise one strided copy, so the state
shrinks fourfold.  lead_axes reads only the axis order, so the reference
simulator fixes every layout before its walk, which repeats these copies
and products without an order; apply_transfer and trace_out are the same
operations on one state whose order they carry.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "permute_qubits",
    "partial_trace",
    "partial_transpose_qubits",
    "superop",
    "pauli_transfer",
    "lead_axes",
    "apply_transfer",
    "trace_out",
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


def pauli_transfer(S: np.ndarray, paulis) -> np.ndarray:
    """The real 4^k x 4^k transfer matrix T[i, j] = tr(P_i Phi(P_j)) / 2^k of
    the k-qubit channel Phi with superoperator S (see superop), in the
    products P_i of the one-qubit Paulis `paulis`, the first qubit's most
    significant: Phi(P_j) = sum_i T[i, j] P_i.  With the index pairs
    flattened, T = L S R^T / 2^k, L[i, (a, b)] = P_i[b, a] and
    R[j, (c, d)] = P_j[c, d]: two matrix products."""
    basis = one = np.asarray(paulis)
    for _ in range(S.ndim // 4 - 1):
        d = 2 * basis.shape[1]
        basis = np.einsum("aij,bkl->abikjl", basis, one).reshape(-1, d, d)
    d = basis.shape[1]
    L = basis.transpose(0, 2, 1).reshape(d * d, d * d)
    R = basis.reshape(d * d, d * d)
    T = L @ S.reshape(d * d, d * d) @ R.T / d
    return np.ascontiguousarray(T.real)


def lead_axes(order: tuple, qubits):
    """The layout that brings the axes of `qubits` to the front, in their
    order, of a state whose axis p belongs to qubit order[p]: (perm, the new
    order), perm the transpose that does it, or None if they lead already.
    It reads only the order, so the reference simulator fixes every step's
    layout before its walk."""
    if order[:len(qubits)] == tuple(qubits):
        return None, order
    pos = [order.index(q) for q in qubits]
    rest = [p for p in range(len(order)) if p not in pos]
    return tuple(pos + rest), tuple(qubits) + tuple(order[p] for p in rest)


def apply_transfer(c: np.ndarray, order: tuple, T: np.ndarray, qubits, spare: np.ndarray):
    """The state c, the coefficients in the first 4^len(order) entries of a
    flat buffer, axis p of qubit order[p], after the channel of transfer
    matrix T on `qubits`, first one most significant: their axes are
    brought to the front (lead_axes), a transposing copy into spare unless
    they lead, and T multiplies them, one matrix product written into the
    buffer the state does not occupy.  Returns (new c, its order, the new
    spare)."""
    shape, size = (4,) * len(order), 4 ** len(order)
    perm, order = lead_axes(order, qubits)
    if perm is not None:
        np.copyto(spare[:size].reshape(shape), c[:size].reshape(shape).transpose(perm))
        c, spare = spare, c
    np.matmul(T, c[:size].reshape(len(T), -1), out=spare[:size].reshape(len(T), -1))
    return spare, order, c


def trace_out(c: np.ndarray, order: tuple, qubits, spare: np.ndarray):
    """The state c (see apply_transfer) with `qubits` traced out: since
    rho = 2^-m sum_idx c_idx P_idx, their axes are taken at index 0.  Where
    those axes lead, that is the buffer's prefix and (c, the rest of order,
    spare) is returned; otherwise it is one strided copy, of the view that
    lead_axes' transpose would make, into spare, and (spare, the rest of
    order, c) is returned."""
    qubits = sorted(qubits, key=order.index)
    perm, lead = lead_axes(order, qubits)
    rest = lead[len(qubits):]
    if perm is None:
        return c, rest, spare
    full, kept = (4,) * len(order), (4,) * len(rest)
    np.copyto(spare[:4 ** len(rest)].reshape(kept),
              c[:4 ** len(order)].reshape(full).transpose(perm)[(0,) * len(qubits)])
    return spare, rest, c
