"""The CSIGN gate and the single-qubit Cliffords, each read off its unitary
as a transfer matrix on Pauli coefficients (pauli.conjugation_matrix), and
the coefficient-scaling noise models.  The CSIGN's transfer matrix is a
signed permutation, applied as a gather; each Clifford's Bloch block is a
signed permutation of the Bloch components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PAULIS, BlochOp, PauliCoeffs2Q, conjugation_matrix, product
from .spaces import frame_scale

__all__ = [
    "CLIFFORD_UNITARIES",
    "CLIFFORD_ACTIONS",
    "NOISE_FAMILIES",
    "NoiseModel",
    "joint_depol",
    "local_depol",
    "local_dephase",
    "csign",
    "apply_noise",
    "noise_scale_matrix",
    "clifford1",
    "pauli_flip",
    "pipeline",
    "pipeline_rows",
]

# The CSIGN's transfer matrix as a gather on flattened coefficients: output
# entry 4k+l is input entry _CSIGN_SRC[4k+l] times _CSIGN_SIGN[4k+l]
_CSIGN_T = np.rint(conjugation_matrix(np.diag([1.0, 1.0, 1.0, -1.0])))
_CSIGN_SRC = np.abs(_CSIGN_T).argmax(axis=1)
_CSIGN_SIGN = _CSIGN_T[np.arange(16), _CSIGN_SRC]

# The single-qubit Cliffords used in the vertex-transitivity argument
CLIFFORD_UNITARIES = {"X": PAULIS[1], "Y": PAULIS[2], "Z": PAULIS[3], "S": np.diag([1.0, 1j]),
                      "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)}
# Their Bloch-vector actions b -> M b: each transfer matrix's Bloch block,
# rounded to the signed permutation it is (one of spaces.CUBE_SYMMETRIES)
CLIFFORD_ACTIONS = {g: np.rint(conjugation_matrix(U)[1:, 1:]).astype(np.int64)
                    for g, U in CLIFFORD_UNITARIES.items()}
for _action in CLIFFORD_ACTIONS.values():
    _action.setflags(write=False)


NOISE_FAMILIES = ("joint-depol", "local-depol", "local-dephase")


@dataclass(frozen=True)
class NoiseModel:
    """A noise channel attached to the CSIGN gate.

    kind is one of NOISE_FAMILIES; strength is the probability parameter.
    """

    kind: str
    strength: float

    def __post_init__(self):
        if self.kind not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("noise strength must lie in [0, 1]")


def joint_depol(lam: float) -> NoiseModel:
    return NoiseModel("joint-depol", lam)


def local_depol(p: float) -> NoiseModel:
    return NoiseModel("local-depol", p)


def local_dephase(p: float) -> NoiseModel:
    return NoiseModel("local-dephase", p)


def csign(A: PauliCoeffs2Q | np.ndarray) -> PauliCoeffs2Q | np.ndarray:
    """Apply the CSIGN gate (linear, involutive) to a coefficient matrix, or
    to each row of an (N, 16) stack of flattened coefficient matrices."""
    if isinstance(A, PauliCoeffs2Q):
        return PauliCoeffs2Q(csign(A.coeffs.reshape(1, 16)).reshape(4, 4))
    return A.take(_CSIGN_SRC, axis=1) * _CSIGN_SIGN


def noise_scale_matrix(n: NoiseModel) -> np.ndarray:
    """Entrywise factors the noise applies to the 4x4 coefficient matrix."""
    if n.kind == "joint-depol":
        m = np.full((4, 4), 1.0 - n.strength)
        m[0, 0] = 1.0
        return m
    if n.kind == "local-depol":
        f = np.array([1.0, 1 - n.strength, 1 - n.strength, 1 - n.strength])
        return np.outer(f, f)
    t = 1.0 - 2.0 * n.strength     # local-dephase
    f = np.array([1.0, t, t, 1.0])
    return np.outer(f, f)


def apply_noise(A: PauliCoeffs2Q, n: NoiseModel) -> PauliCoeffs2Q:
    """Coefficient-wise action of a scaling noise model (trace preserved)."""
    return PauliCoeffs2Q(A.coeffs * noise_scale_matrix(n))


def clifford1(a: BlochOp, gate: str) -> BlochOp:
    """Signed permutation of the Bloch components under a 1-qubit Clifford."""
    try:
        M = CLIFFORD_ACTIONS[gate]
    except KeyError:
        raise ValueError(f"unknown Clifford gate {gate!r}") from None
    return BlochOp(M @ a.bloch, a.trace_coeff)


def pauli_flip(A: PauliCoeffs2Q, side: int, axis: int) -> PauliCoeffs2Q:
    """Conjugation by a Pauli on one side: flips the sign of the coefficient
    rows (side 0) or columns (side 1) whose index is neither 0 nor `axis`.
    """
    if side not in (0, 1) or axis not in (1, 2, 3):
        raise ValueError("side must be 0/1 and axis 1/2/3")
    f = np.array([1.0 if i in (0, axis) else -1.0 for i in range(4)])
    c = A.coeffs * (f[:, None] if side == 0 else f[None, :])
    return PauliCoeffs2Q(c)


def pipeline_rows(P: np.ndarray, R: float, n: NoiseModel) -> np.ndarray:
    """The pipeline on an (N, 16) stack of flattened product inputs: rescale
    by R, apply CSIGN, apply noise, undo the rescaling, row by row."""
    return csign(P * frame_scale(R)) * noise_scale_matrix(n).ravel() * frame_scale(1.0 / R)


def pipeline(u: BlochOp, v: BlochOp, R: float, n: NoiseModel) -> PauliCoeffs2Q:
    """Rescale by R, apply CSIGN, apply noise, undo the rescaling: one row of
    pipeline_rows."""
    P = product(u, v).coeffs.reshape(1, 16)
    return PauliCoeffs2Q(pipeline_rows(P, R, n).reshape(4, 4))
