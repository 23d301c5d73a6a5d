"""Single-particle state spaces: Bloch cubes, rescaled spheres, and the
operator-compatibility machinery for sets of POVMs.

The module owns the cube: the order of its eight vertices (CUBE_SIGNS,
vertex_index) and its 48 symmetries, the signed permutations of the three
axes (CUBE_SYMMETRIES, VERTEX_PERMS).  Every other module reads them here.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .pauli import HERMITICITY_TOL, PAULIS, BlochOp, DenseHermitian, PauliCoeffs2Q

__all__ = [
    "CUBE_SIGNS",
    "CUBE_SYMMETRIES",
    "VERTEX_PERMS",
    "vertex_index",
    "check_R",
    "StateSpaceSpec",
    "PovmSet",
    "CompatibilityResult",
    "cube_vertices",
    "contains",
    "rescale",
    "rescale2",
    "frame_scale",
    "noise_to_R",
    "operator_compatible",
    "qubit_xyz_povms",
    "projective_qubit_povm",
]

MEMBERSHIP_TOL = 1e-12
POVM_TOL = 1e-10
SOLVE_RESIDUAL_TOL = 1e-8

# Vertex k of the cube has sign -1 on axis i (x, y, z) where bit 2 - i of k
# is set: lexicographic order with +1 before -1.
CUBE_SIGNS = 1 - 2 * ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1)
_BIT_WEIGHTS = np.array([4, 2, 1])


def vertex_index(signs):
    """Index of the cube vertex with the given signs, the inverse of
    CUBE_SIGNS; a stack of sign triples (last axis 3) gives an array.
    Raises ValueError unless the last axis has length 3 and every entry is
    +1 or -1."""
    s = np.asarray(signs, dtype=float)
    if s.shape[-1:] != (3,) or not (np.abs(s) == 1.0).all():
        raise ValueError(f"not a cube vertex: {signs!r}")
    k = (s < 0) @ _BIT_WEIGHTS
    return int(k) if k.ndim == 0 else k


# The cube's 48 symmetries diag(s) P: P over the axis permutations in
# itertools order (row i of P is e_perm(i)), and for each P, s over the rows
# of CUBE_SIGNS.  Rows 0-7 are thus the sign flips diag(CUBE_SIGNS[k]).
_AXIS_PERMS = np.eye(3, dtype=np.int64)[list(itertools.permutations(range(3)))]
CUBE_SYMMETRIES = (CUBE_SIGNS[None, :, :, None] * _AXIS_PERMS[:, None]).reshape(48, 3, 3)
# row g: the vertex index of each vertex's image under CUBE_SYMMETRIES[g]
VERTEX_PERMS = vertex_index(CUBE_SIGNS @ CUBE_SYMMETRIES.transpose(0, 2, 1))
for _table in (CUBE_SIGNS, CUBE_SYMMETRIES, VERTEX_PERMS):
    _table.setflags(write=False)


# A pipeline output entry is +-R^e, e in {-1, 0, 1}, times a noise
# polynomial whose coefficients are at most 4 in size, and every threshold
# row's slack coefficients a, b, c stay within 4 s, s = max(R, 1/R), up to
# rounding (tested).  The row roots form b^2 - 4ac, at most 80 s^2 in size,
# which stays finite while s <= 2^508: 80 (2^508)^2 < 2^1023.
_R_LIMIT = 2.0 ** 508


def check_R(R: float, name: str = "rescaling factor R") -> None:
    """The domain of a rescaling factor: R must be positive and finite, and
    within a factor 2^508 of 1, where the threshold arithmetic stays
    finite."""
    if not 0.0 < R < np.inf:
        raise ValueError(f"{name} must be positive and finite; got {R}")
    if not 1.0 / _R_LIMIT <= R <= _R_LIMIT:
        raise ValueError(f"{name} must lie in [2^-508, 2^508]; got {R}")


@dataclass(frozen=True)
class StateSpaceSpec:
    """Which single-particle state space is in force: Cube(R) or Sphere(R)."""

    kind: str  # "cube" | "sphere"
    R: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cube", "sphere"):
            raise ValueError(f"unknown state space kind {self.kind!r}")
        check_R(self.R)

    @classmethod
    def cube(cls, R: float = 1.0) -> "StateSpaceSpec":
        return cls("cube", R)

    @classmethod
    def sphere(cls, R: float = 1.0) -> "StateSpaceSpec":
        return cls("sphere", R)


def cube_vertices() -> tuple[BlochOp, ...]:
    """The eight cube corners in vertex order, the rows of CUBE_SIGNS."""
    return tuple(BlochOp(s.astype(float)) for s in CUBE_SIGNS)


def contains(space: StateSpaceSpec, a: BlochOp) -> bool:
    """Membership of a normalized Bloch operator in the given state space."""
    if not a.is_normalized:
        raise ValueError("membership is defined for normalized operators")
    if space.kind == "cube":
        return bool(np.max(np.abs(a.bloch)) <= space.R + MEMBERSHIP_TOL)
    return bool(np.linalg.norm(a.bloch) <= space.R + MEMBERSHIP_TOL)


def rescale(a: BlochOp, R: float) -> BlochOp:
    """Multiply the Bloch (traceless) part by R; invertible for R > 0."""
    check_R(R)
    return BlochOp(a.bloch * R, a.trace_coeff)


def frame_scale(R: float) -> np.ndarray:
    """The two-sided rescaling as factors on the 16 flattened coefficients:
    outer((1, R, R, R), (1, R, R, R))."""
    check_R(R)
    f = np.array([1.0, R, R, R])
    return (f[:, None] * f).ravel()


def rescale2(A: PauliCoeffs2Q, R: float) -> PauliCoeffs2Q:
    """Two-sided rescaling: one-body coefficients scale by R, two-body by R^2."""
    return PauliCoeffs2Q(A.coeffs * frame_scale(R).reshape(4, 4))


def noise_to_R(kind: str, p: float) -> float:
    """Rescaling factor equivalent to depolarizing noise at rate p.

    Depolarized measurements enlarge the admissible set: R = 1/(1-p) >= 1.
    Depolarized preparations shrink it: R = 1-p <= 1.
    """
    if not 0 <= p < 1:
        raise ValueError("depolarizing rate must lie in [0, 1)")
    if kind == "measurement":
        return 1.0 / (1.0 - p)
    if kind == "preparation":
        return 1.0 - p
    raise ValueError(f"unknown noise placement {kind!r}")


@dataclass(frozen=True)
class PovmSet:
    """A list of POVMs on a d-dimensional system.

    Each POVM is a tuple of finite operators, Hermitian to HERMITICITY_TOL,
    positive and summing to the identity (both checked to 1e-10).
    """

    povms: tuple
    dim: int

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(f"dim must be a positive integer; got {self.dim!r}")
        povms = tuple(tuple(np.asarray(m, dtype=complex) for m in p) for p in self.povms)
        if not povms:
            raise ValueError("a POVM set needs at least one POVM")
        for i, p in enumerate(povms):
            total = np.zeros((self.dim, self.dim), dtype=complex)
            for j, m in enumerate(p):
                if m.shape != (self.dim, self.dim):
                    raise ValueError("POVM element dimension mismatch")
                if not np.isfinite(m).all():
                    raise ValueError(f"element {j} of POVM {i} has a non-finite entry")
                if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
                    raise ValueError(f"element {j} of POVM {i} is not Hermitian "
                                     f"to {HERMITICITY_TOL:g}")
                if np.min(np.linalg.eigvalsh(m)) < -POVM_TOL:
                    raise ValueError("POVM element not positive")
                total += m
            if np.max(np.abs(total - np.eye(self.dim))) > POVM_TOL:
                raise ValueError("POVM elements do not sum to identity")
        object.__setattr__(self, "povms", povms)

    @property
    def outcome_count(self) -> int:
        return sum(len(p) for p in self.povms)


@dataclass(frozen=True)
class CompatibilityResult:
    compatible: bool
    corners: tuple | None = None  # DenseHermitian solutions, one per outcome combination
    reason: str | None = None


def projective_qubit_povm(axis_vector) -> tuple[np.ndarray, np.ndarray]:
    """Two-outcome projective qubit measurement along a Bloch vector,
    normalized first; a zero or non-finite vector is refused."""
    n = np.asarray(axis_vector, dtype=float)
    norm = np.linalg.norm(n)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"measurement axis must be a nonzero finite vector; got {n}")
    n = n / norm
    obs = sum(n[k] * PAULIS[k + 1] for k in range(3))
    return ((np.eye(2) + obs) / 2, (np.eye(2) - obs) / 2)


def qubit_xyz_povms() -> PovmSet:
    """The X, Y, Z projective measurements of a qubit."""
    return PovmSet(
        tuple(projective_qubit_povm(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        dim=2,
    )


def solve_outcome_systems(povms: PovmSet):
    """Least-squares solve, for every combination of one designated outcome
    per POVM, for a trace-one operator that assigns probability one to each
    designated outcome and zero to the rest.

    Since tr(m X) = m^T . X entrywise, all combinations share one complex
    system over the d x d entries of X: a row per outcome and the trace row,
    a target column per combination.  For Hermitian elements and real
    targets the minimum-norm solution is Hermitian, and it is the trace-one
    solution closest to I/d.

    Returns (combinations in itertools.product order, operators (C, d, d),
    relative residuals (C,)).
    """
    d = povms.dim
    combos = list(itertools.product(*(range(len(p)) for p in povms.povms)))
    M = np.array([m.T.ravel() for p in povms.povms for m in p] + [np.eye(d).ravel()])
    offsets = np.cumsum([0] + [len(p) for p in povms.povms[:-1]])
    T = np.zeros((len(M), len(combos)))
    T[offsets + np.array(combos), np.arange(len(combos))[:, None]] = 1.0
    T[-1] = 1.0
    X, *_ = np.linalg.lstsq(M, T, rcond=None)
    resid = np.linalg.norm(M @ X - T, axis=0) / np.maximum(1.0, np.linalg.norm(T, axis=0))
    return combos, X.T.reshape(-1, d, d), resid


def operator_compatible(povms: PovmSet) -> CompatibilityResult:
    """Decide operator compatibility of a POVM set.

    A counting bound rejects immediately when the total number of outcomes
    exceeds d^2 + N - 1; otherwise every combination of one designated
    outcome per POVM must admit a trace-one solution (relative residual
    < 1e-8).  The solutions come from one least-squares system over the
    matrix entries for all combinations (solve_outcome_systems), and each
    is the trace-one solution closest to I/d.  Compatible results carry
    them (the generalized corner operators).
    """
    d, N = povms.dim, len(povms.povms)
    if povms.outcome_count > d * d + N - 1:
        return CompatibilityResult(
            False,
            reason=f"outcome count {povms.outcome_count} exceeds d^2+N-1 = {d*d + N - 1}",
        )
    combos, ops, resid = solve_outcome_systems(povms)
    bad = np.flatnonzero(resid >= SOLVE_RESIDUAL_TOL)
    if bad.size:
        k = bad[0]
        return CompatibilityResult(
            False, reason=f"outcome combination {combos[k]} unreachable (residual {resid[k]:.2e})"
        )
    return CompatibilityResult(True, corners=tuple(DenseHermitian((op + op.conj().T) / 2)
                                                   for op in ops))
