"""Separability deciders and LHV certificates.

Cube-separability of a two-particle coefficient matrix is membership in the
convex hull of the 64 products of unit cube vertices, decided by its 684
integer facets (see ``lp``).  An operator A of the R-scaled space is asked
in the unit frame, as cube_separable(spaces.rescale2(A, 1 / R)).  Feasible verdicts carry primal certificates
(convex weights), infeasible ones the violated facet as a separating
functional.  Quantum separability of two qubits is positivity plus PPT.
Each criterion has a margin beside its predicate, computed row by row over
a stack of flattened coefficient matrices (cube_margins, pauli_margins,
quantum_margins); each predicate holds where margin >= -tol
(lp.FEASIBILITY_TOL for cubes, POSITIVITY_TOL otherwise), and the threshold
engine roots margin + tol.
The module also carries the appendix catalog of hand-built LHV
decompositions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .gates import NoiseModel, joint_depol, local_depol, local_dephase, pipeline
from .pauli import ODD_Y, PT_SIGNS, BlochOp, PauliCoeffs2Q, dense_rows, dense_rows_real
from .spaces import VERTEX_PERMS, vertex_index

__all__ = [
    "LhvCertificate",
    "BellFunctional",
    "SeparabilityResult",
    "cube_margins",
    "cube_decide",
    "cube_separable",
    "pauli_margin",
    "pauli_margins",
    "positive_for_pauli",
    "quantum_margin",
    "quantum_margins",
    "quantum_separable_2q",
    "verify_certificate",
    "certificate_to_text",
    "certificate_from_text",
    "Appendix1Item",
    "appendix1_certificates",
    "csign_lhv_weights",
    "vertex_pair_index",
]

POSITIVITY_TOL = 1e-9


def vertex_pair_index(u_signs, v_signs):
    """Index 8 i + j of a vertex pair in the canonical 64-column order, i
    and j the spaces.vertex_index of each vertex's signs (arrays for stacks
    of vertices); raises ValueError on signs that are not a cube vertex."""
    return 8 * vertex_index(u_signs) + vertex_index(v_signs)


@dataclass(frozen=True)
class LhvCertificate:
    """Primal certificate: convex weights over the 64 vertex products."""

    weights: np.ndarray
    tolerance_used: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (64,):
            raise ValueError("weights must have length 64")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class BellFunctional:
    """Dual certificate: B with B.V >= 0 on all vertex products, B.A < 0.

    Verdicts from the facet table carry a facet as B, an integer Bell
    inequality.
    """

    dual: np.ndarray  # 4x4
    violation: float

    def __post_init__(self):
        d = np.asarray(self.dual, dtype=float).reshape(4, 4)
        object.__setattr__(self, "dual", d)


@dataclass(frozen=True)
class SeparabilityResult:
    feasible: bool
    certificate: LhvCertificate | None = None
    functional: BellFunctional | None = None
    method: str = "facet"     # "facet" | "mixed": cube_decide's route


def _checked(A: PauliCoeffs2Q) -> np.ndarray:
    """The 16 coefficients of A, once A_00 = 1 is checked."""
    if not A.is_normalized:
        raise ValueError("separability criteria expect A_00 = 1")
    return A.coeffs.ravel()


def cube_margins(B: np.ndarray) -> np.ndarray:
    """Least normalized facet value f . b / f_0 (lp.facet_margins) of each
    row of an (N, 16) stack: a row is cube-separable, within white noise of
    weight lp.FEASIBILITY_TOL, exactly where it is >= -lp.FEASIBILITY_TOL
    (lp.decide_membership)."""
    return lp.facet_margins(B).min(axis=-1)


def cube_decide(A: PauliCoeffs2Q) -> lp.Decision:
    """Cube-separability verdict of A, without certificates.

    One product with the facet table decides every point: feasible iff its
    least margin is >= -lp.FEASIBILITY_TOL (see lp.decide_membership).
    """
    return lp.decide_membership(_checked(A))


def cube_separable(A: PauliCoeffs2Q) -> SeparabilityResult:
    """Decide membership of A in the cube-product polytope.

    The verdict is cube_decide's.  Infeasible verdicts carry the integer
    facet with the least margin as their functional.  Every feasible
    verdict carries the Carathéodory descent's weights on the facet table
    (lp.caratheodory_weights), which reproduce A within lp.FEASIBILITY_TOL.
    """
    d = cube_decide(A)
    b = A.coeffs.ravel()
    if not d.feasible:
        y = lp.facet_table()[d.facet]
        return SeparabilityResult(
            False, functional=BellFunctional(y.reshape(4, 4), float(-(y @ b))),
            method=d.route,
        )
    w = lp.caratheodory_weights(b)
    return SeparabilityResult(True, certificate=LhvCertificate(w, lp.FEASIBILITY_TOL),
                              method=d.route)


def pauli_margins(B: np.ndarray) -> np.ndarray:
    """Least of the 36 Pauli-pair Born probabilities of each row of an
    (N, 16) stack: a quarter of the least positivity facet value."""
    return lp.positivity_values(B).min(axis=-1) / 4.0


def pauli_margin(A: PauliCoeffs2Q) -> float:
    """pauli_margins of the one matrix A."""
    return float(pauli_margins(_checked(A)))


def positive_for_pauli(A: PauliCoeffs2Q) -> bool:
    """All 36 Pauli-pair Born probabilities nonnegative, within POSITIVITY_TOL."""
    return pauli_margin(A) >= -POSITIVITY_TOL


def quantum_margins(B: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each row's operator of an (N, 16) stack and of its
    partial transpose on the second qubit: one batched eigensolve of the 2N
    4 x 4 matrices.  The partial transpose is taken on the coefficients
    (PT_SIGNS), and both operators come from one dense build of the (2N, 16)
    stack.  When no row has an odd-Y coefficient, every operator and its
    partial transpose is real symmetric, and the build and the eigensolve
    are real; any other stack takes the complex Hermitian route."""
    n = len(B)
    pair = np.concatenate((B, B * PT_SIGNS))
    dense = dense_rows(pair) if B[:, ODD_Y].any() else dense_rows_real(pair)
    low = np.linalg.eigvalsh(dense)[:, 0]
    return np.minimum(low[:n], low[n:])


def quantum_margin(A: PauliCoeffs2Q) -> float:
    """quantum_margins of the one matrix A."""
    return float(quantum_margins(_checked(A).reshape(1, 16))[0])


def quantum_separable_2q(A: PauliCoeffs2Q) -> bool:
    """Two-qubit quantum separability: positive and PPT, within POSITIVITY_TOL."""
    return quantum_margin(A) >= -POSITIVITY_TOL


def verify_certificate(cert: LhvCertificate, A: PauliCoeffs2Q, R: float = 1.0,
                       tol: float | None = None) -> bool:
    """Independent recheck of a primal certificate.

    Recomputes the convex combination directly from the vertex products
    (no LP involved) and demands nonnegative weights summing to one.
    """
    tol = cert.tolerance_used if tol is None else tol
    w = cert.weights
    if np.min(w) < -1e-12:
        return False
    if abs(float(np.sum(w)) - 1.0) > 1e-9:
        return False
    recon = lp.vertex_product_matrix(R) @ w
    return bool(np.max(np.abs(recon - A.coeffs.ravel())) <= tol)


def certificate_to_text(cert: LhvCertificate) -> str:
    """Line format: header, then 64 lines "u_bits v_bits weight".

    Bits follow (x, y, z) order with 0 for +1 and 1 for -1.
    """
    lines = [
        f"# lhv certificate tolerance={cert.tolerance_used!r}",
        "# columns: u_bits(x,y,z sign bits, 0=+1) v_bits weight",
    ]
    for k in range(64):
        lines.append(f"{k // 8:03b} {k % 8:03b} {float(cert.weights[k])!r}")
    return "\n".join(lines) + "\n"


def certificate_from_text(text: str) -> LhvCertificate:
    tol = None
    weights = np.zeros(64)
    seen = np.zeros(64, dtype=bool)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "tolerance=" in line:
                tol = line.split("tolerance=")[1].split()[:1]
            continue
        # two fields of three binary digits, each pair at most once
        fields = line.split()
        if len(fields) != 3 or any(len(f) != 3 or set(f) - {"0", "1"} for f in fields[:2]):
            raise ValueError("malformed certificate text")
        k = 8 * int(fields[0], 2) + int(fields[1], 2)
        if seen[k]:
            raise ValueError("malformed certificate text")
        weights[k] = float(fields[2])
        seen[k] = True
    if not tol or not seen.all():
        raise ValueError("malformed certificate text")
    return LhvCertificate(weights, float(tol[0]))


# ---------------------------------------------------------------------------
# Appendix catalog of hand-built LHV decompositions
# ---------------------------------------------------------------------------


def _weights(*pairs) -> np.ndarray:
    """Build a 64-weight vector from (u_signs, v_signs, weight) triples."""
    w = np.zeros(64)
    u, v, wt = zip(*pairs)
    np.add.at(w, vertex_pair_index(u, v), wt)
    return w


def _uniform(pair_list) -> np.ndarray:
    return _weights(*[(u, v, 1.0 / len(pair_list)) for u, v in pair_list])


# item 1: corners-of-ones target
_W_ITEM1 = _weights(((1, 1, 1), (1, 1, 1), 0.5), ((-1, -1, -1), (-1, -1, -1), 0.5))

# item 2: XX=YY=+1, XY=YX=-1 block with free z signs
_W_ITEM2 = _uniform(
    [((1, -1, r), (1, -1, q)) for r in (1, -1) for q in (1, -1)]
    + [((-1, 1, t), (-1, 1, s)) for t in (1, -1) for s in (1, -1)]
)

# item 2 with the free z signs pinned to +1 (used inside item 6)
_W_ITEM2_PINNED = _uniform([((1, -1, 1), (1, -1, 1)), ((-1, 1, 1), (-1, 1, 1))])

# item 3: XY=YX=-1 only
_W_ITEM3 = _uniform(
    [((-q, -p, s), (p, q, r)) for p in (1, -1) for q in (1, -1) for r in (1, -1) for s in (1, -1)]
)

# item 4: joint-depolarising LHV = 1/3 all-ones product + 2/3 item 3
_W_ITEM4 = _weights(((1, 1, 1), (1, 1, 1), 1.0 / 3.0)) + (2.0 / 3.0) * _W_ITEM3

# item 5, first display: rows I and Z all ones
_W_ITEM5A = _weights(((1, 1, 1), (1, 1, 1), 0.5), ((-1, -1, 1), (1, 1, 1), 0.5))
# item 5, second display: columns I and Z all ones
_W_ITEM5B = _weights(((1, 1, 1), (1, 1, 1), 0.5), ((1, 1, 1), (-1, -1, 1), 0.5))

# corner block of item 6: I/Z-plane products with z signs pinned up
_W_CORNERS = _uniform(
    [((x1, y1, 1), (x2, y2, 1)) for x1 in (1, -1) for y1 in (1, -1)
     for x2 in (1, -1) for y2 in (1, -1)]
)

# maximally mixed: one antipodal four-cycle suffices
_W_MIXED = _uniform(
    [((1, 1, 1), (1, 1, 1)), ((-1, -1, -1), (1, 1, 1)),
     ((1, 1, 1), (-1, -1, -1)), ((-1, -1, -1), (-1, -1, -1))]
)

# one-sided all-ones rows/columns used in item 7
_W_ROW_ONES = _weights(((1, 1, 1), (1, 1, 1), 0.5), ((-1, -1, -1), (1, 1, 1), 0.5))
_W_COL_ONES = _weights(((1, 1, 1), (1, 1, 1), 0.5), ((1, 1, 1), (-1, -1, -1), 0.5))


def _target_from_weights(w: np.ndarray) -> PauliCoeffs2Q:
    return PauliCoeffs2Q((lp.vertex_product_matrix() @ w).reshape(4, 4))


def _noisy_allones_output(noise: NoiseModel) -> PauliCoeffs2Q:
    allones = BlochOp(np.ones(3))
    return pipeline(allones, allones, 1.0, noise)


@dataclass(frozen=True)
class Appendix1Item:
    name: str
    target: PauliCoeffs2Q
    certificate: LhvCertificate
    valid: bool
    validity_reason: str | None = None


def appendix1_certificates(dephase_p: float | None = None,
                           depol_p: float | None = None) -> list[Appendix1Item]:
    """The seven appendix LHV decompositions, expanded to 64-vertex weights.

    Items 6 and 7 are parameterized by the dephasing / local-depolarizing
    probability; outside their validity inequality the decomposition
    acquires a negative weight and is returned flagged invalid rather than
    raising.  Defaults sit exactly at the two thresholds.
    """
    if dephase_p is None:
        dephase_p = 1.0 - 1.0 / math.sqrt(2.0)
    if depol_p is None:
        depol_p = 2.0 - math.sqrt(2.0)

    items: list[Appendix1Item] = []

    def fixed(name, w):
        items.append(
            Appendix1Item(name, _target_from_weights(w), LhvCertificate(w, 1e-12), True)
        )

    fixed("1: interior all-ones block", _W_ITEM1)
    fixed("2: XX=YY=1, XY=YX=-1 block", _W_ITEM2)
    fixed("3: XY=YX=-1 block", _W_ITEM3)

    items.append(
        Appendix1Item(
            "4: joint-depolarized CSIGN output at lambda=2/3",
            _noisy_allones_output(joint_depol(2.0 / 3.0)),
            LhvCertificate(_W_ITEM4, 1e-12),
            True,
        )
    )

    fixed("5a: I/Z rows of ones", _W_ITEM5A)
    fixed("5b: I/Z columns of ones", _W_ITEM5B)

    # item 6: locally dephased CSIGN output
    head6, w6 = _item6(1.0 - 2.0 * dephase_p)
    valid6 = head6 >= -1e-12 and 0.0 <= dephase_p <= 0.5
    items.append(
        Appendix1Item(
            f"6: locally dephased CSIGN output at p={dephase_p:.6f}",
            _noisy_allones_output(local_dephase(dephase_p)),
            LhvCertificate(w6, 1e-12),
            valid6,
            None if valid6 else f"requires 1-2(1-2p)-(1-2p)^2 >= 0; got {head6:.3e}",
        )
    )

    # item 7: locally depolarized CSIGN output
    head7, w7 = _item7(1.0 - depol_p)
    valid7 = head7 >= -1e-12
    items.append(
        Appendix1Item(
            f"7: locally depolarized CSIGN output at p={depol_p:.6f}",
            _noisy_allones_output(local_depol(depol_p)),
            LhvCertificate(w7, 1e-12),
            valid7,
            None if valid7 else f"requires 1-2(1-p)-(1-p)^2 >= 0; got {head7:.3e}",
        )
    )
    return items


def _item6(t: float) -> tuple[float, np.ndarray]:
    """Item 6, the locally dephased all-ones CSIGN output at t = 1 - 2p: its
    leading coefficient, negative outside the validity inequality, and its
    weights."""
    head = 1.0 - 2.0 * t - t * t
    return head, head * _W_CORNERS + t * (_W_ITEM5A + _W_ITEM5B) + t * t * _W_ITEM2_PINNED


def _item7(u: float) -> tuple[float, np.ndarray]:
    """Item 7, the locally depolarized all-ones CSIGN output at u = 1 - p:
    its leading coefficient, negative outside the validity inequality, and
    its weights."""
    head = 1.0 - 2.0 * u - u * u
    return head, (head * _W_MIXED + (u - u * u) * (_W_ROW_ONES + _W_COL_ONES)
                  + 3.0 * u * u * _W_ITEM4)


# Z on both qubits flips the x and y signs of both vertices: the sign flip
# diag(-1, -1, 1), row vertex_index((-1, -1, 1)) of VERTEX_PERMS, on each
_Z_FLIP = VERTEX_PERMS[vertex_index((-1, -1, 1))]
_ZZ_PAIRS = (8 * _Z_FLIP[:, None] + _Z_FLIP).ravel()


def csign_lhv_weights(noise: NoiseModel) -> np.ndarray:
    """Closed-form weights of the noisy CSIGN output on the all-ones vertex
    pair over the 64 vertex products, from the appendix: joint depol is
    t item 4 + (1 - t) I/4 with t = 3(1 - lambda), local depol item 7 and
    dephasing item 6.  They are convex from each family's cube threshold
    on (2/3, 2 - sqrt 2 and 1 - 1/sqrt 2) and have a negative weight below it.

    Past p = 1/2 the dephasing scale 1 - 2p is negative, and the output is
    the image under Z (x) Z of the output at 1 - p, so the weights are item
    6's at 1 - p moved by that map; they stay convex up to p = 1/sqrt 2.
    """
    if noise.kind == "joint-depol":
        t = 3.0 * (1.0 - noise.strength)
        return t * _W_ITEM4 + (1.0 - t) * _W_MIXED
    if noise.kind == "local-depol":
        return _item7(1.0 - noise.strength)[1]
    t = 1.0 - 2.0 * noise.strength     # local-dephase
    return _item6(t)[1] if t >= 0.0 else _item6(-t)[1][_ZZ_PAIRS]
