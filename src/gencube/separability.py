"""Separability deciders and LHV certificates.

Cube-separability of a two-particle coefficient matrix is membership in the
convex hull of the 64 products of unit cube vertices, decided by its 684
integer facets (see ``lp``).  An operator A of the R-scaled space is asked
in the unit frame, as cube_separable(spaces.rescale2(A, 1 / R)).  Feasible verdicts carry primal certificates
(convex weights), infeasible ones the violated facet as a separating
functional.  Quantum separability of two qubits is positivity plus PPT.
CRITERIA pairs each criterion with its margin, computed row by row over a
stack of flattened coefficient matrices (cube_margins, pauli_margins,
quantum_margins), and the tolerance it is held to (lp.FEASIBILITY_TOL for
cubes, POSITIVITY_TOL otherwise); slack is margin + tol, >= 0 exactly where
the criterion holds.  Every predicate reads slack; the threshold engine
reads each criterion's tolerance and takes its rows in closed form.
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
from .spaces import frame_scale, vertex_index

__all__ = [
    "LhvCertificate",
    "BellFunctional",
    "SeparabilityResult",
    "cube_margins",
    "cube_separable",
    "pauli_margins",
    "positive_for_pauli",
    "quantum_margins",
    "quantum_separable_2q",
    "CRITERIA",
    "slack",
    "certificates_hold",
    "verify_certificate",
    "certificate_to_text",
    "certificate_from_text",
    "Appendix1Item",
    "appendix1_certificates",
    "appendix1_checks",
    "vertex_pair_index",
]

POSITIVITY_TOL = 1e-9
WEIGHT_FLOOR = -1e-12       # least weight a certificate may carry: zero less a rounding error
WEIGHT_SUM_TOL = 1e-9       # how far a certificate's weights may sum from one


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
    method: str = "facet"     # "facet" | "mixed": lp.decide_membership's route


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


def cube_separable(A: PauliCoeffs2Q) -> SeparabilityResult:
    """Decide membership of A in the cube-product polytope.

    The verdict is lp.decide_membership's: feasible iff the least facet
    margin is >= -lp.FEASIBILITY_TOL.  Infeasible verdicts carry the integer
    facet with the least margin as their functional.  Every feasible
    verdict carries the Carathéodory descent's weights on the facet table
    (lp.caratheodory_weights), which reproduce A within lp.FEASIBILITY_TOL.
    """
    b = _checked(A)
    d = lp.decide_membership(b)
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


# each criterion's stacked margin and the tolerance it is held to
CRITERIA = {
    "cube-separable": (cube_margins, lp.FEASIBILITY_TOL),
    "quantum-separable": (quantum_margins, POSITIVITY_TOL),
    "pauli-positive": (pauli_margins, POSITIVITY_TOL),
}


def slack(criterion: str, B: np.ndarray) -> np.ndarray:
    """The criterion's margin plus its tolerance on each row of an (N, 16)
    stack: >= 0 exactly where the criterion holds."""
    margins, tol = CRITERIA[criterion]
    return margins(B) + tol


def positive_for_pauli(A: PauliCoeffs2Q) -> bool:
    """All 36 Pauli-pair Born probabilities nonnegative, within POSITIVITY_TOL."""
    return bool(slack("pauli-positive", _checked(A)[None])[0] >= 0.0)


def quantum_separable_2q(A: PauliCoeffs2Q) -> bool:
    """Two-qubit quantum separability: positive and PPT, within POSITIVITY_TOL."""
    return bool(slack("quantum-separable", _checked(A)[None])[0] >= 0.0)


def certificates_hold(W: np.ndarray, targets: np.ndarray, tol: float) -> np.ndarray:
    """Row k: whether weights W[k] over the 64 unit vertex products certify
    the flattened unit-frame coefficient row targets[k]: weights >=
    WEIGHT_FLOOR that sum to one within WEIGHT_SUM_TOL and rebuild the row
    within tol."""
    resid = np.abs(W @ lp.vertex_product_matrix().T - targets).max(axis=1)
    return ((W.min(axis=1) >= WEIGHT_FLOOR) & (np.abs(W.sum(axis=1) - 1.0) <= WEIGHT_SUM_TOL)
            & (resid <= tol))


def verify_certificate(cert: LhvCertificate, A: PauliCoeffs2Q, R: float = 1.0,
                       tol: float | None = None) -> bool:
    """Independent recheck of a primal certificate.

    Recomputes the convex combination directly from the vertex products
    (no LP involved), with the conditions of certificates_hold, in the unit
    frame: an operator A of the R-scaled space is checked as
    A / frame_scale(R), which at R = 1 is A itself.  tol defaults to the
    certificate's own tolerance_used.
    """
    tol = cert.tolerance_used if tol is None else tol
    b = A.coeffs.reshape(1, 16) / frame_scale(R)
    return bool(certificates_hold(cert.weights[None], b, tol)[0])


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


# items 1-5b: each target is the one its weights rebuild, except item 4's,
# which is the noisy all-ones CSIGN output under the noise given
_FIXED_ITEMS = (
    ("1: interior all-ones block", _W_ITEM1, None),
    ("2: XX=YY=1, XY=YX=-1 block", _W_ITEM2, None),
    ("3: XY=YX=-1 block", _W_ITEM3, None),
    ("4: joint-depolarized CSIGN output at lambda=2/3", _W_ITEM4, joint_depol(2.0 / 3.0)),
    ("5a: I/Z rows of ones", _W_ITEM5A, None),
    ("5b: I/Z columns of ones", _W_ITEM5B, None),
)


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
    """The seven appendix LHV decompositions, expanded to 64-vertex weights,
    each with the target it certifies and tolerance 1e-12.

    Items 1-5b are _FIXED_ITEMS.  Items 6 and 7 are the locally dephased
    and locally depolarized all-ones CSIGN outputs, at t = 1 - 2p and
    t = 1 - p; their weights are led by 1 - 2t - t^2.  Where that head is
    below -1e-12, or p leaves the item's range ([0, 1/2] for item 6), a
    weight is negative and the item is returned flagged invalid, with the
    reason, rather than raising.  Defaults sit exactly at the two
    thresholds.
    """
    if dephase_p is None:
        dephase_p = 1.0 - 1.0 / math.sqrt(2.0)
    if depol_p is None:
        depol_p = 2.0 - math.sqrt(2.0)

    items = [Appendix1Item(name, _noisy_allones_output(noise) if noise is not None else
                           PauliCoeffs2Q((lp.vertex_product_matrix() @ w).reshape(4, 4)),
                           LhvCertificate(w, 1e-12), True)
             for name, w, noise in _FIXED_ITEMS]
    for name, noise, weights, t, law, (lo, hi) in (
        ("6: locally dephased", local_dephase(dephase_p), _item6, 1.0 - 2.0 * dephase_p,
         "1-2p", (0.0, 0.5)),
        ("7: locally depolarized", local_depol(depol_p), _item7, 1.0 - depol_p,
         "1-p", (0.0, 1.0)),
    ):
        p, head = noise.strength, _head(t)
        valid = head >= -1e-12 and lo <= p <= hi
        items.append(Appendix1Item(
            f"{name} CSIGN output at p={p:.6f}",
            _noisy_allones_output(noise),
            LhvCertificate(weights(t), 1e-12),
            valid,
            None if valid else f"requires 1-2({law})-({law})^2 >= 0; got {head:.3e}",
        ))
    return items


def appendix1_checks() -> tuple:
    """The appendix decompositions at their defaults as (label, passed,
    detail) rows, one per item number (5a and 5b share row 5): each item
    valid, its certificate rebuilding its target."""
    held = {}
    for item in appendix1_certificates():
        key = item.name.split(":")[0].rstrip("ab")
        held[key] = held.get(key, True) and item.valid and verify_certificate(
            item.certificate, item.target)
    return tuple((f"appendix certificate {key}", ok, "") for key, ok in held.items())


def _head(t: float) -> float:
    """The leading coefficient 1 - 2t - t^2 of items 6 and 7: where it is
    negative, so is a weight."""
    return 1.0 - 2.0 * t - t * t


def _item6(t: float) -> np.ndarray:
    """Weights of item 6, the locally dephased all-ones CSIGN output at
    t = 1 - 2p."""
    return _head(t) * _W_CORNERS + t * (_W_ITEM5A + _W_ITEM5B) + t * t * _W_ITEM2_PINNED


def _item7(u: float) -> np.ndarray:
    """Weights of item 7, the locally depolarized all-ones CSIGN output at
    u = 1 - p."""
    return (_head(u) * _W_MIXED + (u - u * u) * (_W_ROW_ONES + _W_COL_ONES)
            + 3.0 * u * u * _W_ITEM4)

