"""Membership in the 64-vertex product polytope.

The 64 products of cube vertices span the local polytope of the Bell
scenario with three settings and two outcomes per party (Collins & Gisin,
J. Phys. A 37, 1775 (2004)).  Its H-representation is 684 integer facets,
three orbits under the signed permutations of each party's settings and
the party swap: positivity, CHSH and I3322.  Three routes use it:

* the facet test (``decide_membership``): one product with the facet
  matrix decides every point whose least facet margin is clear of the
  tolerance band; the violated facet is the separating functional;
* a float residual route on scipy's HiGHS plus a least-squares polish,
  which decides the thin band and supplies primal LHV weights;
* an exact route: a dense phase-1 simplex with Bland's rule over Fraction
  arithmetic, whose Farkas dual is recovered by an exact basis solve.  It
  backs the weights where the polish misses and is the independent oracle
  in the soundness tests.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .pauli import product_rows
from .spaces import frame_scale

__all__ = [
    "FEASIBILITY_TOL",
    "FACET_REPRESENTATIVES",
    "vertex_product_matrix",
    "exact_vertex_columns",
    "rationalize",
    "facet_orbit",
    "facet_table",
    "facet_functional",
    "facet_values",
    "facet_margins",
    "Decision",
    "decide_membership",
    "FloatLpOutcome",
    "solve_membership_float",
    "solve_membership_exact",
]

FEASIBILITY_TOL = 1e-9      # equality residual defining Feasible

_SIGNS = tuple(itertools.product((1, -1), repeat=3))
_S = np.array(_SIGNS, dtype=float)
# 16 x 64: column 8i + j is the product of vertices i and j, kept in C order
_VMAT_UNIT = np.ascontiguousarray(product_rows(np.repeat(_S, 8, axis=0), np.tile(_S, (8, 1))).T)


def vertex_product_matrix(R: float = 1.0) -> np.ndarray:
    """16 x 64 matrix whose columns are products of R-scaled cube vertices."""
    if R == 1.0:
        return _VMAT_UNIT
    return _VMAT_UNIT * frame_scale(R)[:, None]


def exact_vertex_columns(R: Fraction = Fraction(1)) -> list[list[Fraction]]:
    """The same 64 columns with exact rational entries."""
    f = [Fraction(1), R, R, R]
    scale = [f[i] * f[j] for i in range(4) for j in range(4)]
    cols = []
    for u in _SIGNS:
        for v in _SIGNS:
            a = (Fraction(1), Fraction(u[0]), Fraction(u[1]), Fraction(u[2]))
            b = (Fraction(1), Fraction(v[0]), Fraction(v[1]), Fraction(v[2]))
            col = [a[i] * b[j] * scale[4 * i + j] for i in range(4) for j in range(4)]
            cols.append(col)
    return cols


def rationalize(x: float, max_den: int = 10 ** 6) -> Fraction:
    return Fraction(x).limit_denominator(max_den)


# ---------------------------------------------------------------------------
# Facets of the unit polytope
# ---------------------------------------------------------------------------

# One facet per orbit; entry [i, j] multiplies A.coeffs[i, j], index 0 being
# the identity.  The facet reads f . A >= 0 on the polytope.
FACET_REPRESENTATIVES = (
    ("positivity", ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))),
    ("chsh", ((2, 0, 0, 0), (0, -1, -1, 0), (0, -1, 1, 0), (0, 0, 0, 0))),
    ("i3322", ((4, 1, 1, 0), (-1, -1, -1, -1), (-1, -1, -1, 1), (0, -1, 1, 0))),
)


def _signed_permutations() -> np.ndarray:
    """The 48 maps of one party's coefficient index that fix the identity
    and permute the three settings with signs, as 4 x 4 integer matrices."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in _SIGNS:
            M = np.zeros((4, 4), dtype=np.int64)
            M[0, 0] = 1
            for i, (j, s) in enumerate(zip(perm, signs)):
                M[1 + i, 1 + j] = s
            mats.append(M)
    return np.array(mats)


def facet_orbit(rep) -> np.ndarray:
    """Distinct images of a 4 x 4 facet under the symmetry group of order
    4608 (a signed setting permutation on each party, and the party swap),
    as sorted rows of 16 integers."""
    G = _signed_permutations()
    F = np.asarray(rep, dtype=np.int64)
    images = np.einsum("aij,jk,blk->abil", G, F, G).reshape(-1, 4, 4)
    images = np.concatenate([images, images.transpose(0, 2, 1)])
    return np.unique(images.reshape(-1, 16), axis=0)


@functools.cache
def facet_table() -> np.ndarray:
    """The 684 x 16 integer facet table, orbit by orbit in the order of
    FACET_REPRESENTATIVES (36 positivity, 72 CHSH, 576 I3322 rows).

    Built on first use; the returned array is read-only.
    """
    F = np.concatenate([facet_orbit(rep) for _, rep in FACET_REPRESENTATIVES])
    F.setflags(write=False)
    return F


def facet_functional(k: int, R: float = 1.0) -> np.ndarray:
    """Row k of the facet table as a functional y on R-frame coefficients:
    y = D^-1 f, so that y . V_j(R) = f . V_j(1) >= 0 on every column."""
    f = facet_table()[k]
    return f / (1.0 if R == 1.0 else frame_scale(R))


@functools.cache
def _facet_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The facet table in floats, its absolute values, and 1 / |f|_1 per row."""
    F = facet_table().astype(float)
    absF = np.abs(F)
    return F, absF, 1.0 / absF.sum(axis=1)


@dataclass(frozen=True)
class Decision:
    """A membership verdict and the facet that sets its margin."""

    feasible: bool
    facet: int                  # row of facet_table() with the least margin
    margin: float               # y . b / |y|_1 on that row, y = D^-1 f
    route: str                  # "facet" | "lp-float"
    weights: np.ndarray | None = None   # residual-route weights (band, feasible)


def facet_values(b: np.ndarray, R: float = 1.0) -> np.ndarray:
    """f . D^-1 b for every facet f: the facet values of b read in the unit
    frame.  The 36 positivity rows are four times the Pauli-pair Born
    probabilities there.  An (N, 16) stack b gives an (N, 684) array."""
    F = _facet_arrays()[0]
    return (F @ (b if R == 1.0 else b * (1.0 / frame_scale(R))).T).T


def facet_margins(b: np.ndarray, R: float = 1.0) -> np.ndarray:
    """The facet values of b normalized per facet, y . b / |y|_1 with
    y = D^-1 f (see facet_functional and decide_membership); an (N, 16)
    stack b gives an (N, 684) array."""
    _, absF, inv_norm = _facet_arrays()
    if R != 1.0:
        inv_norm = 1.0 / (absF @ (1.0 / frame_scale(R)))
    return facet_values(b, R) * inv_norm


def decide_membership(b: np.ndarray, R: float = 1.0,
                      tol: float = FEASIBILITY_TOL) -> Decision:
    """Decide membership of the coefficient vector b in the R-scaled polytope.

    With m the least facet margin y . b / |y|_1, y = D^-1 f (facet_margins):

    * m < -tol: infeasible.  Any convex weights w have |Vw - b|_inf >=
      -y.b / |y|_1 > tol, and f . V_j >= 0 holds exactly on every column;
    * m >= 0, i.e. every facet value >= 0: feasible;
    * otherwise (the thin band between): feasible iff the HiGHS residual
      route reaches a residual <= tol.
    """
    margins = facet_margins(b, R)
    k = int(np.argmin(margins))
    margin = float(margins[k])
    if margin < -tol:
        return Decision(False, k, margin, "facet")
    if margin >= 0.0:
        return Decision(True, k, margin, "facet")
    out = solve_membership_float(b, R, tol)
    return Decision(out.status == "feasible", k, margin, "lp-float", out.weights)


# ---------------------------------------------------------------------------
# Float residual route
# ---------------------------------------------------------------------------


@dataclass
class FloatLpOutcome:
    status: str  # "feasible" | "infeasible"
    weights: np.ndarray | None = None
    residual: float | None = None


_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def polish_weights(V: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Refine a near-feasible weight vector on its support.

    Solves the equality system restricted to the active columns by least
    squares and clips stray negatives; returns (weights, max residual).
    """
    support = np.nonzero(w > 1e-11)[0]
    if support.size:
        x, *_ = np.linalg.lstsq(V[:, support], b, rcond=None)
        if np.min(x) > -1e-10:
            w2 = np.zeros(64)
            w2[support] = np.clip(x, 0.0, None)
            r2 = float(np.max(np.abs(V @ w2 - b)))
            if r2 < float(np.max(np.abs(V @ w - b))):
                return w2, r2
    return w, float(np.max(np.abs(V @ w - b)))


def solve_membership_float(b: np.ndarray, R: float = 1.0,
                           tol: float = FEASIBILITY_TOL) -> FloatLpOutcome:
    """The residual route: HiGHS primal weights, polished on their support.

    Feasible iff the polished equality residual is <= tol; feasible
    outcomes carry the weights and their residual.
    """
    V = vertex_product_matrix(R)
    res = linprog(np.zeros(64), A_eq=V, b_eq=b, bounds=(0, None), method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status == 0 and res.x is not None:
        w, resid = polish_weights(V, b, np.clip(res.x, 0.0, None))
        if resid <= tol:
            return FloatLpOutcome("feasible", weights=w, residual=resid)
    return FloatLpOutcome("infeasible")


# ---------------------------------------------------------------------------
# Exact route
# ---------------------------------------------------------------------------


def _solve_exact_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan solve of a square exact system."""
    m = len(rhs)
    A = [rows[i][:] + [rhs[i]] for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if A[r][col] != 0), None)
        if piv is None:
            raise ArithmeticError("singular basis in exact dual solve")
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(m):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * c for a, c in zip(A[r], A[col])]
    return [A[i][m] for i in range(m)]


def solve_membership_exact(b: list[Fraction], R: Fraction = Fraction(1)):
    """Exact membership test: phase-1 simplex with Bland's rule.

    Returns ("feasible", weights) with exact convex weights, or
    ("infeasible", y) with an exact Farkas functional satisfying
    y . V_j >= 0 for every vertex-product column and y . b < 0.
    """
    cols = exact_vertex_columns(R)
    m, n = 16, 64
    flip = [-1 if b[i] < 0 else 1 for i in range(m)]
    # flipped constraint columns, artificials appended
    fcols = [[flip[i] * col[i] for i in range(m)] for col in cols]
    fcols += [[Fraction(1) if i == k else Fraction(0) for i in range(m)] for k in range(m)]
    T = [[fcols[j][i] for j in range(n + m)] for i in range(m)]
    rhs = [flip[i] * b[i] for i in range(m)]
    basis = list(range(n, n + m))
    # phase-1 reduced costs: artificials cost 1
    r = [-sum(T[i][j] for i in range(m)) for j in range(n)] + [Fraction(0)] * m
    ncols = n + m
    for _ in range(20000):
        enter = next((j for j in range(ncols) if r[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = rhs[i] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("phase-1 unbounded (cannot happen)")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * c for a, c in zip(T[i], T[leave])]
                rhs[i] -= f * rhs[leave]
        f = r[enter]
        r = [a - f * c for a, c in zip(r, T[leave])]
        basis[leave] = enter
    else:
        raise ArithmeticError("simplex iteration limit exceeded")
    artificial_mass = sum(rhs[i] for i in range(m) if basis[i] >= n)
    if artificial_mass == 0:
        w = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                w[bi] = rhs[i]
        return "feasible", w
    # Farkas dual from the final basis: solve B^T y = c_B exactly
    bt_rows = [[fcols[basis[j]][i] for i in range(m)] for j in range(m)]
    c_b = [Fraction(1) if basis[j] >= n else Fraction(0) for j in range(m)]
    y = _solve_exact_linear(bt_rows, c_b)
    y_final = [-(y[i] * flip[i]) for i in range(m)]
    return "infeasible", y_final
