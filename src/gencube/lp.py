"""Membership in the 64-vertex product polytope.

The 64 products of cube vertices span the local polytope of the Bell
scenario with three settings and two outcomes per party (Collins & Gisin,
J. Phys. A 37, 1775 (2004)).  Its H-representation is 684 integer facets,
three orbits under the signed permutations of each party's settings and
the party swap: positivity, CHSH and I3322.  The signed permutations are
the cube's symmetries (spaces.CUBE_SYMMETRIES); local_images gives the
images of a matrix under all 2304 pairs of them.  Four routes use it:

* the facet test (``decide_membership``): one product with the facet
  matrix decides every point whose least facet margin is clear of the
  tolerance band; the violated facet is the separating functional;
* a float residual route on scipy's HiGHS plus a least-squares polish,
  which decides the thin band and weights its feasible verdicts;
* a Carathéodory descent on the facet table (``caratheodory_weights``),
  which weights every other feasible verdict without an LP;
* an exact route: a phase-1 simplex with Bland's rule on one integer
  tableau with fraction-free (Bareiss) pivoting, whose Farkas dual is read
  from the reduced-cost row on the artificial columns: the independent
  oracle of the tests, which the package never calls.

Every route decides the unit polytope.  A state space rescaled by R scales
the vertex products by D = frame_scale(R), so its polytope is D P(1), and a
point b of that frame is asked as D^-1 b (spaces.rescale2(A, 1 / R)).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .pauli import product_rows
from .spaces import CUBE_SIGNS, CUBE_SYMMETRIES, frame_scale

__all__ = [
    "FEASIBILITY_TOL",
    "FACET_REPRESENTATIVES",
    "vertex_product_matrix",
    "exact_vertex_columns",
    "rationalize",
    "local_images",
    "facet_orbit",
    "facet_table",
    "facet_values",
    "positivity_values",
    "facet_margins",
    "Decision",
    "decide_membership",
    "caratheodory_weights",
    "FloatLpOutcome",
    "solve_membership_float",
    "solve_membership_exact",
]

FEASIBILITY_TOL = 1e-9      # equality residual defining Feasible

_S = CUBE_SIGNS.astype(float)
# 16 x 64: column 8i + j is the product of vertices i and j, kept in C order
_VMAT_UNIT = np.ascontiguousarray(product_rows(np.repeat(_S, 8, axis=0), np.tile(_S, (8, 1))).T)


def vertex_product_matrix(R: float = 1.0) -> np.ndarray:
    """16 x 64 matrix whose columns are products of R-scaled cube vertices."""
    if R == 1.0:
        return _VMAT_UNIT
    return _VMAT_UNIT * frame_scale(R)[:, None]


def exact_vertex_columns() -> list[list[Fraction]]:
    """The 64 unit-frame columns with exact rational entries."""
    return [[Fraction(int(v)) for v in col] for col in _VMAT_UNIT.T]


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


# The cube's symmetries on one party's coefficient index, 4 x 4 integer
# matrices g with g (1, s) = (1, M s), M in CUBE_SYMMETRIES
_LOCAL_MAPS = np.zeros((48, 4, 4), dtype=np.int64)
_LOCAL_MAPS[:, 0, 0] = 1
_LOCAL_MAPS[:, 1:, 1:] = CUBE_SYMMETRIES


def local_images(A: np.ndarray) -> np.ndarray:
    """g A h^T for every pair (g, h) of the cube's symmetries acting on
    each party, which map the product polytope onto itself: row 48 a + b of
    the 2304 x 16 result is the flattened image under (g_a, g_b)."""
    return np.einsum("aij,jk,blk->abil", _LOCAL_MAPS, A, _LOCAL_MAPS,
                     optimize=True).reshape(48 * 48, 16)


def facet_orbit(rep) -> np.ndarray:
    """Distinct images of a 4 x 4 facet under the symmetry group of order
    4608 (a signed setting permutation on each party, and the party swap),
    as sorted rows of 16 integers."""
    images = local_images(np.asarray(rep, dtype=np.int64)).reshape(-1, 4, 4)
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


# the positivity orbit leads facet_table()
_POSITIVITY_ROWS = 36


@functools.cache
def _facet_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The facet table in floats, 1 / |f|_1 per row, and the 684 x 64
    integer table f . V_j of every facet on every vertex."""
    F = facet_table().astype(float)
    return F, 1.0 / np.abs(F).sum(axis=1), facet_table() @ _VMAT_UNIT.astype(np.int64)


@dataclass(frozen=True)
class Decision:
    """A membership verdict and the facet that sets its margin."""

    feasible: bool
    facet: int                  # row of facet_table() with the least margin
    margin: float               # f . b / |f|_1 on that row
    route: str                  # "facet" | "lp-float"
    weights: np.ndarray | None = None   # residual-route weights (band, feasible)
    residual: float | None = None       # polished HiGHS residual (band, when HiGHS gave weights)


def facet_values(b: np.ndarray) -> np.ndarray:
    """f . b for every facet f.  The 36 positivity rows are four times the
    Pauli-pair Born probabilities.  An (N, 16) stack b gives an (N, 684)
    array."""
    return (_facet_arrays()[0] @ b.T).T


def positivity_values(b: np.ndarray) -> np.ndarray:
    """The 36 positivity columns of facet_values, from those rows
    of the facet table alone."""
    return (_facet_arrays()[0][:_POSITIVITY_ROWS] @ b.T).T


def facet_margins(b: np.ndarray) -> np.ndarray:
    """The facet values of b normalized per facet, f . b / |f|_1 (see
    decide_membership); an (N, 16) stack b gives an (N, 684) array."""
    return facet_values(b) * _facet_arrays()[1]


def decide_membership(b: np.ndarray) -> Decision:
    """Decide membership of the coefficient vector b in the unit polytope.

    With m the least facet margin f . b / |f|_1 (facet_margins) and tol
    FEASIBILITY_TOL:

    * m < -tol: infeasible.  Any convex weights w have |Vw - b|_inf >=
      -f.b / |f|_1 > tol, and f . V_j >= 0 holds exactly on every column;
    * m >= 0, i.e. every facet value >= 0: feasible;
    * otherwise (the thin band between): feasible iff HiGHS succeeds under
      its primal_feasibility_tolerance of 1e-10, which sets the cut, and its
      weights, polished on their support, then reproduce b within tol.
      The verdict carries that polished residual whenever HiGHS gave weights.
    """
    margins = facet_margins(b)
    k = int(np.argmin(margins))
    margin = float(margins[k])
    if margin < -FEASIBILITY_TOL:
        return Decision(False, k, margin, "facet")
    if margin >= 0.0:
        return Decision(True, k, margin, "facet")
    out = solve_membership_float(b)
    return Decision(out.status == "feasible", k, margin, "lp-float", out.weights, out.residual)


def caratheodory_weights(b: np.ndarray) -> np.ndarray:
    """Convex weights over the 64 vertex products for a b with no facet value
    below -1e-12 |f|_1, by Carathéodory's theorem made constructive (Grötschel,
    Lovász & Schrijver, Geometric Algorithms and Combinatorial Optimization).

    The vertices with f . V_j = 0 on every active facet (value <= 1e-12 |f|_1
    at x) span the face of x.  If they are affinely independent, x is solved
    on them by least squares.  Otherwise the one with the largest v . x takes
    weight t / (1 + t) of the mass left, and x moves to the exit x + t (x - v)
    of the ray from v through x (as in constructions.separable_ball_radius),
    on a lower face.  At most 16 vertices enter.
    """
    F, inv_norm, T = _facet_arrays()
    x, w, mass = b, np.zeros(64), 1.0
    if np.min(F @ x * inv_norm) < -1e-12:
        raise ValueError("b lies outside the polytope")
    for _ in range(16):
        values = F @ x
        active = values * inv_norm <= 1e-12
        cand = np.flatnonzero(~T[active].any(axis=0))
        if cand.size == 0:
            raise ArithmeticError("no vertex on the active face: the facet table misses a facet")
        C = _VMAT_UNIT[:, cand]
        if np.linalg.matrix_rank(C) == cand.size:
            w[cand] += mass * np.clip(np.linalg.lstsq(C, x, rcond=None)[0], 0.0, None)
            return w
        j = cand[np.argmax(x @ C)]
        d = x - _VMAT_UNIT[:, j]
        slopes = F @ d
        exits = ~active & (slopes < 0.0)
        t = float(np.min(values[exits] / -slopes[exits]))
        w[j] += mass * t / (1.0 + t)
        mass /= 1.0 + t
        x = x + t * d
    raise ArithmeticError("descent did not reach a simplex face in 16 steps")


# ---------------------------------------------------------------------------
# Float residual route
# ---------------------------------------------------------------------------


@dataclass
class FloatLpOutcome:
    status: str  # "feasible" | "infeasible"
    weights: np.ndarray | None = None   # feasible outcomes only
    residual: float | None = None       # whenever HiGHS gave weights


_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first solve: scipy.optimize
    is most of the package's import time, and only the HiGHS route needs it."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


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


def solve_membership_float(b: np.ndarray) -> FloatLpOutcome:
    """The residual route: HiGHS primal weights, polished on their support.

    Feasible iff the polished equality residual is <= FEASIBILITY_TOL;
    feasible outcomes carry the weights, and every outcome for which HiGHS
    gave weights carries their polished residual.
    """
    res = linprog(np.zeros(64), A_eq=_VMAT_UNIT, b_eq=b, bounds=(0, None), method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status == 0 and res.x is not None:
        w, resid = polish_weights(_VMAT_UNIT, b, np.clip(res.x, 0.0, None))
        if resid <= FEASIBILITY_TOL:
            return FloatLpOutcome("feasible", weights=w, residual=resid)
        return FloatLpOutcome("infeasible", residual=resid)
    return FloatLpOutcome("infeasible")


# ---------------------------------------------------------------------------
# Exact route
# ---------------------------------------------------------------------------


# the 16 rows of the vertex-product matrix as Python integers
_VERTEX_ROWS = tuple(tuple(int(v) for v in row) for row in _VMAT_UNIT)


def solve_membership_exact(b: list[Fraction]):
    """Exact membership test: phase-1 simplex with Bland's rule.

    Returns ("feasible", weights) with exact convex weights, or
    ("infeasible", y) with an exact Farkas functional satisfying
    y . V_j >= 0 for every vertex-product column and y . b < 0.

    The tableau is one integer matrix, pivoted fraction-free (Bareiss,
    Math. Comp. 22 (1968)): rows i != l become (T_i piv - T_ie T_l) / prev,
    an exact division, so T is det(B) B^-1 [A | rhs] with det(B) > 0.  The
    system is V w' + a = D b with w = w' / D, D the common denominator of b;
    scaling the right-hand side by one positive D keeps Bland's path, so the
    bases, weights and functional are the Fraction simplex's.
    The last row holds the phase-1 reduced costs; on an artificial column it
    reads det(B) (1 - y_k), which gives the Farkas functional.
    """
    if len(b) != 16:
        raise ValueError("b must have 16 coefficients")
    b = [Fraction(x) for x in b]
    V = _VERTEX_ROWS
    D = math.lcm(*(x.denominator for x in b))
    m, n = 16, 64
    flip = [-1 if x < 0 else 1 for x in b]
    # flipped constraint rows, artificial columns, then the right-hand side
    T = [[flip[i] * v for v in V[i]] + [int(k == i) for k in range(m)]
         + [flip[i] * b[i].numerator * (D // b[i].denominator)] for i in range(m)]
    # phase-1 reduced costs: artificials cost 1
    T.append([-sum(c) for c in zip(*T)])
    T[m][n:n + m] = [0] * m
    r = T[m]
    basis = list(range(n, n + m))
    ncols = n + m
    prev = 1
    for _ in range(20000):
        enter = next((j for j in range(ncols) if r[j] < 0), None)
        if enter is None:
            break
        # ratio test rhs_i / T_ie by cross-multiplication, ties to the
        # smaller basic index
        leave = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                c = T[i][-1] * T[leave][enter] - T[leave][-1] * a
                if c < 0 or (c == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 unbounded (cannot happen)")
        P = T[leave]
        piv = P[enter]
        for i in range(m + 1):
            if i != leave:
                f = T[i][enter]
                if f:
                    T[i] = [(x * piv - f * p) // prev for x, p in zip(T[i], P)]
                elif piv != prev:
                    T[i] = [x * piv // prev for x in T[i]]
        r = T[m]
        prev = piv
        basis[leave] = enter
    else:
        raise ArithmeticError("simplex iteration limit exceeded")
    if sum(T[i][-1] for i in range(m) if basis[i] >= n) == 0:
        w = [Fraction(0)] * n
        for i, j in enumerate(basis):
            if j < n:
                w[j] = Fraction(T[i][-1], prev * D)
        return "feasible", w
    # y = c_B B^-1 on the flipped rows has y_k = 1 - r_(n+k) / det(B); the
    # functional is -y with the flips undone
    return "infeasible", [(Fraction(r[n + k], prev) - 1) * flip[k] for k in range(m)]
