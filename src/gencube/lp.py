"""Membership in the 64-vertex product polytope.

The 64 products of cube vertices span the local polytope of the Bell
scenario with three settings and two outcomes per party (Collins & Gisin,
J. Phys. A 37, 1775 (2004)).  Its H-representation is 684 integer facets,
three orbits under the signed permutations of each party's settings and
the party swap: positivity, CHSH and I3322.  The signed permutations are
the cube's symmetries (spaces.CUBE_SYMMETRIES); local_images gives the
images of a matrix under all 2304 pairs of them.  Three routes use it:

* the facet test (``decide_membership``): one product with the facet
  matrix decides every point, feasible iff mixing it with white noise of
  weight at most FEASIBILITY_TOL puts it in the polytope; a refused point
  violates its least facet exactly, and that facet is the separating
  functional;
* a Carathéodory descent on the facet table (``caratheodory_weights``),
  which weights every feasible verdict without an LP.  Its faces are
  64-bit masks of vertex products, cut by the mask of each facet a step
  reaches (bit j set where vertex product j lies on the facet), and
  whether a face is affinely independent is remembered per mask;
* an exact route (``solve_membership_exact``): a certificate search whose
  every answer is checked in integers.  A violated facet, flagged by the
  float margins and confirmed exactly, refutes a point; weights solved by
  fraction-free elimination on the descent's support accept it (the
  elimination of a support's columns is recorded once, and replayed on
  each right-hand side), and a rounded point a hair off a face is weighted
  through the point moved further off the face along its residual.  Any
  other point goes to the fallback, a phase-1 simplex with Bland's rule on
  one integer tableau with fraction-free (Bareiss) pivoting, whose Farkas
  dual is read from the reduced-cost row on the artificial columns.  The
  route is the exact oracle of the tests and the bench, which the package
  never calls.

What is remembered sits in two bounded least-recently-used caches, filled
on first use and depending on the vertex products alone, not on the facet
table: at most _FACE_CACHE face masks (about 130 B each, 0.13 MB in all)
and _SUPPORT_CACHE elimination records (at most about 10 kB each, 0.64 MB
in all).

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
from .spaces import CUBE_SIGNS, CUBE_SYMMETRIES

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
    "solve_membership_exact",
]

FEASIBILITY_TOL = 1e-9      # white-noise weight a feasible point may need; bounds its residual

_S = CUBE_SIGNS.astype(float)
# 16 x 64: column 8i + j is the product of vertices i and j, kept in C order
_VMAT_UNIT = np.ascontiguousarray(product_rows(np.repeat(_S, 8, axis=0), np.tile(_S, (8, 1))).T)
_VMAT_UNIT.setflags(write=False)


def vertex_product_matrix() -> np.ndarray:
    """16 x 64 read-only matrix whose columns are the products of unit cube vertices."""
    return _VMAT_UNIT


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


# bit offsets of a row's 16 entries in its packed key, the first entry highest
_KEY_SHIFTS = np.arange(60, -4, -4, dtype=np.uint64)


def facet_orbit(rep) -> np.ndarray:
    """Distinct images of a 4 x 4 facet under the symmetry group of order
    4608 (a signed setting permutation on each party, and the party swap),
    as sorted rows of 16 integers.

    Each image row is packed into one uint64 key, 4 bits an entry offset by
    8, so entries must lie in [-8, 7] (the facets' lie in [-4, 4]).  The
    keys sort as the rows do, so the distinct rows are the sorted keys'
    run starts, decoded; np.unique would import numpy.ma on first use."""
    images = local_images(np.asarray(rep, dtype=np.int64)).reshape(-1, 4, 4)
    images = np.concatenate([images, images.transpose(0, 2, 1)]).reshape(-1, 16)
    if images.min() < -8 or images.max() > 7:
        raise ValueError("facet entries must lie in [-8, 7]")
    keys = np.sort(np.bitwise_or.reduce((images + 8).astype(np.uint64) << _KEY_SHIFTS, axis=1))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return ((keys[:, None] >> _KEY_SHIFTS) & 15).astype(np.int64) - 8


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


# bit j of a face mask is vertex product j (column j of the vertex-product matrix)
_ALL_VERTICES = (1 << 64) - 1


@functools.cache
def _facet_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The facet table in floats, 1 / f_0 per row (f_0 its identity entry,
    the facet's value at the maximally mixed point e_0), the 64 x 684
    integer table V_j . f of every vertex on every facet (row j holds
    vertex j), and per facet the uint64 mask of the vertices on it
    (V_j . f = 0 sets bit j)."""
    F = facet_table().astype(float)
    T = _VMAT_UNIT.T.astype(np.int64) @ facet_table().T
    # byte i of a mask holds vertices 8i .. 8i + 7, least significant first
    masks = np.packbits(T == 0, axis=0, bitorder="little").T.copy().view("<u8").ravel()
    return F, 1.0 / F[:, 0], T, masks


@dataclass(frozen=True)
class Decision:
    """A membership verdict and the facet that sets its margin."""

    feasible: bool
    facet: int                  # row of facet_table() with the least margin
    margin: float               # f . b / f_0 on that row
    route: str                  # "facet" | "mixed" (feasible with margin < 0)


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
    """The facet values of b normalized per facet, f . b / f_0 (see
    decide_membership); an (N, 16) stack b gives an (N, 684) array.  The
    least of them is -mu exactly when (b + mu e_0) / (1 + mu), b mixed with
    white noise of weight mu / (1 + mu), lies on the polytope's boundary."""
    return facet_values(b) * _facet_arrays()[1]


def decide_membership(b: np.ndarray) -> Decision:
    """Decide membership of the coefficient vector b in the unit polytope.

    With m the least facet margin f . b / f_0 (facet_margins), b is feasible
    iff m >= -FEASIBILITY_TOL: iff mixing b with white noise of weight at
    most tol makes it cube-separable.  The rule reads the facet values
    alone, which the cube's symmetries and the party swap permute, so every
    image of b gets the same verdict.

    * m < -tol: infeasible, exactly: f . b < -tol f_0 < 0 on the facet, and
      f . V_j >= 0 holds exactly on every column;
    * m >= 0: feasible, route "facet";
    * -tol <= m < 0: feasible, route "mixed".  caratheodory_weights weights
      the mix x = (b - m e_0) / (1 - m), which lies in the polytope, and
      |x - b|_inf <= -m <= tol, so the weights reproduce b within tol.
    """
    margins = facet_margins(b)
    k = int(np.argmin(margins))
    margin = float(margins[k])
    feasible = margin >= -FEASIBILITY_TOL
    return Decision(feasible, k, margin, "mixed" if feasible and margin < 0.0 else "facet")


def caratheodory_weights(b: np.ndarray) -> np.ndarray:
    """Convex weights over the 64 vertex products for a b that
    decide_membership accepts, by Carathéodory's theorem made constructive
    (Grötschel, Lovász & Schrijver, Geometric Algorithms and Combinatorial
    Optimization).  A b with least margin m < 0 is replaced by its mix
    x = (b - m e_0) / (1 - m), on which every facet value is >= 0.  A b
    with a NaN or infinite entry is refused before any arithmetic.

    The descent keeps the vertices of a face that holds x, all 64 at the
    start, as a 64-bit mask.  While they are affinely dependent, the one
    with the largest v . x takes weight t / (1 + t) of the mass left, and x
    moves to the exit x + t (x - v) of the ray from v through x, over the
    facets that do not hold v; every vertex off a facet the step reaches
    (ratio equal to t) is dropped, by AND-ing the face with each reached
    facet's vertex mask.  The face left is a proper face of the last, so
    there are at most 15 steps and at most 16 vertices enter.  An affinely
    independent set is solved by least squares; when no facet exits, x is v
    and the mass left goes to v.  Whether a face of at most 16 vertices is
    affinely independent depends on its mask alone, and is remembered for
    the last _FACE_CACHE masks asked (_independent_face).
    """
    if not np.isfinite(b).all():
        raise ValueError("b must be finite")
    return _descent(b, _facet_arrays()[0] @ b)


def _descent(b: np.ndarray, Fb: np.ndarray) -> np.ndarray:
    """caratheodory_weights of a finite b whose facet values F b are Fb."""
    F, inv_f0, T, masks = _facet_arrays()
    m = float((Fb * inv_f0).min())
    if m < -FEASIBILITY_TOL:
        raise ValueError("b lies outside the polytope")
    x = b if m >= 0.0 else (b - m * np.eye(16)[0]) / (1.0 - m)
    Fx = Fb if m >= 0.0 else None     # F x, when it is known
    w, mass = np.zeros(64), 1.0
    face, cand = _ALL_VERTICES, np.arange(64)
    while True:
        C = _VMAT_UNIT[:, cand]
        if cand.size <= 16 and _independent_face(face):
            w[cand] += mass * np.clip(np.linalg.lstsq(C, x, rcond=None)[0], 0.0, None)
            return w
        j = cand[np.argmax(x @ C)]
        # rounding can leave x a few ulps outside a facet it lies on
        values = np.maximum(F @ x if Fx is None else Fx, 0.0)
        Tj = T[j]
        exits = values < Tj
        if not exits.any():
            w[j] += mass
            return w
        ratios = values[exits] / (Tj[exits] - values[exits])
        t = float(ratios.min())
        reached = np.flatnonzero(exits)[ratios == t]
        for k in masks[reached].tolist():
            face &= k
        cand = _face_columns(face)
        w[j] += mass * t / (1.0 + t)
        mass /= 1.0 + t
        x = x + t * (x - _VMAT_UNIT[:, j])
        Fx = None


# faces of at most 16 vertices whose independence _independent_face keeps;
# an entry, a Python int key and a bool with the cache's own bookkeeping,
# takes about 130 B, so the cache stays near 0.13 MB
_FACE_CACHE = 1024


def _face_columns(face: int) -> np.ndarray:
    """The vertex products in the face mask, ascending (an empty face gives
    an empty integer index)."""
    bits = np.unpackbits(np.array([face], dtype="<u8").view(np.uint8), bitorder="little")
    return np.flatnonzero(bits)


@functools.lru_cache(maxsize=_FACE_CACHE)
def _independent_face(face: int) -> bool:
    """Whether the vertex products in the face mask are linearly
    independent, so affinely independent as points of the plane b_0 = 1."""
    cols = _face_columns(face)
    return bool(np.linalg.matrix_rank(_VMAT_UNIT[:, cols]) == cols.size)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call, so it needs the
    test extra (scipy).  No package code calls it: the benchmark's tracer
    (bench/spans.py) wraps it by this name, and goes with it once the
    benchmark reads the package's own counters."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


# ---------------------------------------------------------------------------
# Exact route
# ---------------------------------------------------------------------------


# the 16 rows of the vertex-product matrix as Python integers
_VERTEX_ROWS = tuple(tuple(int(v) for v in row) for row in _VMAT_UNIT)

# facet rows whose float margin is at most this are evaluated exactly.  A
# violated row it leaves out only sends the point on to the tableau, so it
# sets the speed of solve_membership_exact, never its verdict
_EXACT_SCREEN = 1e-9

# bits per digit of the exact facet values (_exact_facet_values)
_DIGIT_BITS = 48

# _weights_past_support drops descent weights below this share of their sum
# as rounding noise, and moves the point 2^-_PAST_BITS off the face the rest
# span, well inside the margin those weights leave
_PAST_FLOOR = 2.0 ** -16
_PAST_BITS = 24


def solve_membership_exact(b: list[Fraction]):
    """Exact membership of the rational vector b in the cone of the 64
    vertex products (the unit polytope where b_0 = 1), by a certificate
    search whose every answer is checked in integers.

    Returns ("feasible", weights) with exact weights w >= 0, V w = b, or
    ("infeasible", y) with an exact functional satisfying y . V_j >= 0 for
    every vertex-product column and y . b < 0.  With D the common
    denominator of b, and D b in Python integers:

    * infeasible: the facet rows whose float margin (facet_margins of b
      scaled to max |b_i| = 1, in floats) is at most _EXACT_SCREEN are
      evaluated on D b exactly; when one is negative, y is the facet with
      the least exact f . b / f_0, ties going to the first row as in
      decide_membership, once f . V_j >= 0 is checked on every column;
    * feasible: otherwise the support S (at most 16 columns) of
      caratheodory_weights of that float vector is solved, V_S w = D b, by
      fraction-free elimination, replayed on D b from the record of V_S's
      elimination that the last _SUPPORT_CACHE supports keep
      (_weights_on_support); a consistent system with w >= 0 gives the
      weights w / D;
    * feasible, a hair off a face: where that system has no such w, the
      point moved off the face along its residual is weighted on its own
      support, and the weights are mixed back (_weights_past_support).

    An entry of b that is already a Fraction is used as it is.  Any other
    point, and any point the descent refuses, goes to the phase-1 tableau
    (_bland_phase1).  A point outside the polytope has no
    weights w >= 0, and a point inside violates no valid facet, so a facet
    missing from the table, or a float step gone wrong, only sends a point
    to the tableau: the verdict is exact either way.
    """
    if len(b) != 16:
        raise ValueError("b must have 16 coefficients")
    b = [x if isinstance(x, Fraction) else Fraction(x) for x in b]
    D = math.lcm(*(x.denominator for x in b))
    Db = [x.numerator * (D // x.denominator) for x in b]
    # b / max |b_i| in floats, finite for any b; the cone is scale-free
    scale = max(map(abs, Db)) or 1
    bf = np.array([x / scale for x in Db])
    Fb = _facet_arrays()[0] @ bf
    rows = np.flatnonzero(Fb * _facet_arrays()[1] <= _EXACT_SCREEN)
    if rows.size:
        F = facet_table()[rows]
        # each row times lcm(f_0) / f_0: the least value is the least f . b / f_0
        F = F * (np.lcm.reduce(F[:, 0]) // F[:, 0])[:, None]
        digits = _exact_facet_values(F, Db)
        least = int(np.lexsort(digits.T)[0])
        if digits[least, -1] < 0:
            k = int(rows[least])
            if (_facet_arrays()[2][:, k] >= 0).all():
                return "infeasible", [Fraction(int(v)) for v in facet_table()[k]]
            return _bland_phase1(b)
    try:
        w = _descent(bf, Fb)
    except ValueError:
        return _bland_phase1(b)
    weights = _weights_on_support(np.flatnonzero(w).tolist(), Db, D)
    if weights is None:
        weights = _weights_past_support(w, Db, D, scale)
    return ("feasible", weights) if weights is not None else _bland_phase1(b)


def _exact_facet_values(F: np.ndarray, Db: list[int]) -> np.ndarray:
    """f . Db for every row f of the integer array F, exact in int64, as
    base-2^_DIGIT_BITS digits: row k holds f_k . Db least significant digit
    first, every digit but the last in [0, 2^_DIGIT_BITS) and the last
    signed.  A value is negative iff its last digit is, and the values order
    as their rows do read from the last digit (np.lexsort of the transpose).
    No sum leaves int64 while every row's entries sum in absolute value to
    at most 2^14."""
    top = max(x.bit_length() for x in Db) // _DIGIT_BITS
    mask = (1 << _DIGIT_BITS) - 1
    digits = np.array([[(x >> (_DIGIT_BITS * i)) & mask for i in range(top)]
                       + [x >> (_DIGIT_BITS * top)] for x in Db], dtype=np.int64)
    out = F @ digits
    for i in range(top):
        carry = out[:, i] >> _DIGIT_BITS
        out[:, i] -= carry << _DIGIT_BITS
        out[:, i + 1] += carry
    return out


def _weights_on_support(cols: list[int], Db: list[int], D: int) -> list[Fraction] | None:
    """The 64 weights w / D with V_S w = Db on the columns S = cols and w >= 0,
    zero off S, or None where that system is inconsistent or a weight is
    negative.

    Fraction-free Gauss-Jordan elimination (Bareiss) of [V_S | Db] in Python
    integers, one column of S at a time: rows i != r become
    (T_i piv - T_ic T_r) / prev, an exact division.  Which rows pivot, and
    every T_ic, depend on V_S alone, so they are recorded once per support
    (_support_elimination, which keeps the last _SUPPORT_CACHE records) and
    each call replays the record on the right-hand side alone:
    y_i <- (y_i piv - T_ic y_r) // prev, y starting as Db.  After the last
    pivot, det, the pivot row of column c holds det w_c.  A column with no
    pivot left depends on the earlier ones and takes weight 0; the system
    is consistent iff every row without a pivot ends in 0."""
    steps, pivots, free = _support_elimination(tuple(cols))
    y, det = list(Db), 1
    for r, piv, prev, f in steps:
        yr = y[r]
        y = [yi if i == r else (yi * piv - fi * yr) // prev
             for i, (yi, fi) in enumerate(zip(y, f))]
        det = piv
    if any(y[i] for i in free) or any(y[r] * det < 0 for r, _ in pivots):
        return None
    w = [Fraction(0)] * 64
    for r, c in pivots:
        w[c] = Fraction(y[r], det * D)
    return w


# supports whose elimination record _support_elimination keeps; a record
# of 16 pivots holds 16 columns of 16 integers, minors of the +-1 matrix V_S
# at most 2^32 in magnitude, in at most about 10 kB, so the cache stays
# under 0.64 MB
_SUPPORT_CACHE = 64


@functools.lru_cache(maxsize=_SUPPORT_CACHE)
def _support_elimination(cols: tuple[int, ...]):
    """The Bareiss elimination of V_S, S = cols, as _weights_on_support
    replays it: per pivot, its row r, the pivot, the previous pivot and the
    column entries T_ic of every row i at that step; the (row, column) of
    every pivot; and the rows left without one."""
    T = [[_VERTEX_ROWS[i][j] for j in cols] for i in range(16)]
    free, pivots, steps, prev = list(range(16)), [], [], 1
    for c in cols:
        r = next((i for i in free if T[i][0]), None)
        if r is None:
            T = [row[1:] for row in T]
            continue
        free.remove(r)
        piv, P = T[r][0], T[r][1:]
        steps.append((r, piv, prev, tuple(row[0] for row in T)))
        for i, row in enumerate(T):
            f = row[0]
            T[i] = P if i == r else [(x * piv - f * p) // prev for x, p in zip(row[1:], P)]
        prev = piv
        pivots.append((r, c))
    return tuple(steps), tuple(pivots), tuple(free)


def _weights_past_support(w: np.ndarray, Db: list[int], D: int, scale: int) -> list[Fraction] | None:
    """Exact weights for b = Db / D from the float weights w of b / scale
    whose support has none, or None.

    A float-rounded point a hair off a low-dimensional face (the residual of
    w is near the rounding error) gets from the descent a support on that
    face, and the vertices it needs off the face carry weights below any
    float.  Let a = V w, read exactly over the weights of w above
    _PAST_FLOOR of their sum.  The point p = a + K (b / scale - a), K a
    power of two, lies about 2^-_PAST_BITS from a, which the float descent
    resolves, and b / scale = (1 - 1/K) a + p / K: with w_p p's exact
    weights on its own support, (1 - 1/K) w + w_p / K are >= 0 and
    reproduce b / scale exactly.  A p outside the polytope has no such w_p,
    and the point goes on to the tableau."""
    w = np.where(w >= _PAST_FLOOR * w.sum(), w, 0.0)
    ratios = [x.as_integer_ratio() for x in w.tolist()]
    Q = max(den for _, den in ratios)
    W = [num * (Q // den) for num, den in ratios]
    # in integers: Qa = Q a, R = M (b / scale - a) and P = M p, M = scale Q
    Qa = [sum(v * x for v, x in zip(row, W) if x) for row in _VERTEX_ROWS]
    R = [Q * x - scale * y for x, y in zip(Db, Qa)]
    M = scale * Q
    K = 1 << max(1, M.bit_length() - max(map(abs, R)).bit_length() - _PAST_BITS)
    P = [scale * y + K * x for x, y in zip(R, Qa)]
    peak = max(map(abs, P)) or 1
    try:
        wp = caratheodory_weights(np.array([x / peak for x in P]))
    except ValueError:
        return None
    weights = _weights_on_support(np.flatnonzero(wp).tolist(), P, M)
    if weights is None:
        return None
    # from weights of b / scale to weights of b
    return [Fraction(scale * ((K - 1) * x + y * Q), D * K * Q) if x or y else Fraction(0)
            for x, y in zip(W, weights)]


def _bland_phase1(b: list[Fraction]):
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
