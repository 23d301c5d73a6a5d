"""Root engine for noise thresholds, tradeoff curves and LHV boundaries.

Thresholds are the minimal noise strengths at which a noisy CSIGN becomes
separable for the chosen state space.  Each criterion's slack in
``separability`` (its margin plus its tolerance: the least normalized facet
value for cubes, the least Pauli-pair Born probability, the least
eigenvalue of the output and of its partial transpose) is >= 0 exactly
where it holds, on the bracket [0, full noise].

Every threshold is a facet root, in closed form: the pipeline output is a
polynomial of degree <= 2 in the noise strength, so each row's slack is an
exact quadratic, and the threshold is the largest of the roots of the rows
that are negative at zero noise.  The rows are the linear criteria's
(cube-separable and pauli-positive) on vertex inputs, and on the sphere
quantum-separable's 20 fixed eigen-rows: the outputs of each axis-pair
input commute with one another for every R and noise strength, and so do
their partial transposes, so each of their eigenvalues is one linear row of
the coefficients.  The reported float is the row root.

The rescaled-cube positivity bounds are row roots as well: each is the
least root of one positivity row's Born probability on the all-ones input.
The LHV-achievability boundaries and the bounds' crossings are one curve
root: the least R at which a set of rows reads >= 0 on the state sitting on
the leading bound, which a rational curve carries (the 684 cube rows for a
boundary, the second bound's positivity row for a crossing), ended at a
float sign change: the slack >= 0 at the root and < 0 at the float below it.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import lp
from .gates import NOISE_FAMILIES, NoiseModel, csign, noise_scale_matrix, pipeline_rows
from .pauli import PT_SIGNS, dense_rows_real, product_rows
from .separability import CRITERIA
from .spaces import StateSpaceSpec, check_R, frame_scale

__all__ = [
    "ThresholdQuery",
    "CurvePoint",
    "ThresholdBracketError",
    "min_noise",
    "analytic_bound",
    "AnalyticBounds",
    "analytic_intersection",
    "curve",
    "curve_to_csv",
    "lhv_achievability_boundary",
    "dephasing_impossibility",
    "DephasingVerdict",
]

class ThresholdBracketError(RuntimeError):
    """The criterion does not bracket a root on the noise interval."""


@dataclass(frozen=True)
class ThresholdQuery:
    """A threshold question: which noise family, space, criterion, inputs."""

    noise_family: str        # one of gates.NOISE_FAMILIES
    space: StateSpaceSpec
    criterion: str           # "cube-separable" | "quantum-separable" | "pauli-positive"
    input_policy: str = "worst-vertex"  # | "all-vertices" | "sphere-grid"
    # not read: the sphere-grid inputs are the three axis pairs; the field
    # stays because the bench passes it
    grid_n: int = 60

    def __post_init__(self):
        if self.noise_family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.noise_family!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.input_policy not in ("worst-vertex", "all-vertices", "sphere-grid"):
            raise ValueError(f"unknown input policy {self.input_policy!r}")
        if self.input_policy == "sphere-grid" and self.space.kind != "sphere":
            raise ValueError("sphere-grid inputs require a sphere state space")
        if self.input_policy == "sphere-grid" and self.criterion != "quantum-separable":
            raise ValueError("sphere-grid inputs take the quantum-separable criterion")
        if self.input_policy != "sphere-grid" and self.criterion == "quantum-separable":
            raise ValueError("vertex inputs take a linear criterion, not quantum-separable")
        if self.grid_n < 1:
            raise ValueError("grid_n must be at least 1")


@dataclass(frozen=True)
class CurvePoint:
    R: float
    lambda_star: float
    achieved_by: str


@dataclass(frozen=True)
class DephasingVerdict:
    valid: bool
    witness: float | None = None
    outcome: str | None = None


def _sign_change(f, x: float, fx: float, lo: float, hi: float) -> float:
    """A float x* in [lo, hi] at which f, < 0 at lo and >= 0 at hi, changes
    sign, f(x*) >= 0 > f(the float below x*), found from the guess x with
    fx = f(x): steps of 1, 2, 4, ... ulps away from x until f's sign
    differs, then bisection over the floats in between."""
    step = math.ulp(x)
    if fx < 0.0:
        lo = x
        while f(y := min(x + step, hi)) < 0.0:
            lo, step = y, 2.0 * step
        hi = y
    else:
        hi = x
        while f(y := max(x - step, lo)) >= 0.0:
            hi, step = y, 2.0 * step
        lo = y
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


_ALLONES_ROW = np.ones((1, 16))     # product of the all-ones vertex with itself
# the sphere threshold's inputs (see min_noise): the axis pairs (X, X),
# (X, Z) and (Z, Z)
_AXIS_PAIRS = product_rows(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                           np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))


@functools.cache
def _criterion_rows(criterion: str) -> np.ndarray:
    """The (16, k) matrix M of a linear criterion, whose margin on an
    (N, 16) stack B is (B @ M).min(axis=-1): the normalized facets of
    separability.cube_margins, or the positivity rows / 4 of
    separability.pauli_margins.  Read off the unit stack, exactly: every
    facet's identity entry is a power of two.  Read-only."""
    unit = np.eye(16)
    if criterion == "cube-separable":
        M = np.ascontiguousarray(lp.facet_margins(unit))
    else:
        M = lp.positivity_values(unit) / 4.0
    M.setflags(write=False)
    return M


@functools.cache
def _noise_polynomial(family: str) -> np.ndarray:
    """(3, 16): the family's noise factors on the flattened coefficients as
    polynomials in the strength p, rows the coefficients of 1, p and p^2.
    Every factor has degree <= 2, so its values at p = 0, 1/2 and 1 fix it;
    they are small dyadics there, so the coefficients are exact.  Read-only."""
    y0, y1, y2 = (noise_scale_matrix(NoiseModel(family, p)).ravel() for p in (0.0, 0.5, 1.0))
    poly = np.stack((y0, 4.0 * y1 - 3.0 * y0 - y2, 2.0 * (y2 - 2.0 * y1 + y0)))
    poly.setflags(write=False)
    return poly


def _output_polynomial(P: np.ndarray, R: float, family: str) -> np.ndarray:
    """(3, N, 16): the pipeline output on an (N, 16) stack of product inputs
    as a polynomial in the noise strength p, C[0] + p (C[1] + p C[2]): the
    frame-scaled CSIGN of the inputs times each coefficient row of the noise
    polynomial."""
    G = csign(P * frame_scale(R)) * frame_scale(1.0 / R)
    return _noise_polynomial(family)[:, None, :] * G


def _slack_polynomials(criterion: str, P: np.ndarray, R: float,
                       family: str) -> tuple[np.ndarray, ...]:
    """Flat arrays a, b, c with a p^2 + b p + c the slack, before the min,
    of every (input row of P, criterion row) pair at noise strength p: all
    three coefficients of the output polynomial through one product with
    the criterion's rows."""
    C = _output_polynomial(P, R, family).reshape(-1, 16)
    c, b, a = (C @ _criterion_rows(criterion)).reshape(3, -1)
    return a, b, c + CRITERIA[criterion][1]


@functools.cache
def _eigen_rows() -> tuple[np.ndarray, np.ndarray]:
    """The sphere threshold's eigen-rows: the index into _AXIS_PAIRS of
    each row's pair, and a (20, 16) matrix W whose row k, applied to the
    flattened output b of its pair, is an eigenvalue of the operator of b
    (rows on the partial transpose's side carry PT_SIGNS), at every family,
    R and noise strength.  Each side's rows give all its eigenvalues.
    Read-only.

    For each pair, the operators of the output polynomial's coefficients
    (_output_polynomial) commute over every family and R, and so do their
    partial transposes.  Their joint eigenspaces, with projectors Pi, are
    those of one generic combination of them, and the eigenvalue on Pi is
    tr(Pi rho) / rank Pi, a linear row whose entries are quarters.  Each
    row is rounded to its quarters and checked exactly, at R = 1/2, 1 and
    2: Pi, rebuilt from the row, is a projector; Pi summed over a side is
    the identity; and rho Pi = (row . b) Pi for every coefficient of each
    family.  Every entry and product there is a short dyadic, so the float
    checks are exact.  An output entry is +-R^e times a polynomial in p,
    e in {-1, 0, 1} (the CSIGN moves a Pauli weight by at most one), so an
    identity linear in the output that holds at three values of R holds at
    every R.
    """
    C = np.stack([_output_polynomial(_AXIS_PAIRS, R, family)
                  for family in NOISE_FAMILIES for R in (0.5, 1.0, 2.0)])
    sigma = dense_rows_real(np.eye(16))      # sigma_j / 4; no output has an odd Y
    pairs, rows = [], []
    for i in range(len(_AXIS_PAIRS)):
        for signs in (np.ones(16), PT_SIGNS):
            B = C[:, :, i].reshape(-1, 16) * signs
            ops = dense_rows_real(B)
            generic = np.tensordot(np.sqrt(np.arange(len(B)) + 2.0), ops, 1)
            ev, V = np.linalg.eigh(generic)
            total = np.zeros((4, 4))
            for block in np.split(V, np.flatnonzero(np.diff(ev) > 1e-9 * np.abs(ev).max()) + 1,
                                  axis=1):
                rank = block.shape[1]
                row = np.einsum("jab,ab->j", sigma, block @ block.T) / rank
                q = np.round(4.0 * row) / 4.0
                Pi = dense_rows_real(4.0 * rank * q[None])[0]
                if not (np.abs(row - q).max() < 1e-12 and np.array_equal(Pi @ Pi, Pi)
                        and np.array_equal(ops @ Pi, (B @ q)[:, None, None] * Pi)):
                    raise RuntimeError(f"axis pair {i} has no exact eigen-row")
                total += Pi
                pairs.append(i)
                rows.append(q * signs)
            if not np.array_equal(total, np.eye(4)):
                raise RuntimeError(f"axis pair {i}'s eigen-rows miss an eigenspace")
    pairs, rows = np.array(pairs), np.array(rows)
    pairs.setflags(write=False)
    rows.setflags(write=False)
    return pairs, rows


def _eigen_slack_polynomials(R: float, family: str) -> tuple[np.ndarray, ...]:
    """Flat arrays a, b, c with a p^2 + b p + c the quantum-separable slack
    of each eigen-row (_eigen_rows) on its own axis pair's output at noise
    strength p."""
    pairs, W = _eigen_rows()
    c, b, a = np.einsum("kij,ij->ki", _output_polynomial(_AXIS_PAIRS, R, family)[:, pairs], W)
    return a, b, c + CRITERIA["quantum-separable"][1]


def _least_positive_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each quadratic a x^2 + b x + c's least positive root, inf where it
    has none.  The roots are taken in the stable form
    q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2, roots q / a and c / q, so a
    linear row (a = 0) takes c / q = -c / b; a discriminant below 0, which
    rounding leaves at a double root, reads as 0."""
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.stack((q / a, c / q))
    return np.where(roots > 0.0, roots, np.inf).min(axis=0)


def _facet_root(a: np.ndarray, b: np.ndarray, c: np.ndarray, hi: float) -> float:
    """The root in (0, hi] of the least of the quadratics a p^2 + b p + c:
    the largest of the roots of the rows that are negative at 0, each
    row's first crossing its least positive root (_least_positive_roots).

    That is the least slack's one sign change only if every row changes
    sign at most once on [0, hi].  A row negative at 0 and >= 0 at hi has
    one root there; a row >= 0 at both ends could change sign only by
    dipping below 0 at its vertex -b / 2a, and is refused.
    """
    below = c < 0.0
    if not below.any():
        raise ThresholdBracketError("criterion already holds at zero noise")
    if (c + hi * (b + hi * a) < 0.0).any():
        raise ThresholdBracketError("criterion still fails at full noise")
    if (~below & (a > 0.0) & (b < 0.0) & (-b < 2.0 * a * hi) & (b * b > 4.0 * a * c)).any():
        raise RuntimeError("a criterion row changes sign twice on the noise interval")
    # c < 0 rules out a root at 0, and a row with b = 0 and a <= 0 stays
    # negative at hi, so q != 0
    return min(float(_least_positive_roots(a[below], b[below], c[below]).max()), hi)


def min_noise(q: ThresholdQuery) -> float:
    """Minimal noise strength making the criterion hold for the query inputs
    (the all-ones vertex pair, the 64 vertex pairs, or the sphere's pure
    product inputs), on the bracket [0, full noise].

    Every threshold is a facet root, taken with no iteration.  The
    pipeline output is a polynomial of degree <= 2 in the noise strength,
    so each row's slack is an exact quadratic, and the threshold is the
    largest of the roots of the rows negative at zero noise (_facet_root).
    The rows are the linear criteria's on vertex inputs (cube-separable:
    the 684 normalized facets; pauli-positive: the 36 positivity rows / 4),
    and quantum-separable's on the sphere: the 20 eigen-rows (_eigen_rows)
    that give every eigenvalue of each axis pair's output and of its
    partial transpose.  The reported float is the row root itself, within
    a few ulps of the exact root and not ended at a float sign change of
    the eigensolver's least slack, which near p = 1/2 changes sign more
    than once.  Vertex inputs take no quantum-separable query.

    On the sphere the inputs are the three axis pairs (X, X), (X, Z) and
    (Z, Z).  Local Z rotations commute with the CSIGN and the noise, and the
    reflections that remain fold every pure product input into the XZ
    quadrant [0, pi/2]^2; the qubit swap keeps the spectra, so (Z, X) adds
    nothing.  That an axis pair binds in the quadrant is tested, not
    proven: the tests hold this value equal to a 60 x 60 angle grid's
    within 1e-12, and certify by branch and bound over the quadrant that
    every input holds at the value + 1e-4.

    A cube-separable root sits at margin = -tol, which is where
    lp.decide_membership starts to accept: the output mixed with white
    noise of weight tol / (1 + tol) lies on the polytope's boundary.  The R = 1 cube
    thresholds of joint depol, local depol and dephasing lie 3.3e-10,
    3.5e-10 and 1.8e-10 below their exact values 2/3, 2 - sqrt 2 and
    1 - 1/sqrt 2.

    Raises ThresholdBracketError when the criterion already holds at zero
    noise or still fails at full noise, and RuntimeError when a facet row
    changes sign twice on the bracket.
    """
    R = q.space.R
    # total dephasing is p = 1/2; the depolarizing families top out at 1
    hi = 0.5 if q.noise_family == "local-dephase" else 1.0
    if q.input_policy == "sphere-grid":
        return _facet_root(*_eigen_slack_polynomials(R, q.noise_family), hi)
    P = _ALLONES_ROW if q.input_policy == "worst-vertex" else lp.vertex_product_matrix().T
    return _facet_root(*_slack_polynomials(q.criterion, P, R, q.noise_family), hi)


# ---------------------------------------------------------------------------
# Closed-form positivity bounds for rescaled cubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticBounds:
    """Closed-form upper bounds on the residual coefficient scale r."""

    bounds: tuple  # of (name, value) pairs
    active: str

    def value(self, name: str) -> float:
        return dict(self.bounds)[name]

    @property
    def active_value(self) -> float:
        return dict(self.bounds)[self.active]


@dataclass(frozen=True)
class _BoundCurve:
    """A family's bounds, as (name, k) pairs with k the bound's positivity
    row (a row of lp.facet_table()), and the state on its leading bound, the
    first pair's, as a rational curve in x: R = R_num(x) / R_den(x) and
    r = r_num(x) / r_den(x) (polynomial coefficients, highest first), whose
    inverse on R > 0 is x_of_R."""

    rows: tuple
    x_of_R: Callable[[float], float]
    R_num: tuple
    R_den: tuple
    r_num: tuple
    r_den: tuple

    def R(self, x: float) -> float:
        return _horner(self.R_num, x)[0] / _horner(self.R_den, x)[0]

    def r(self, R: float) -> float:
        x = self.x_of_R(R)
        return _horner(self.r_num, x)[0] / _horner(self.r_den, x)[0]


def _horner(coeffs, x: float) -> tuple[float, float]:
    """The polynomial (coefficients, highest first) and its derivative at x."""
    p = dp = 0.0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


_BOUND_CURVES = {
    # R = (t - 1/t) / 2 makes sqrt(1 + R^2) = (t + 1/t) / 2, so xy = 1/t
    "local-depol": _BoundCurve((("xy", 1), ("xz", 16)), lambda R: R + math.sqrt(1.0 + R * R),
                               (1.0, 0.0, -1.0), (2.0, 0.0), (1.0,), (1.0, 0.0)),
    # x = R and tdb1 = 1 / (2R + 1)
    "joint-depol": _BoundCurve((("tdb1", 1), ("tdb2", 16)), lambda R: R,
                               (1.0, 0.0), (1.0,), (1.0,), (2.0, 1.0)),
}


def _bound_curve(model_family: str) -> _BoundCurve:
    try:
        return _BOUND_CURVES[model_family]
    except KeyError:
        raise ValueError(f"no closed-form bounds for {model_family}") from None


def _bound_values(model_family: str, R: float) -> tuple:
    """The family's bounds at R as (name, value) pairs: each the least
    positive root in r (noise = 1 - r) of its row's Born probability on the
    all-ones input, with no tolerance, or inf where the row has none.  The
    output polynomial in p (_output_polynomial), re-expanded about
    r = 1 - p, stays exact: each coefficient is 0, +-1 or +-2 times an
    output entry.  Each row is linear in r (joint) or has r^2 coefficient
    < 0 < its constant term (local), so no discriminant is negative."""
    names, rows = zip(*_bound_curve(model_family).rows)
    C0, C1, C2 = _output_polynomial(_ALLONES_ROW, R, model_family)[:, 0]
    N = np.stack((C0 + C1 + C2, -(C1 + 2.0 * C2), C2))
    c, b, a = N @ _criterion_rows("pauli-positive")[:, list(rows)]
    return tuple(zip(names, map(float, _least_positive_roots(a, b, c))))


def analytic_bound(model_family: str, R: float) -> AnalyticBounds:
    """Evaluate the family's closed-form positivity bounds on Cube(R).

    Bounds cap the residual coefficient scale r (noise = 1 - r); the active
    bound is the minimum.  Each is the least root of one positivity row
    (_bound_values): xy and tdb1 of row 1, xz and tdb2 of row 16.
    """
    check_R(R)
    values = _bound_values(model_family, R)
    return AnalyticBounds(values, min(values, key=lambda nv: nv[1])[0])


@functools.cache
def _bound_terms(family: str) -> np.ndarray:
    """(17, 7): row k < 16 the polynomial in x (coefficients, highest
    first) that is D(x) = R_num R_den r_den^2 times flattened entry k of
    the state on the family's leading bound (_BOUND_CURVES) on the all-ones
    input, and row 16 D itself.  Facet f's cube slack times D is then
    M[:, f] @ rows[:16] + tol rows[16], a polynomial in x.  Read-only.

    Entry k of the frame-scaled CSIGN is s_k R^e_k, with s_k = +-1 and e_k
    in {-1, 0, 1}, and the noise at strength 1 - r scales it by r^w_k, w_k
    in {0, 1, 2}.  D R^e r^w is the polynomial
    R_num^(1+e) R_den^(1-e) r_num^w r_den^(2-w).
    """
    c = _BOUND_CURVES[family]

    def powers(num, den):        # num^n den^(2-n) for n = 0, 1, 2
        return np.convolve(den, den), np.convolve(num, den), np.convolve(num, num)

    B = np.zeros((3, 3, 7))      # B[1 + e, w] = D R^e r^w
    for i, Rp in enumerate(powers(c.R_num, c.R_den)):
        for w, rp in enumerate(powers(c.r_num, c.r_den)):
            poly = np.convolve(Rp, rp)
            B[i, w, 7 - poly.size:] = poly
    # at R = 2 and r = 1/2, entry k is s_k 2^e_k and its noise factor
    # 2^-w_k, whose frexp exponents are 1 + e_k and 1 - w_k
    G = csign(_ALLONES_ROW * frame_scale(2.0))[0] * frame_scale(0.5)
    n = noise_scale_matrix(NoiseModel(family, 0.5)).ravel()
    rows = np.empty((17, 7))
    rows[:16] = np.sign(G)[:, None] * B[np.frexp(G)[1], 1 - np.frexp(n)[1]]
    rows[16] = B[1, 0]
    rows.setflags(write=False)
    return rows


def _least_root(poly, lo: float, hi: float) -> float | None:
    """The least real root of the polynomial in (lo, hi], or None: np.roots
    (a few ulps off), then two Newton steps on the polynomial."""
    r = np.roots(poly)
    r = r.real[(r.imag == 0.0) & (r.real > lo) & (r.real <= hi)]
    if r.size == 0:
        return None
    x, coeffs = float(r.min()), [float(c) for c in poly]
    for _ in range(2):
        p, dp = _horner(coeffs, x)
        if dp != 0.0:
            x -= p / dp
    return x


def _curve_root(family: str, rows: np.ndarray, tol: float, lo: float, hi: float,
                refusals: tuple[str, str]) -> float:
    """The least R in [lo, hi] at which every column of the (16, k) matrix
    rows reads >= -tol on the state sitting on the family's leading bound
    (rows applied to the all-ones pipeline output at noise 1 - r(R)).
    Refused, with refusals[0] or [1], where that slack is already >= 0 at
    lo or still < 0 at hi.

    Each row's slack times D(x) is a polynomial in the curve parameter x
    (_bound_terms).  The root is that of the binding row: the row least at
    lo, then, while a row is still negative at the root, that row's next
    root (tied rows give one root).  It ends at a float sign change of the
    least slack (_sign_change): slack(R*) >= 0 > slack(the float below R*).
    """
    c = _bound_curve(family)
    # facet_values' product: on the cube rows, lp.facet_margins bit for bit
    table = np.ascontiguousarray(rows.T)

    def slacks(R):
        out = pipeline_rows(_ALLONES_ROW, R, NoiseModel(family, 1.0 - c.r(R)))[0]
        return table @ out + tol

    s = slacks(lo)
    if s.min() >= 0.0:
        raise ThresholdBracketError(refusals[0])
    if slacks(hi).min() < 0.0:
        raise ThresholdBracketError(refusals[1])
    terms = _bound_terms(family)
    R, x, x_hi = lo, c.x_of_R(lo), c.x_of_R(hi)
    while s.min() < 0.0:
        root = _least_root(rows[:, s.argmin()] @ terms[:16] + tol * terms[16], x, x_hi)
        if root is None or root <= x:    # a row tied with the last one
            break
        x, R = root, c.R(root)
        s = slacks(R)
    return _sign_change(lambda R: slacks(R).min(), R, s.min(), lo, hi)


def analytic_intersection(model_family: str):
    """The crossing of the family's two bounds for R in [0.3, 0.95]; returns
    (R, r), r the bounds' value there: a curve root (_curve_root) of the
    second bound's positivity row, with no tolerance, on the state sitting
    on the first bound.  R = 1/sqrt 3 for the joint bounds, and about 0.520
    for the local ones.
    """
    k = _bound_curve(model_family).rows[1][1]
    R = _curve_root(model_family, _criterion_rows("pauli-positive")[:, [k]], 0.0, 0.3, 0.95,
                    ("bounds already crossed at R = 0.3", "bounds not crossed by R = 0.95"))
    return R, _bound_values(model_family, R)[0][1]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


_CURVE_METHOD = {"cube-separable": "facet", "quantum-separable": "PPT",
                 "pauli-positive": "positivity"}


def curve(q: ThresholdQuery, R_min: float, R_max: float, steps: int) -> list[CurvePoint]:
    """Threshold as a function of R on a uniform grid, in grid order.

    Bracket failures at individual R values are recorded as NaN gaps.
    """
    check_R(R_min, "R_min")
    check_R(R_max, "R_max")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    points = []
    for R in np.linspace(R_min, R_max, steps):
        qi = replace(q, space=StateSpaceSpec(q.space.kind, float(R)))
        try:
            points.append(CurvePoint(float(R), min_noise(qi), _CURVE_METHOD[q.criterion]))
        except ThresholdBracketError:
            points.append(CurvePoint(float(R), math.nan, "gap"))
    return points


def curve_to_csv(points: list[CurvePoint]) -> str:
    lines = ["R,lambda_star,method"]
    for p in points:
        lines.append(f"{p.R:.9g},{p.lambda_star:.9g},{p.achieved_by}")
    return "\n".join(lines) + "\n"


def lhv_achievability_boundary(model_family: str) -> float:
    """Smallest R at which the family's leading analytic bound (the first
    of its _BOUND_CURVES rows: xy for local, tdb1 for joint depolarization)
    is LHV-achievable: a curve root of the 684 cube rows on [0.3, 1]
    (_curve_root).  The bound's own positivity facet reads 0 on the state
    on it, so the slack at R = 1 is tol > 0.
    """
    return _curve_root(model_family, _criterion_rows("cube-separable"),
                       CRITERIA["cube-separable"][1], 0.3, 1.0,
                       ("bound already achievable at R = 0.3", "bound not achievable at R = 1"))


def dephasing_impossibility(R: float, p: float) -> DephasingVerdict:
    """Partial local dephasing cannot give a valid theory unless R = 1.

    The rescaled output acquires the pair of values (1-2p)(R - 1/R)/4 and
    (1-2p)(1/R - R)/4 as a Z(x)X outcome pair (cubes) or an eigenvalue pair
    (spheres); one of them is negative whenever R != 1 and p != 1/2.
    """
    check_R(R)
    if not 0.0 <= p <= 0.5:
        raise ValueError("dephasing probability must lie in [0, 1/2]")
    a = (1.0 - 2.0 * p) * (R - 1.0 / R) / 4.0
    if abs(a) <= 1e-12:
        return DephasingVerdict(True)
    if a > 0:
        return DephasingVerdict(False, witness=-a, outcome="Z(-) X(-)")
    return DephasingVerdict(False, witness=a, outcome="Z(-) X(+)")
