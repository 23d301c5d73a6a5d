"""Root engine for noise thresholds, tradeoff curves and LHV boundaries.

Thresholds are the minimal noise strengths at which a noisy CSIGN becomes
separable for the chosen state space.  Each criterion has a margin beside
its predicate in ``separability`` (the least normalized facet value for
cubes, the least Pauli-pair Born probability, the least eigenvalue of the
output and of its partial transpose), and the predicate holds where margin
+ tol >= 0.  The gate pipeline and every margin run row by row over an
(N, 16) stack, so a threshold is one Brent root of the least margin + tol
over a stacked batch of inputs, on the bracket [0, full noise]; the
LHV-achievability boundaries are roots of the same cube margin in R.
The sphere-grid inputs lie in the XZ plane, so the PPT margin there runs
one real symmetric eigensolve (see ``separability.quantum_margins``), and
because the CSIGN, the noise and the rescaling are symmetric under
exchanging the qubits, the grid root runs over half the grid.
Closed-form positivity bounds of the rescaled-cube analysis live here as
well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lp, separability
from .gates import NoiseModel, pipeline_rows
from .pauli import product_rows
from .separability import cube_margins, pauli_margins, quantum_margins
from .spaces import StateSpaceSpec

__all__ = [
    "ROOT_XTOL",
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
    "sphere_grid_inputs",
]

ROOT_XTOL = 1e-12           # absolute tolerance of every root (brentq xtol)


class ThresholdBracketError(RuntimeError):
    """The criterion does not bracket a root on the noise interval."""


@dataclass(frozen=True)
class ThresholdQuery:
    """A threshold question: which noise family, space, criterion, inputs."""

    noise_family: str        # "joint-depol" | "local-depol" | "local-dephase"
    space: StateSpaceSpec
    criterion: str           # "cube-separable" | "quantum-separable" | "pauli-positive"
    input_policy: str = "worst-vertex"  # | "all-vertices" | "sphere-grid"
    grid_n: int = 60

    def __post_init__(self):
        if self.criterion not in ("cube-separable", "quantum-separable", "pauli-positive"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.input_policy not in ("worst-vertex", "all-vertices", "sphere-grid"):
            raise ValueError(f"unknown input policy {self.input_policy!r}")
        if self.input_policy == "sphere-grid" and self.space.kind != "sphere":
            raise ValueError("sphere-grid inputs require a sphere state space")
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


def _margin_fn(criterion: str):
    """The criterion's margin plus its tolerance on each row of an (N, 16)
    stack of outputs: >= 0 exactly where the predicate holds."""
    if criterion == "cube-separable":
        return lambda B: cube_margins(B) + lp.FEASIBILITY_TOL
    if criterion == "quantum-separable":
        return lambda B: quantum_margins(B) + separability.POSITIVITY_TOL
    return lambda B: pauli_margins(B) + separability.POSITIVITY_TOL


def _root(slack, lo: float, hi: float, holds_at_lo: str, fails_at_hi: str) -> float:
    """Root of slack on [lo, hi], which must be < 0 at lo and >= 0 at hi."""
    from scipy.optimize import brentq  # most of the package's import time

    if slack(lo) >= 0.0:
        raise ThresholdBracketError(holds_at_lo)
    if slack(hi) < 0.0:
        raise ThresholdBracketError(fails_at_hi)
    return brentq(slack, lo, hi, xtol=ROOT_XTOL)


def _angle_pairs(thetas: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, ...]:
    """Inputs (cos th, 0, sin th) (x) (cos ph, 0, sin ph) for every th in
    thetas (outer) and ph in phis (inner): Bloch stacks U, V and the angles."""
    th, ph = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    zero = np.zeros_like(th)
    U = np.column_stack((np.cos(th), zero, np.sin(th)))
    V = np.column_stack((np.cos(ph), zero, np.sin(ph)))
    return U, V, th, ph


def sphere_grid_inputs(n: int) -> tuple[np.ndarray, ...]:
    """Pure product inputs with no Y component on an n x n angle grid over
    [0, pi/2]^2: Bloch stacks U, V (n^2 x 3) and their angles th, ph.

    Local Z rotations commute with the noise families and the CSIGN, and
    the remaining reflections fold the angles into the first quadrant, so
    this grid covers all pure product inputs for the sweep.
    """
    angles = np.linspace(0.0, math.pi / 2.0, n)
    return _angle_pairs(angles, angles)


_ALLONES_ROW = np.ones((1, 16))     # product of the all-ones vertex with itself


def min_noise(q: ThresholdQuery) -> float:
    """Minimal noise strength making the criterion hold for the query inputs:
    one Brent root of the least margin + tol over a stacked batch of inputs
    (the all-ones vertex pair, the 64 vertex pairs, or the sphere grid).

    The sphere grid is folded by the qubit-exchange symmetry: its first root
    runs over the th <= ph rows only (n(n+1)/2 of n^2), whose outputs have
    no odd-Y coefficient and take the real eigensolve of quantum_margins.  The
    binding input then gets a second root over its 21 x 21 refinement cell.

    A cube-separable root sits at margin = -tol, which is where cube_decide
    starts to accept (lp.decide_membership): the output mixed with white
    noise of weight tol / (1 + tol) lies on the polytope's boundary.  The R = 1 cube
    thresholds of joint depol, local depol and dephasing lie 3.3e-10,
    3.5e-10 and 1.8e-10 below their exact values 2/3, 2 - sqrt 2 and
    1 - 1/sqrt 2.

    Raises ThresholdBracketError when the criterion already holds at zero
    noise or still fails at full noise.
    """
    slack_of = _margin_fn(q.criterion)
    R = q.space.R
    # total dephasing is p = 1/2; the depolarizing families top out at 1
    hi = 0.5 if q.noise_family == "local-dephase" else 1.0

    def outputs(P, p):
        return pipeline_rows(P, R, NoiseModel(q.noise_family, p))

    def root(P):
        return _root(lambda p: float(np.min(slack_of(outputs(P, p)))), 0.0, hi,
                     "criterion already holds at zero noise",
                     "criterion still fails at full noise")

    if q.input_policy == "worst-vertex":
        return root(_ALLONES_ROW)
    if q.input_policy == "all-vertices":
        return root(lp.vertex_product_matrix().T)
    U, V, th, ph = sphere_grid_inputs(q.grid_n)
    # swap fold: the CSIGN, every noise family and frame_scale(R) are
    # symmetric under exchanging the qubits, so inputs (th, ph) and (ph, th)
    # give SWAP-conjugate outputs, whose operators and partial transposes
    # have the same spectra; the first root runs over th <= ph only
    half = th <= ph
    th, ph = th[half], ph[half]
    P = product_rows(U[half], V[half])
    lam = root(P)
    # refinement: one more root over +-1 grid cell around the input that binds
    # at the first root, at 10x resolution
    k = int(np.argmin(slack_of(outputs(P, lam))))
    step = (math.pi / 2.0) / max(q.grid_n - 1, 1)
    fine = np.linspace(-step, step, 21)
    U, V, _, _ = _angle_pairs(np.clip(th[k] + fine, 0.0, math.pi / 2.0),
                              np.clip(ph[k] + fine, 0.0, math.pi / 2.0))
    return max(lam, root(product_rows(U, V)))


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


def _bound_xy(R: float) -> float:
    return math.sqrt(1.0 + R * R) - R


def _bound_xz(R: float) -> float:
    return (R - 1.0 + math.sqrt((R - 1.0) ** 2 + 4.0 / R)) * R / 2.0


def _bound_tdb1(R: float) -> float:
    return 1.0 / (2.0 * R + 1.0)


def _bound_tdb2(R: float) -> float:
    d = 1.0 + 1.0 / R - R
    return math.inf if d <= 0 else 1.0 / d


_BOUND_SETS = {
    ("local-depol", "cube"): (("xy", _bound_xy), ("xz", _bound_xz)),
    ("joint-depol", "cube"): (("tdb1", _bound_tdb1), ("tdb2", _bound_tdb2)),
}


def analytic_bound(model_family: str, space_kind: str, R: float) -> AnalyticBounds:
    """Evaluate the closed-form positivity bounds at rescaling R.

    Bounds cap the residual coefficient scale r (noise = 1 - r); the active
    bound is the minimum.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    try:
        fns = _BOUND_SETS[(model_family, space_kind)]
    except KeyError:
        raise ValueError(f"no closed-form bounds for {model_family} on {space_kind}") from None
    values = tuple((name, fn(R)) for name, fn in fns)
    active = min(values, key=lambda nv: nv[1])[0]
    return AnalyticBounds(values, active)


def analytic_intersection(model_family: str):
    """Root-find the crossing of the two bounds for R in [0.3, 0.95]; returns (R, r)."""
    from scipy.optimize import brentq

    fns = _BOUND_SETS[(model_family, "cube")]
    diff = lambda R: fns[0][1](R) - fns[1][1](R)
    R = brentq(diff, 0.3, 0.95, xtol=ROOT_XTOL)
    return R, fns[0][1](R)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


_CURVE_METHOD = {"cube-separable": "facet", "quantum-separable": "PPT",
                 "pauli-positive": "positivity"}


def curve(q: ThresholdQuery, R_min: float, R_max: float, steps: int) -> list[CurvePoint]:
    """Threshold as a function of R on a uniform grid, in grid order.

    Bracket failures at individual R values are recorded as NaN gaps.
    """
    if not R_min > 0:
        raise ValueError("R_min must be positive")
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


_BOUNDARY_BOUND = {"local-depol": "xy", "joint-depol": "tdb1"}


def lhv_achievability_boundary(model_family: str) -> float:
    """Smallest R at which the family's leading analytic bound (xy for
    local, tdb1 for joint depolarization) is LHV-achievable.

    The state sitting on the bound (nudged inward by 1e-8 to stay off the
    knife edge) is cube-separable where its cube margin + tol is >= 0; the
    boundary is the root of that in R on [0.3, 1].
    """
    bound_name = _BOUNDARY_BOUND[model_family]
    slack_of = _margin_fn("cube-separable")

    def slack(R):
        r = analytic_bound(model_family, "cube", R).value(bound_name) - 1e-8
        out = pipeline_rows(_ALLONES_ROW, R, NoiseModel(model_family, 1.0 - r))
        return float(np.min(slack_of(out)))

    return _root(slack, 0.3, 1.0, "bound already achievable at R = 0.3",
                 "bound not achievable at R = 1")


def dephasing_impossibility(R: float, p: float) -> DephasingVerdict:
    """Partial local dephasing cannot give a valid theory unless R = 1.

    The rescaled output acquires the pair of values (1-2p)(R - 1/R)/4 and
    (1-2p)(1/R - R)/4 as a Z(x)X outcome pair (cubes) or an eigenvalue pair
    (spheres); one of them is negative whenever R != 1 and p != 1/2.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    if not 0.0 <= p <= 0.5:
        raise ValueError("dephasing probability must lie in [0, 1/2]")
    a = (1.0 - 2.0 * p) * (R - 1.0 / R) / 4.0
    if abs(a) <= 1e-12:
        return DephasingVerdict(True)
    if a > 0:
        return DephasingVerdict(False, witness=-a, outcome="Z(-) X(-)")
    return DephasingVerdict(False, witness=a, outcome="Z(-) X(+)")
