"""Bisection and sweep engine for noise thresholds and tradeoff curves.

Thresholds are the minimal noise strengths at which a noisy CSIGN becomes
separable for the chosen state space, decided per point by the facet test
of the cube-product polytope (cubes) or the positivity+PPT test (spheres).
Closed-form positivity bounds and the LHV-achievability boundaries of the
rescaled-cube analysis live here as well.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .gates import NoiseModel, pipeline
from .pauli import BlochOp
from .separability import cube_decide, positive_for_pauli, quantum_separable_2q
from .spaces import StateSpaceSpec, cube_vertices

__all__ = [
    "BISECTION_TOL",
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

BISECTION_TOL = 1e-7
MAX_BISECTION_ITERS = 60


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


@dataclass(frozen=True)
class CurvePoint:
    R: float
    lambda_star: float
    achieved_by: str
    certificate_ref: object = None


@dataclass(frozen=True)
class DephasingVerdict:
    valid: bool
    witness: float | None = None
    outcome: str | None = None


def _criterion_fn(criterion: str):
    if criterion == "cube-separable":
        return lambda A: cube_decide(A).feasible
    if criterion == "quantum-separable":
        return quantum_separable_2q
    return lambda A: positive_for_pauli(A)


def _noise_upper(noise_family: str) -> float:
    # total dephasing is p = 1/2; the depolarizing families top out at 1
    return 0.5 if noise_family == "local-dephase" else 1.0


def _bisect(pred, lo: float, hi: float, tol: float) -> float:
    """Smallest parameter where the monotone predicate turns true."""
    for _ in range(MAX_BISECTION_ITERS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sphere_grid_inputs(n: int) -> list[tuple[BlochOp, BlochOp, float, float]]:
    """Pure product inputs with no Y component on a [0, pi/2]^2 angle grid.

    Local Z rotations commute with the noise families and the CSIGN, and
    the remaining reflections fold the angles into the first quadrant, so
    this grid covers all pure product inputs for the sweep.
    """
    angles = np.linspace(0.0, math.pi / 2.0, n)
    grid = []
    for th in angles:
        u = BlochOp(np.array([math.cos(th), 0.0, math.sin(th)]))
        for ph in angles:
            v = BlochOp(np.array([math.cos(ph), 0.0, math.sin(ph)]))
            grid.append((u, v, th, ph))
    return grid


def _grid_max_threshold(q: ThresholdQuery, tol: float):
    """Ascending scan over the sphere grid with one refinement pass."""
    ok = _criterion_fn(q.criterion)
    R = q.space.R
    hi = _noise_upper(q.noise_family)
    noise = lambda p: NoiseModel(q.noise_family, p)

    def point_threshold(u, v, floor):
        out_hi = pipeline(u, v, R, noise(hi))
        if not ok(out_hi):
            raise ThresholdBracketError(
                f"criterion still false at full noise for grid input ({u.bloch},{v.bloch})"
            )
        if ok(pipeline(u, v, R, noise(floor))):
            return None  # cannot raise the running maximum
        return _bisect(lambda p: ok(pipeline(u, v, R, noise(p))), floor, hi, tol)

    best, arg = 0.0, (0.0, 0.0)
    for u, v, th, ph in sphere_grid_inputs(q.grid_n):
        t = point_threshold(u, v, best)
        if t is not None and t > best:
            best, arg = t, (th, ph)
    # refinement: +-1 original cell around the arg-max at 10x resolution
    step = (math.pi / 2.0) / max(q.grid_n - 1, 1)
    fine = np.linspace(-step, step, 21)
    for dth in fine:
        th = min(max(arg[0] + dth, 0.0), math.pi / 2.0)
        u = BlochOp(np.array([math.cos(th), 0.0, math.sin(th)]))
        for dph in fine:
            ph = min(max(arg[1] + dph, 0.0), math.pi / 2.0)
            v = BlochOp(np.array([math.cos(ph), 0.0, math.sin(ph)]))
            t = point_threshold(u, v, best)
            if t is not None and t > best:
                best = t
    return best


def min_noise(q: ThresholdQuery, tol: float = BISECTION_TOL) -> float:
    """Minimal noise strength making the criterion hold for the query inputs.

    Raises ThresholdBracketError when the criterion already holds at zero
    noise or still fails at full noise.
    """
    if q.input_policy == "sphere-grid":
        return _grid_max_threshold(q, tol)
    ok = _criterion_fn(q.criterion)
    R = q.space.R
    allones = BlochOp(np.ones(3))
    if q.input_policy == "worst-vertex":
        inputs = [(allones, allones)]
    else:
        verts = cube_vertices()
        inputs = [(u, v) for u in verts for v in verts]

    def pred(p):
        n = NoiseModel(q.noise_family, p)
        return all(ok(pipeline(u, v, R, n)) for u, v in inputs)

    hi = _noise_upper(q.noise_family)
    if pred(0.0):
        raise ThresholdBracketError("criterion already holds at zero noise")
    if not pred(hi):
        raise ThresholdBracketError("criterion still fails at full noise")
    return _bisect(pred, 0.0, hi, tol)


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


def analytic_intersection(model_family: str, lo: float = 0.3, hi: float = 0.95):
    """Root-find the crossing of the two bounds; returns (R, r)."""
    fns = _BOUND_SETS[(model_family, "cube")]
    diff = lambda R: fns[0][1](R) - fns[1][1](R)
    R = brentq(diff, lo, hi, xtol=1e-12)
    return R, fns[0][1](R)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def curve(q: ThresholdQuery, R_min: float, R_max: float, steps: int,
          tol: float = BISECTION_TOL, threads: int | None = None) -> list[CurvePoint]:
    """Threshold as a function of R on a uniform grid.

    Bracket failures at individual R values are recorded as NaN gaps.
    """
    if not R_min > 0:
        raise ValueError("R_min must be positive")
    if threads is None:
        threads = int(os.environ.get("GENCUBE_THREADS", "1"))
    method = "LP" if q.criterion in ("cube-separable",) else (
        "PPT" if q.criterion == "quantum-separable" else "positivity")
    Rs = np.linspace(R_min, R_max, steps)

    def solve(R):
        qi = ThresholdQuery(q.noise_family, StateSpaceSpec(q.space.kind, float(R)),
                            q.criterion, q.input_policy, q.grid_n)
        try:
            return CurvePoint(float(R), min_noise(qi, tol), method)
        except ThresholdBracketError:
            return CurvePoint(float(R), math.nan, "gap")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(solve, Rs))
    else:
        points = [solve(R) for R in Rs]
    return sorted(points, key=lambda p: p.R)


def curve_to_csv(points: list[CurvePoint]) -> str:
    lines = ["R,lambda_star,method"]
    for p in points:
        lines.append(f"{p.R:.9g},{p.lambda_star:.9g},{p.achieved_by}")
    return "\n".join(lines) + "\n"


_BOUNDARY_BOUND = {"local-depol": "xy", "joint-depol": "tdb1"}


def lhv_achievability_boundary(model_family: str, tol: float = 1e-6) -> float:
    """Smallest R at which the family's leading analytic bound (xy for
    local, tdb1 for joint depolarization) is LHV-achievable.

    The state sitting on the bound (nudged inward by 1e-8 to stay off the
    knife edge) is tested for cube separability while R is bisected.
    """
    allones = BlochOp(np.ones(3))
    bound_name = _BOUNDARY_BOUND[model_family]

    def feasible_at_bound(R):
        r = analytic_bound(model_family, "cube", R).value(bound_name) - 1e-8
        out = pipeline(allones, allones, R, NoiseModel(model_family, 1.0 - r))
        return cube_decide(out).feasible

    lo, hi = 0.3, 1.0
    if feasible_at_bound(lo):
        raise ThresholdBracketError("bound already achievable at R = 0.3")
    if not feasible_at_bound(hi):
        raise ThresholdBracketError("bound not achievable at R = 1")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible_at_bound(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
