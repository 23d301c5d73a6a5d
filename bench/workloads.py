"""The three workloads: seeded inputs, timed closed loops and output checks.

Each workload is a single client in one process: the next call starts when
the previous one has returned.  A run is a fixed number of passes over inputs
drawn from the seed (see ``passes_for``), so a seed always gives the same
operations and the same outcomes, however fast the host is.  Input generation
and output checks are not timed.

Calls into the package go through module attributes (``thresholds.min_noise``)
so that the span tracer's rebinding is seen.
"""
from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from gencube import constructions, gates, lp, separability, simulator, thresholds
from gencube.pauli import BlochOp, PauliCoeffs2Q
from gencube.spaces import StateSpaceSpec

import metrics

now = time.perf_counter

SQRT2 = math.sqrt(2.0)
ALLONES = BlochOp(np.ones(3))

# R = 1 cube thresholds and their closed forms (README "Reproduced values")
R1_THRESHOLDS = {
    "joint-depol": 2.0 / 3.0,
    "local-depol": 2.0 - SQRT2,
    "local-dephase": 1.0 - 1.0 / SQRT2,
}
R1_TOL = 1e-6


@dataclass
class Op:
    """One timed call and the outcome of its check."""

    kind: str
    key: tuple
    pass_no: int
    seconds: float
    value: object = None
    ok: bool | None = None      # None: part of another op, not checked alone
    known_defect: str | None = None
    detail: str = ""
    probe_at: int = 0           # speed probes taken before this call ended


# On a shared 2-core host the speed of this work drifts by +-15 % over
# minutes.  A run therefore takes a speed probe every PROBE_EVERY_S of timed
# calls, and the times on the result line are scaled to the reference
# machine's speed as judged by the probes around each call.
PROBE_EVERY_S = 0.5    # seconds of timed calls between two speed probes
PROBE_WINDOW = 6       # probes on each side of a call that judge its speed
PROBE_REF_S = 0.016    # the probe's median on the reference machine (2 cores,
                       # Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
_PROBE_A = np.random.default_rng(0).choice((-1.0, 1.0), size=(16, 64))


def speed_probe() -> float:
    """Seconds for a fixed piece of work shaped like the package's own:
    Fraction arithmetic, small numpy operations and two HiGHS solves.  It
    uses no package code, so a change to the package cannot move it."""
    t0 = now()
    acc = Fraction(0)
    for k in range(1, 900):
        acc += Fraction(k, k + 1) * Fraction(3, 7)
    a = np.zeros((4, 4))
    for k in range(900):
        a = a * 0.5 + k
        a.sum()
    for _ in range(2):
        linprog(np.zeros(64), A_eq=_PROBE_A, b_eq=_PROBE_A @ np.full(64, 1 / 64),
                bounds=(0, None), method="highs")
    return now() - t0


@dataclass
class RunResult:
    ops: list = field(default_factory=list)
    passes: int = 0
    probes: list = field(default_factory=list)
    _since_probe: float = PROBE_EVERY_S

    def of(self, kind):
        return [op for op in self.ops if op.kind == kind]

    def busy_s(self, kinds) -> float:
        """Time inside the timed calls of the given kinds."""
        return sum(op.seconds for op in self.ops if op.kind in kinds)

    def pass_seconds(self, kinds) -> list[float]:
        out = [0.0] * self.passes
        for op in self.ops:
            if op.kind in kinds:
                out[op.pass_no] += op.seconds
        return out

    def timed(self, kind, key, fn, *args) -> Op:
        t0 = now()
        value = fn(*args)
        op = Op(kind, key, self.passes, now() - t0, value, probe_at=len(self.probes))
        self.ops.append(op)
        self._since_probe += op.seconds
        if self._since_probe >= PROBE_EVERY_S:
            # nested closures in the sampler and the dense reference form
            # reference cycles that hold a call's arrays until a full
            # collection; collect here, untimed, so that peak RSS does not
            # depend on when the cyclic collector happens to run
            gc.collect()
        while self._since_probe >= PROBE_EVERY_S:
            self.probes.append(speed_probe())
            self._since_probe -= PROBE_EVERY_S
        return op

    def rescale(self) -> None:
        """Scale every call to the reference machine's speed, judged from the
        PROBE_WINDOW probes on each side of the call."""
        for op in self.ops:
            near = self.probes[max(0, op.probe_at - PROBE_WINDOW):op.probe_at + PROBE_WINDOW]
            op.seconds *= PROBE_REF_S / statistics.median(near)


# A run's length is a count of passes, not a deadline: a deadline would make
# the number of operations, and so of attempted and failed ones, depend on
# the host's speed.  The count is ``seconds`` over one pass's time on the
# reference machine (see PROBE_REF_S), and never below the passes the
# percentile rule needs.
PASS_PLAN = {           # workload: (seconds per pass at reference speed, minimum passes)
    "reproduce": (10.0, 3),     # 35 cube thresholds a pass; 3 passes give >= 100 samples
    "certify": (4.0, 4),        # 32 verdicts a pass; 4 passes give >= 100 samples
    "sample": (12.0, 2),        # 5 circuits a pass; medians only
}


def passes_for(workload: str, seconds: float) -> int:
    pass_s, minimum = PASS_PLAN[workload]
    return max(minimum, round(seconds / pass_s))


def _loop(res: RunResult, run_pass, passes: int) -> RunResult:
    while res.passes < passes:
        run_pass()
        res.passes += 1
    return res


def _tail(name, samples_ms):
    """The percentile rule's tail entry for a latency in ms, if any qualifies."""
    q = metrics.tail_percentile(len(samples_ms))
    if q is None:
        return {}
    return {f"{name}_p{q}": ("ms", metrics.percentile(samples_ms, q), len(samples_ms))}


# ---------------------------------------------------------------------------
# reproduce: thresholds, boundaries and sphere sweeps of the README table
# ---------------------------------------------------------------------------

# The curve grid is a fixed lattice.  Whether a cube threshold needs the exact
# fallback depends on where its last bisection probes fall relative to lambda*
# (within ~1e-7), which is pseudo-random in R: on any continuous grid about
# half the points fall back, at ~1.8x the cost.  A grid jittered per seed
# therefore moves the median between the fast and the fallback mode from seed
# to seed; a fixed lattice keeps the same mix for every seed.  The seed drives
# the order of the one-off values and of every pass.
CURVE_FAMILIES = ("joint-depol", "local-depol")
CURVE_R = tuple(round(0.65 + 0.05 * k, 2) for k in range(16))   # 0.65 .. 1.40
BRACKET = 1e-6

# README: "R = 0.544934" and "R = 1/sqrt(2)".  Allowed error: the boundary's
# own bisection tolerance (1e-6) plus half a unit of the README's last digit.
BOUNDARIES = {"local-depol": (0.544934, 1.5e-6), "joint-depol": (1.0 / SQRT2, 1.5e-6)}
# README: "lambda ~ 0.536" at R = 1.73 and "p ~ 0.395" at R = 1.16, three
# decimals, allowed one unit of the last digit; R = 1 joint depol is the EPR
# threshold 2/3, allowed the sphere-grid test tolerance.
SPHERES = {
    ("joint-depol", 1.73): (0.536, 1e-3),
    ("local-depol", 1.16): (0.395, 1e-3),
    ("joint-depol", 1.0): (2.0 / 3.0, 2e-3),
}
GRID_N = 60


def cube_query(family, R, policy="worst-vertex"):
    return thresholds.ThresholdQuery(family, StateSpaceSpec.cube(R), "cube-separable", policy)


def sphere_query(family, R, grid_n=GRID_N):
    return thresholds.ThresholdQuery(family, StateSpaceSpec.sphere(R), "quantum-separable",
                                     "sphere-grid", grid_n)


class ReproducePlan:
    """Every pass computes the cube thresholds and the sphere sweeps in a
    fresh order; pass 0 first computes the one-off values (boundaries, the
    all-vertices threshold).  Repeating the sphere sweeps in every pass
    spreads them over the run, so that their mean does not hang on the
    host's speed during a few seconds."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.passes: list[list] = []

    def inputs(self, i):
        while len(self.passes) <= i:
            calls = [("cube", (f, 1.0)) for f in R1_THRESHOLDS]
            calls += [("cube", (f, R)) for f in CURVE_FAMILIES for R in CURVE_R]
            calls += [("sphere", key) for key in SPHERES]
            self.rng.shuffle(calls)
            once = []
            if not self.passes:
                once = [("boundary", (f,)) for f in BOUNDARIES]
                once += [("all-vertices", ("joint-depol", 1.0))]
                self.rng.shuffle(once)
            self.passes.append(once + calls)
        return self.passes[i]


def _reproduce_call(kind, key):
    if kind == "cube":
        return thresholds.min_noise(cube_query(*key))
    if kind == "all-vertices":
        return thresholds.min_noise(cube_query(*key, policy="all-vertices"))
    if kind == "sphere":
        return thresholds.min_noise(sphere_query(*key))
    return thresholds.lhv_achievability_boundary(key[0])


def run_reproduce(plan: ReproducePlan, passes: int) -> RunResult:
    res = RunResult()

    def run_pass():
        for kind, key in plan.inputs(res.passes):
            res.timed(kind, key, _reproduce_call, kind, key)

    return _loop(res, run_pass, passes)


def _exact_feasible(family, R, lam) -> bool:
    """Exact membership of the pipeline output, which min_noise tests in the
    unit frame."""
    A = gates.pipeline(ALLONES, ALLONES, R, gates.NoiseModel(family, lam))
    status, _ = lp.solve_membership_exact([Fraction(float(x)) for x in A.coeffs.ravel()])
    return status == "feasible"


def check_reproduce(res: RunResult) -> None:
    first = {}
    for op in res.ops:
        vkey = (op.kind, op.key)
        if vkey not in first:
            first[vkey] = (op.value, *_check_value(op.kind, op.key, op.value))
        value, ok, detail = first[vkey]
        # a repeated pass must reproduce the first value bit for bit
        op.ok = ok and op.value == value
        op.detail = detail if op.value == value else f"{detail}; differs from first pass"


def _check_value(kind, key, value):
    if kind in ("cube", "all-vertices") and key[1] == 1.0:
        ref = R1_THRESHOLDS[key[0]]
        return abs(value - ref) <= R1_TOL, f"{value:.9f} vs {ref:.9f}"
    if kind == "cube":
        lo = _exact_feasible(*key, value - BRACKET)
        hi = _exact_feasible(*key, value + BRACKET)
        return (not lo) and hi, f"exact feasible at -/+{BRACKET:g}: {lo}/{hi}"
    if kind == "boundary":
        ref, tol = BOUNDARIES[key[0]]
        return abs(value - ref) <= tol, f"R*={value:.7f} vs {ref:.7f}"
    ref, tol = SPHERES[key]
    return abs(value - ref) <= tol, f"{value:.5f} vs {ref:.5f}"


def summarize_reproduce(res: RunResult) -> dict:
    cube_s = [op.seconds for op in res.of("cube")]
    cube_ms = [1e3 * s for s in cube_s]
    sphere_s = [op.seconds for op in res.of("sphere")]
    once_s = res.busy_s(("boundary", "all-vertices"))
    table_s = once_s + statistics.median(res.pass_seconds(("cube", "sphere")))
    return {
        "pass_s": ("s", table_s, res.passes),
        "rate_per_s": ("1/s", len(cube_s) / sum(cube_s), len(cube_s)),
        "call_ms_p50": ("ms", statistics.median(cube_ms), len(cube_ms)),
        "side_s_mean": ("s", statistics.fmean(sphere_s), len(sphere_s)),
        "named": {
            "reproduce_table_s": ("s", table_s, res.passes),
            "cube_threshold_ms_p50": ("ms", statistics.median(cube_ms), len(cube_ms)),
            **_tail("cube_threshold_ms", cube_ms),
            "sphere_threshold_s_p50": ("s", statistics.median(sphere_s), len(sphere_s)),
            "all_vertices_threshold_s": ("s", res.busy_s(("all-vertices",)), 1),
            "boundary_s_p50": ("s", statistics.median(op.seconds for op in res.of("boundary")),
                               len(res.of("boundary"))),
        },
    }


# ---------------------------------------------------------------------------
# certify: cube_separable verdicts cross-checked by the exact oracle
# ---------------------------------------------------------------------------

KNIFE_OFFSETS = (1e-6, 5e-8, 1e-8, 5e-9, -1e-6, -5e-8, -1e-8, -5e-9)
KNIFE_JITTER = 0.2   # each offset is scaled by 1 + U(-0.2, 0.2)
RANDOM_MAGNITUDES = (0, 0, 1, 1, 5, 5, 20, 20)  # percent; 0 leaves the point unperturbed
DUAL_SLACK_TOL = 1e-12
# One cycle: 8 criterion-12-style rational points and the 24 knife-edge points
# (3 families x 8 offsets).  Per cycle about 14 verdicts come back feasible
# from HiGHS (~4 ms), 12 infeasible (~7 ms) and 6 go to the exact fallback
# (50-190 ms), so the median sits inside the infeasible mode and p90 inside
# the fallback mode for every seed.


@dataclass(frozen=True)
class Query:
    label: str
    b: np.ndarray          # the 16 float coefficients actually asked


def random_rational(rng: random.Random, cols, magnitude: int) -> list[Fraction]:
    """Criterion 12's generator: a rational convex mix of 1..6 vertex columns,
    perturbed by up to ``magnitude`` percent per coefficient."""
    nterm = rng.randint(1, 6)
    idx = rng.sample(range(64), nterm)
    raw = [Fraction(rng.randint(1, 100)) for _ in range(nterm)]
    tot = sum(raw)
    b = [sum(r / tot * cols[j][i] for r, j in zip(raw, idx)) for i in range(16)]
    if magnitude:
        mag = Fraction(magnitude, 100)
        for i in range(1, 16):
            b[i] += mag * Fraction(rng.randint(-1000, 1000), 1000)
    return b


class CertifyPlan:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cols = lp.exact_vertex_columns()
        self.passes: list[list[Query]] = []

    def inputs(self, i) -> list[Query]:
        while len(self.passes) <= i:
            self.passes.append(self._cycle())
        return self.passes[i]

    def _cycle(self) -> list[Query]:
        rng = self.rng
        out = []
        for mag in RANDOM_MAGNITUDES:
            b = random_rational(rng, self.cols, mag)
            out.append(Query(f"random/{mag}%", np.array([float(x) for x in b])))
        for family, lam in R1_THRESHOLDS.items():
            for off in KNIFE_OFFSETS:
                d = off * (1.0 + KNIFE_JITTER * rng.uniform(-1.0, 1.0))
                A = gates.pipeline(ALLONES, ALLONES, 1.0, gates.NoiseModel(family, lam + d))
                out.append(Query(f"knife/{family}/{off:+.0e}", A.coeffs.ravel().copy()))
        rng.shuffle(out)
        return out


def _verdict_certificate_ok(q: Query, verdict) -> bool:
    """The verdict's own certificate, checked on the instance actually asked."""
    if verdict.feasible:
        return separability.verify_certificate(
            verdict.certificate, PauliCoeffs2Q(q.b.reshape(4, 4)), 1.0, lp.FEASIBILITY_TOL)
    y = verdict.functional.dual.ravel()
    V = lp.vertex_product_matrix()
    return float(np.min(V.T @ y)) >= -DUAL_SLACK_TOL and float(y @ q.b) < 0


def run_certify(plan: CertifyPlan, passes: int) -> RunResult:
    """Per query: decide, confirm with the exact oracle, check the certificate."""
    res = RunResult()

    def run_pass():
        for q in plan.inputs(res.passes):
            op = res.timed("decide", (q.label,), separability.cube_separable,
                           PauliCoeffs2Q(q.b.reshape(4, 4)))
            exact = res.timed("exact", (q.label,), lp.solve_membership_exact,
                              [Fraction(float(x)) for x in q.b])
            cert = res.timed("certificate", (q.label,), _verdict_certificate_ok, q, op.value)
            op.value = (q, op.value, exact.value, cert.value)

    _loop(res, run_pass, passes)
    for kind, fn, args in CERTIFY_EXTRAS:
        res.timed(kind, (), fn, *args)
    return res


def _appendix1_ok() -> bool:
    return all(item.valid and separability.verify_certificate(
        item.certificate, item.target, 1.0, 1e-12)
        for item in separability.appendix1_certificates())


def _bell_ok() -> bool:
    return all(separability.verify_certificate(cert, target, 1.0, 1e-12)
               for target, cert in (constructions.bell_cube_certificate(w)
                                    for w in ("phi+", "phi-", "psi+", "psi-")))


CERTIFY_EXTRAS = (      # lambdas look the functions up at call time, when traced
    ("epg-bounds", lambda: constructions.error_per_gate_bounds(), ()),
    ("lemma8", lambda a, e: constructions.lemma8_report(a, e), (0.998, 1e-3)),
    ("appendix1", _appendix1_ok, ()),
    ("bell", _bell_ok, ()),
)
CERTIFY_LOOP = ("decide", "exact", "certificate")


def exact_distance(b: list[Fraction], y: list[Fraction]) -> Fraction:
    """Lower bound -y.b / |y|_1 on the residual of any convex weights, from a
    Farkas functional y (y.V_j >= 0 for every column)."""
    return -sum(yi * bi for yi, bi in zip(y, b)) / sum(abs(yi) for yi in y)


def check_certify(res: RunResult) -> None:
    for op in res.ops:
        if op.kind == "decide":
            _check_verdict(op)
        elif op.kind == "epg-bounds":
            op.ok = op.value.lower == 0.2 and op.value.upper_feasible_count == 64
            op.detail = f"lower {op.value.lower} feasible {op.value.upper_feasible_count}/64"
        elif op.kind == "lemma8":
            # the documented known red: 48 of 64 vertex outputs feasible
            op.ok = op.value.vertex_feasible == 48
            op.detail = f"{op.value.vertex_feasible}/64 feasible"
        elif op.kind in ("appendix1", "bell"):
            op.ok = op.value


def _check_verdict(op: Op) -> None:
    q, verdict, (status, exact_cert), cert_ok = op.value
    bx = [Fraction(float(x)) for x in q.b]
    if verdict.feasible:
        # the oracle decides strict membership; a verdict feasible at tol is
        # refuted only when the Farkas functional puts the point beyond tol
        agrees = status == "feasible" or exact_distance(bx, exact_cert) <= lp.FEASIBILITY_TOL
    else:
        agrees = status == "infeasible"
    op.ok = cert_ok and agrees
    op.detail = (f"{q.label}: {verdict.method} feasible={verdict.feasible} "
                 f"exact={status} certificate={'ok' if cert_ok else 'bad'}")
    if not op.ok and verdict.method == "lp-exact" and verdict.feasible:
        # ROADMAP item 2: the fallback decides rationalize(x), not x
        snapped = [lp.rationalize(float(x)) for x in q.b]
        if snapped != bx and lp.solve_membership_exact(snapped)[0] == "feasible":
            op.known_defect = "rationalize"


def summarize_certify(res: RunResult) -> dict:
    decide_ms = [1e3 * op.seconds for op in res.of("decide")]
    exact_s = [op.seconds for op in res.of("exact")]
    certified = sum(op.ok for op in res.of("decide"))
    rate = certified / res.busy_s(CERTIFY_LOOP)
    cycle_s = statistics.median(res.pass_seconds(CERTIFY_LOOP))
    return {
        "pass_s": ("s", cycle_s, res.passes),
        "rate_per_s": ("1/s", rate, len(decide_ms)),
        "call_ms_p50": ("ms", statistics.median(decide_ms), len(decide_ms)),
        "side_s_mean": ("s", statistics.fmean(exact_s), len(exact_s)),
        "named": {
            "decide_ms_p50": ("ms", statistics.median(decide_ms), len(decide_ms)),
            **_tail("decide_ms", decide_ms),
            "certified_per_s": ("1/s", rate, len(decide_ms)),
            "exact_ms_p50": ("ms", 1e3 * statistics.median(exact_s), len(exact_s)),
            **{f"{kind}_s": ("s", res.busy_s((kind,)), 1) for kind, _, _ in CERTIFY_EXTRAS},
        },
    }


# ---------------------------------------------------------------------------
# sample: HN sampling against the dense reference
# ---------------------------------------------------------------------------

BATCH_QUBITS = (4, 5, 6, 7, 8)   # one circuit of each size per batch
REMEASURED_QUBITS = 6            # the size whose circuit repeats a measurement
SHOTS = 200_000
BODY_OPS = 36
BODY_CSIGNS = 16      # the rest of the body ops are Cliffords
FINAL_MEASURED = 3
# every circuit has one noisy CSIGN model per family (three gate tables); the
# lowest separable strengths are 2/3, 2-sqrt(2), 1-1/sqrt(2), so stay above them
NOISE_RANGES = {
    "joint-depol": (0.70, 0.95),
    "local-depol": (0.62, 0.95),
    "local-dephase": (0.32, 0.50),
}
AXES = ("X", "Y", "Z")
UNIT = {"X": (1.0, 0.0, 0.0), "Y": (0.0, 1.0, 0.0), "Z": (0.0, 0.0, 1.0)}
# TVD of n shots over K outcomes has mean <= 0.4 sqrt(K/n) and exceeds its
# mean by t with probability <= exp(-2 n t^2) (McDiarmid), so 3 sqrt(K/n)
# fails a correct sampler with probability below exp(-13 K).
TVD_SCALE = 3.0


@dataclass(frozen=True)
class SampleCircuit:
    circuit: object
    shot_seed: int


def repeats_measurement(circuit) -> bool:
    """Some qubit is measured again with no preparation in between."""
    measured = set()
    for op in circuit.ops:
        if isinstance(op, simulator.ClassicalControl):
            op = op.op
        if isinstance(op, simulator.Prepare):
            measured.discard(op.qubit)
        elif isinstance(op, simulator.Measure):
            if op.qubit in measured:
                return True
            measured.add(op.qubit)
    return False


def _random_prep(rng: random.Random, q: int):
    """A quantum preparation: an axis state, a cube direction, or a random
    direction inside the Bloch ball."""
    r = rng.random()
    if r < 0.3:
        v = np.array(UNIT[rng.choice(AXES)]) * rng.choice((1.0, -1.0))
    elif r < 0.6:
        v = np.array([rng.choice((1.0, -1.0)) for _ in range(3)]) / math.sqrt(3.0)
    else:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        v *= rng.uniform(0.5, 1.0) / np.linalg.norm(v)
    return simulator.Prepare(q, BlochOp(v))


def make_circuit(rng: random.Random, n: int, remeasure: bool) -> SampleCircuit:
    """A random adaptive circuit on n qubits in which every qubit is measured
    at most once, unless ``remeasure`` adds one repeated measurement."""
    S = simulator
    noises = [gates.NoiseModel(kind, rng.uniform(*lo_hi))
              for kind, lo_hi in sorted(NOISE_RANGES.items())]
    ops = [_random_prep(rng, q) for q in range(n)]
    live = list(range(n))
    # fixed op counts before and after the mid-circuit measurement (after it
    # the dense reference runs every op on two branches) keep the cost of a
    # circuit of given size the same for every seed; the CSIGNs cycle the
    # models so that all three are used
    mid = (3 * BODY_OPS) // 4
    before = BODY_CSIGNS * 3 // 4
    kinds = [k % len(noises) for k in range(BODY_CSIGNS)]
    head = kinds[:before] + [None] * (mid - before)
    tail = kinds[before:] + [None] * (BODY_OPS - mid - (BODY_CSIGNS - before))
    rng.shuffle(head)
    rng.shuffle(tail)
    kinds = iter(head + tail)

    def body_op():
        k = next(kinds)
        if k is not None:
            a, b = rng.sample(live, 2)
            return S.NoisyCsign(a, b, noises[k])
        return S.Clifford1(rng.choice(live), rng.choice("XYZSH"))

    ops += [body_op() for _ in range(mid)]
    # mid-circuit measurement; the measured qubit is not touched again, and
    # its record steers a Clifford and a body op on the others
    q = live.pop(rng.randrange(len(live)))
    ops.append(S.Measure(q, rng.choice(AXES), "m0"))
    ops.append(S.ClassicalControl("m0", rng.choice((1, -1)),
                                  S.Clifford1(rng.choice(live), rng.choice("XYZSH"))))
    ops.append(S.ClassicalControl("m0", rng.choice((1, -1)), body_op()))
    ops += [body_op() for _ in range(BODY_OPS - mid - 1)]
    for k, q in enumerate(rng.sample(live, FINAL_MEASURED)):
        ops.append(S.Measure(q, rng.choice(AXES), f"m{k + 1}"))
    if remeasure:
        # ROADMAP 4(a): prepare along B, measure A then B on the same qubit;
        # the quantum B outcome is 50/50, the HN sampler repeats its B bit
        q = rng.randrange(n)
        a, b = rng.sample(AXES, 2)
        ops.append(S.Prepare(q, BlochOp(np.array(UNIT[b]))))
        ops.append(S.Measure(q, a, "r0"))
        ops.append(S.Measure(q, b, "r1"))
    return SampleCircuit(S.Circuit(n, tuple(ops)), rng.randrange(2 ** 32))


class SamplePlan:
    """Each pass is a batch with one circuit of every size in BATCH_QUBITS;
    the REMEASURED_QUBITS one repeats a measurement."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.passes: list[list[SampleCircuit]] = []

    def inputs(self, i) -> list[SampleCircuit]:
        while len(self.passes) <= i:
            sizes = list(BATCH_QUBITS)
            self.rng.shuffle(sizes)
            self.passes.append([make_circuit(self.rng, n, n == REMEASURED_QUBITS)
                                for n in sizes])
        return self.passes[i]


def run_sample(plan: SamplePlan, passes: int) -> RunResult:
    res = RunResult()

    def run_pass():
        for sc in plan.inputs(res.passes):
            key = (sc.circuit.num_qubits,)
            op = res.timed("hn", key, simulator.simulate_hn, sc.circuit, SHOTS, sc.shot_seed)
            dense = res.timed("dense", key, simulator.simulate_dense, sc.circuit)
            op.value = (sc, op.value, dense.value)

    return _loop(res, run_pass, passes)


def tvd_bound(outcomes: int, shots: int) -> float:
    return TVD_SCALE * math.sqrt(max(outcomes, 2) / shots)


def check_sample(res: RunResult) -> None:
    for op in res.of("hn"):
        sc, hn, exact = op.value
        support = sum(p > 1e-12 for p in exact.values())
        dist = simulator.tvd(hn.histogram, exact)
        bound = tvd_bound(support, hn.shots)
        op.ok = dist <= bound
        op.detail = (f"{sc.circuit.num_qubits} qubits, {len(sc.circuit.ops)} ops, "
                     f"tvd {dist:.4f} bound {bound:.4f}")
        if not op.ok and repeats_measurement(sc.circuit):
            op.known_defect = "remeasure"


def summarize_sample(res: RunResult) -> dict:
    hn = res.of("hn")
    hn_s = [op.seconds for op in hn]
    dense_s = [op.seconds for op in res.of("dense")]
    shot_ops = sum(op.value[1].shots * len(op.value[0].circuit.ops) for op in hn)
    rate = shot_ops / sum(hn_s)
    batch_s = statistics.median(res.pass_seconds(("hn", "dense")))
    return {
        "pass_s": ("s", batch_s, res.passes),
        "rate_per_s": ("1/s", rate, len(hn_s)),
        "call_ms_p50": ("ms", 1e3 * statistics.median(hn_s), len(hn_s)),
        "side_s_mean": ("s", statistics.fmean(dense_s), len(dense_s)),
        "named": {
            "simulate_s_p50": ("s", statistics.median(hn_s), len(hn_s)),
            "shot_ops_per_s": ("1/s", rate, len(hn_s)),
            "dense_ref_s_p50": ("s", statistics.median(dense_s), len(dense_s)),
        },
    }


# ---------------------------------------------------------------------------
# warm-up: lazy set-up of each workload's path, untimed
# ---------------------------------------------------------------------------

def warm_up(workload: str) -> None:
    if workload == "reproduce":
        for family in R1_THRESHOLDS:
            thresholds.min_noise(cube_query(family, 1.0))
        thresholds.min_noise(sphere_query("joint-depol", 1.2, grid_n=6))
        _exact_feasible("joint-depol", 0.9, 0.7)
    elif workload == "certify":
        for q in CertifyPlan(-1).inputs(0)[:8]:
            separability.cube_separable(PauliCoeffs2Q(q.b.reshape(4, 4)))
            lp.solve_membership_exact([Fraction(float(x)) for x in q.b])
    else:
        sc = make_circuit(random.Random(-1), 4, False)
        simulator.simulate_hn(sc.circuit, 1000, 0)
        simulator.simulate_dense(sc.circuit)


WORKLOADS = {
    "reproduce": (ReproducePlan, run_reproduce, check_reproduce, summarize_reproduce),
    "certify": (CertifyPlan, run_certify, check_certify, summarize_certify),
    "sample": (SamplePlan, run_sample, check_sample, summarize_sample),
}
