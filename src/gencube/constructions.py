"""Bespoke constructions: the magic-basis Choi-Jamiolkowski channel, the
error-per-gate bounds, the Bell-state certificate, the impossibility
arguments for state spaces beyond the Bloch sphere, and the exact radius of
the separable ball around non-Pauli product states.  Each verification
bundle states its pass criteria here, beside the quantities it checks, as
(label, passed, detail) rows: a report's checks() or a *_checks() function.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .dense import partial_trace, partial_transpose_qubits, permute_qubits
from .gates import NoiseModel, clifford1, csign, pipeline_rows
from .pauli import (
    PAULIS,
    PT_SIGNS,
    BlochOp,
    DenseHermitian,
    PauliCoeffs2Q,
    bloch_from_dense,
    bloch_to_dense,
    born_probability,
    choi_transfer_matrix,
    dense_rows,
    eigenvalues_hermitian,
    product,
    product_rows,
)
from .separability import (LhvCertificate, pauli_margins, slack, verify_certificate,
                           vertex_pair_index)
from .spaces import CUBE_SIGNS

__all__ = [
    "MagicBasis",
    "MAGIC",
    "W_MAGIC",
    "CjState",
    "build_cj",
    "cj_apply",
    "Lemma8Report",
    "lemma8_report",
    "lemma8_noise_window",
    "find_lemma8_params",
    "lemma8_checks",
    "EpgBounds",
    "error_per_gate_bounds",
    "bell_cube_certificate",
    "bell_checks",
    "BELL_CONSTRAINTS",
    "Appendix2Report",
    "appendix2_checks",
    "appendix3_checks",
    "separable_ball_radius",
    "vertex_orbit",
    "orbit_checks",
]

W_MAGIC = (math.sqrt(3.0) + 1.0) / 2.0

_MAX_BALL_RADIUS = 1.0      # cap of separable_ball_radius
_PROBE_B_BLOCH = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0))  # |0>, |1>, |+>


def _magic_kets():
    n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    obs = n[0] * PAULIS[1] + n[1] * PAULIS[2] + n[2] * PAULIS[3]
    vals, vecs = np.linalg.eigh(obs)
    kets = [vecs[:, 0].copy(), vecs[:, 1].copy()]  # ascending: -1 then +1
    for k in kets:
        i = int(np.argmax(np.abs(k)))
        k *= np.exp(-1j * np.angle(k[i]))
    return kets[1], kets[0]  # (|T>, |Tbar>)


@dataclass(frozen=True)
class MagicBasis:
    """The magic qubit along sqrt(1/3)(1,1,1) and its orthogonal partner."""

    t_state: np.ndarray
    t_bar_state: np.ndarray

    @property
    def t_projector(self) -> np.ndarray:
        return np.outer(self.t_state, self.t_state.conj())

    @property
    def t_bar_projector(self) -> np.ndarray:
        return np.outer(self.t_bar_state, self.t_bar_state.conj())


MAGIC = MagicBasis(*_magic_kets())


@dataclass(frozen=True)
class CjState:
    """16x16 Choi state on qubits ordered (A1, B1, A2, B2); inputs first."""

    rho: DenseHermitian

    @functools.cached_property
    def transfer(self) -> np.ndarray:
        """The channel's 16 x 16 transfer matrix on flattened coefficient
        matrices (pauli.choi_transfer_matrix of rho)."""
        return choi_transfer_matrix(self.rho)


def build_cj(alpha: float, epsilon: float, noise: float = 0.0) -> CjState:
    """Assemble the two-term magic-basis Choi state, optionally mixed with
    white noise: (1 - noise) rho + noise I/16.

    The amplitudes are real nonnegative with beta, gamma fixed by
    normalization and delta by the trace-preservation constraint
    (1/2+eps) alpha^2 + (1/2-eps) delta^2 = 1/2; parameters that push
    delta^2 outside [0, 1] are rejected.  The mixture weights 1/2 +- eps
    must be nonnegative and 1/2 - eps divides the constraint, so eps must
    lie in [-1/2, 1/2).  The noise term is itself trace
    preserving, so the input marginal stays I/4; on outputs it acts as
    out -> (1 - noise) out + noise I/4.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not -0.5 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [-1/2, 1/2)")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    d2 = (0.5 - (0.5 + epsilon) * alpha * alpha) / (0.5 - epsilon)
    if not -1e-15 <= d2 <= 1.0:
        raise ValueError(f"constraint gives delta^2 = {d2:.3e} outside [0, 1]")
    d2 = max(d2, 0.0)
    beta = math.sqrt(max(1.0 - alpha * alpha, 0.0))
    delta = math.sqrt(d2)
    gamma = math.sqrt(1.0 - d2)
    kT, kTb = MAGIC.t_state, MAGIC.t_bar_state
    # pure parts live on (A1, A2, B2)
    psi1 = alpha * np.kron(kT, np.kron(kT, kT)) + beta * np.kron(kTb, np.kron(kTb, kTb))
    psi2 = gamma * np.kron(kTb, np.kron(kT, kTb)) + delta * np.kron(kT, np.kron(kTb, kT))
    mix = (0.5 + epsilon) * np.kron(np.outer(psi1, psi1.conj()), np.eye(2) / 2) \
        + (0.5 - epsilon) * np.kron(np.outer(psi2, psi2.conj()), np.eye(2) / 2)
    # current order (A1, A2, B2, B1) -> (A1, B1, A2, B2)
    rho = permute_qubits(mix, [0, 3, 1, 2])
    if noise:
        rho = (1.0 - noise) * rho + noise * np.eye(16) / 16.0
    return CjState(DenseHermitian(rho))


def cj_apply(cj: CjState, A: PauliCoeffs2Q) -> PauliCoeffs2Q:
    """Apply the channel to a two-particle coefficient matrix: one product
    with its transfer matrix, CjState.transfer.

    The channel is rho -> 4 tr_in[(rho^T (x) I) CJ] with the transpose on
    the input slots; the convention is pinned by the identity-channel round
    trip.
    """
    if not A.is_normalized:
        raise ValueError("cj_apply expects a normalized input")
    return PauliCoeffs2Q((cj.transfer @ A.coeffs.ravel()).reshape(4, 4))


@dataclass(frozen=True)
class Lemma8Report:
    alpha: float
    epsilon: float
    noise: float                    # white-noise weight of the Choi state
    marginal_deviation: float       # || tr_out CJ - I/4 ||_max
    vertex_feasible: int            # of 64
    infeasible_inputs: tuple        # (u, v) sign tuples that failed
    vertex_min_born: float          # min Pauli Born probability, 64 vertex outputs
    output_min_pt: float            # min PT eigenvalue, A in (|T>+|Tbar>)/sqrt2
    a2_bloch_distance: float        # distance of the A2 marginal to the T axis
    cj_min_pt_inout: float          # PT over the (A1,B1):(A2,B2) split
    cj_min_pt_ab: float             # PT over the (A1,A2):(B1,B2) split

    @property
    def all_vertices_feasible(self) -> bool:
        return self.vertex_feasible == 64

    def checks(self) -> tuple:
        """The Lemma 8 criteria as (label, passed, detail) rows: the
        marginal and output-entanglement requirements first, then the Choi
        state's two PT splits and the 64 vertex outputs."""
        return (
            ("CJ marginal is I/4", self.marginal_deviation < 1e-10,
             f"dev {self.marginal_deviation:.2e}"),
            ("output non-PPT for (|T>+|Tbar>)/sqrt2 input", self.output_min_pt < -1e-8,
             f"min PT {self.output_min_pt:.2e}"),
            ("CJ non-PPT across input:output split", self.cj_min_pt_inout < -1e-9,
             f"{self.cj_min_pt_inout:.2e}"),
            ("CJ non-PPT across A:B split", self.cj_min_pt_ab < -1e-9,
             f"{self.cj_min_pt_ab:.2e}"),
            ("all 64 vertex outputs cube-separable", self.all_vertices_feasible,
             f"{self.vertex_feasible}/64 at alpha={self.alpha}, eps={self.epsilon}, "
             f"noise={self.noise:.3e}"),
        )

    def as_lines(self) -> list[str]:
        return [
            f"alpha: {self.alpha!r}",
            f"epsilon: {self.epsilon!r}",
            f"noise: {self.noise!r}",
            f"marginal_deviation: {self.marginal_deviation:.3e}",
            f"vertex_feasible: {self.vertex_feasible}/64",
            f"vertex_min_born: {self.vertex_min_born:.6e}",
            f"output_min_pt: {self.output_min_pt:.6e}",
            f"a2_bloch_distance_to_T: {self.a2_bloch_distance:.6e}",
            f"cj_min_pt_inout_split: {self.cj_min_pt_inout:.6e}",
            f"cj_min_pt_ab_split: {self.cj_min_pt_ab:.6e}",
        ]


def lemma8_report(alpha: float, epsilon: float, noise: float = 0.0) -> Lemma8Report:
    """Run every check of the magic-basis channel at the given parameters."""
    cj = build_cj(alpha, epsilon, noise)
    rho = cj.rho.entries
    marg = partial_trace(rho, [0, 1], 4)
    marg_dev = float(np.max(np.abs(marg - np.eye(4) / 4)))
    pt_inout = float(eigenvalues_hermitian(
        partial_transpose_qubits(rho, [0, 1], 4))[0])
    pt_ab = float(eigenvalues_hermitian(
        partial_transpose_qubits(rho, [0, 2], 4))[0])

    # one stack through the channel: the 64 vertex products (row 0 is the
    # all-ones pair), then A in (|T>+|Tbar>)/sqrt2 with B in |0>, |1>, |+>
    plus_t = (MAGIC.t_state + MAGIC.t_bar_state) / math.sqrt(2.0)
    a_probe = bloch_from_dense(np.outer(plus_t, plus_t.conj())).bloch
    probes = product_rows(np.tile(a_probe, (3, 1)), np.array(_PROBE_B_BLOCH))
    outs = np.concatenate((lp.vertex_product_matrix().T, probes)) @ cj.transfer.T
    vertex_outs, probe_outs = outs[:64], outs[64:]
    worst_pt = float(np.linalg.eigvalsh(dense_rows(probe_outs * PT_SIGNS))[:, 0].min())

    # A2 marginal direction for a generic vertex input
    a2 = vertex_outs[0].reshape(4, 4)[1:, 0]
    t_dir = np.ones(3) / math.sqrt(3.0)
    a2_dist = float(np.linalg.norm(a2 - (a2 @ t_dir) * t_dir))

    min_born = float(pauli_margins(vertex_outs).min())
    feasible = slack("cube-separable", vertex_outs) >= 0.0
    fails = tuple((tuple(CUBE_SIGNS[k // 8].tolist()), tuple(CUBE_SIGNS[k % 8].tolist()))
                  for k in np.flatnonzero(~feasible))
    return Lemma8Report(
        alpha=alpha, epsilon=epsilon, noise=noise, marginal_deviation=marg_dev,
        vertex_feasible=int(feasible.sum()), infeasible_inputs=fails,
        vertex_min_born=min_born, output_min_pt=worst_pt, a2_bloch_distance=a2_dist,
        cj_min_pt_inout=pt_inout, cj_min_pt_ab=pt_ab,
    )


def lemma8_noise_window(rep: Lemma8Report) -> tuple[float, float]:
    """White-noise weights (p0, p1) between which a noiseless report's
    channel has no negative vertex Born probability yet stays entangling.

    Mixing the Choi state with weight p of I/16 maps every output to
    (1-p) out + p I/4, so each Born probability m becomes (1-p) m + p/4 and
    each output PT eigenvalue lam becomes (1-p) lam + p/4.  The first is
    nonnegative for p >= -4m/(1-4m), the second negative for
    p < -4 lam/(1-4 lam).  The window is empty (p0 >= p1) when the
    channel is not entangling or its worst Born probability is lower than
    its worst PT eigenvalue.
    """
    if rep.noise:
        raise ValueError("the noise window is derived from a noiseless report")
    m, lam = rep.vertex_min_born, rep.output_min_pt
    p0 = max(-4.0 * m / (1.0 - 4.0 * m), 0.0)
    p1 = max(-4.0 * lam / (1.0 - 4.0 * lam), 0.0)
    return p0, p1


def find_lemma8_params(alphas=(0.998, 0.995, 0.999, 0.99, 0.9995),
                       epsilons=(1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)):
    """Search the parameter grid for a point passing all Lemma 8 checks.

    Each (alpha, eps) is tried noiseless first.  When some vertex outputs
    are not cube-separable, it is tried once more with the white-noise
    weight at the midpoint of `lemma8_noise_window` of the noiseless report,
    when that window is not empty.

    Returns (report, searched) where report is the first fully passing
    configuration or, failing that, the one with the most feasible vertex
    outputs among those meeting the PT and marginal requirements.
    """
    best = None
    searched = []

    def consider(rep):
        nonlocal best
        searched.append(rep)
        passed = [ok for _, ok, _ in rep.checks()]
        marginal_ok, entangling_ok = passed[:2]
        if marginal_ok and entangling_ok:
            if best is None or rep.vertex_feasible > best.vertex_feasible:
                best = rep
        return all(passed)

    for alpha in alphas:
        for eps in epsilons:
            try:
                rep = lemma8_report(alpha, eps)
            except ValueError:
                continue
            if consider(rep):
                return rep, searched
            if rep.all_vertices_feasible:
                continue
            p0, p1 = lemma8_noise_window(rep)
            if p0 < p1:
                rep = lemma8_report(alpha, eps, noise=0.5 * (p0 + p1))
                if consider(rep):
                    return rep, searched
    return best, searched


def lemma8_checks() -> tuple:
    """The rows of the report find_lemma8_params returns on its default
    grid, or one failing row when no candidate met the PT and marginal
    checks."""
    rep, _ = find_lemma8_params()
    if rep is None:
        return (("lemma8 parameter search", False, "no candidate met PT/marginal checks"),)
    return rep.checks()


# ---------------------------------------------------------------------------
# Error-per-gate bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpgBounds:
    lower: float
    upper: float
    w_identity_residual: float
    w_square_identity: float            # w^2 + (w-1)^2 (should be 2)
    upper_feasible_count: int           # of 64 vertex inputs

    def checks(self) -> tuple:
        """Both bounds' criteria as (label, passed, detail) rows."""
        return (
            ("lower bound equals 1/5 exactly", self.lower == 0.2, ""),
            ("magic identity residual < 1e-12", self.w_identity_residual < 1e-12,
             f"{self.w_identity_residual:.2e}"),
            ("w^2+(w-1)^2 = 2", abs(self.w_square_identity - 2.0) < 1e-12, ""),
            ("50% one-arm dephasing feasible on all 64 vertices",
             self.upper_feasible_count == 64, f"{self.upper_feasible_count}/64"),
        )


def error_per_gate_bounds() -> EpgBounds:
    """Both bounds on the adversarial error-per-gate rate.

    Lower bound: the corner operator expands as w T - (w-1) Tbar with
    w = (sqrt(3)+1)/2, any CP image is bounded by w^2 + (w-1)^2 = 2 per
    outcome, and balancing the -1/2 probability of the clean gate gives
    (1-lam)(-1/2) + 2 lam >= 0, i.e. lam >= 1/5.  Upper bound: dephasing
    one arm completely (Z with probability 1/2) commutes through the gate
    and leaves every vertex product cube-separable.  It zeroes the first
    arm's X and Y coefficient rows of each of the 64 clean outputs, which
    are counted with one cube slack.
    """
    corner = (PAULIS[0] + PAULIS[1] + PAULIS[2] + PAULIS[3]) / 2.0
    resid = float(np.max(np.abs(
        corner - (W_MAGIC * MAGIC.t_projector - (W_MAGIC - 1.0) * MAGIC.t_bar_projector)
    )))
    wsq = W_MAGIC ** 2 + (W_MAGIC - 1.0) ** 2
    lower = 0.5 / (0.5 + 2.0)

    dephased = csign(lp.vertex_product_matrix().T)
    dephased[:, 4:12] = 0.0     # rows X and Y of the first arm, flattened
    feasible = int(np.count_nonzero(slack("cube-separable", dephased) >= 0.0))
    return EpgBounds(lower, 0.5, resid, wsq, feasible)


# ---------------------------------------------------------------------------
# Bell-state certificates
# ---------------------------------------------------------------------------

# sign constraints (sx, sy, sz) meaning x1 = sx x2, y1 = sy y2, z1 = sz z2
BELL_CONSTRAINTS = {
    "phi+": (1, -1, 1),
    "phi-": (-1, 1, 1),
    "psi+": (1, 1, -1),
    "psi-": (-1, -1, -1),
}


def bell_cube_certificate(which: str = "phi+") -> tuple[PauliCoeffs2Q, LhvCertificate]:
    """Uniform 8-term certificate for a Bell state's coefficient matrix."""
    try:
        sx, sy, sz = BELL_CONSTRAINTS[which]
    except KeyError:
        raise ValueError(f"unknown Bell state {which!r}") from None
    target = np.zeros((4, 4))
    target[0, 0] = 1.0
    target[1, 1], target[2, 2], target[3, 3] = sx, sy, sz
    w = np.zeros(64)
    w[vertex_pair_index(CUBE_SIGNS, CUBE_SIGNS * (sx, sy, sz))] = 1.0 / 8.0
    return PauliCoeffs2Q(target), LhvCertificate(w, 1e-12)


def bell_checks() -> tuple:
    """Each Bell state's certificate, rechecked on its target, as a
    (label, passed, detail) row."""
    rows = []
    for which in BELL_CONSTRAINTS:
        target, cert = bell_cube_certificate(which)
        rows.append((f"Bell {which} cube certificate", verify_certificate(cert, target), ""))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Impossibility arguments (state spaces beyond the Bloch sphere)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Appendix2Report:
    stated_probability: float
    over_unit_trials: int
    over_unit_violations: int
    unit_ball_trials: int
    unit_ball_violations: int

    def checks(self) -> tuple:
        """Both arguments' criteria as (label, passed, detail) rows."""
        return (
            ("stated vertex probability equals -1/2", self.stated_probability == -0.5,
             f"got {self.stated_probability!r}"),
            ("witnesses found for all over-unit vectors",
             self.over_unit_violations == self.over_unit_trials,
             f"{self.over_unit_violations}/{self.over_unit_trials}"),
            ("no witnesses for unit-ball vectors", self.unit_ball_violations == 0,
             f"{self.unit_ball_violations}/{self.unit_ball_trials}"),
        )


def appendix2_checks(n_samples: int = 1000, seed: int = 2024) -> Appendix2Report:
    """Reproduce both impossibility arguments numerically.

    (i) the clean gate on the stated vertex pair yields probability -1/2;
    (ii) every Bloch vector v outside the unit ball has a direction V with
    Born probability (1 + v.V)/2 < 0, while no unit-ball vector has one.
    The least Born probability over all directions is the least eigenvalue
    of v's dense operator, counted below 0 outside the ball and below
    -1e-12 inside it.
    """
    u = BlochOp(np.array([1.0, 1.0, 1.0]))          # (x, y, z)
    v = BlochOp(np.array([1.0, 1.0, -1.0]))         # (A, B, C) with C = -1
    out = csign(product(u, v))
    stated = born_probability(out, "X", 1, "X", -1)

    rng = np.random.default_rng(seed)

    def random_unit(n):
        w = rng.standard_normal((n, 3))
        return w / np.linalg.norm(w, axis=1, keepdims=True)

    def least_born(vectors):
        return np.array([eigenvalues_hermitian(bloch_to_dense(BlochOp(v)))[0]
                         for v in vectors])

    over = random_unit(n_samples) * (1.0 + rng.uniform(0.001, 1.0, (n_samples, 1)))
    over_viol = int(np.sum(least_born(over) < 0))
    inside = random_unit(n_samples) * rng.uniform(0.0, 1.0, (n_samples, 1))
    inside_viol = int(np.sum(least_born(inside) < -1e-12))
    return Appendix2Report(stated, n_samples, over_viol, n_samples, inside_viol)


def appendix3_checks() -> tuple:
    """Appendix 3's symmetry as (label, passed, detail) rows, one per
    seeded trial (angles, R and a joint-depolarizing strength): turning the
    first input of the noisy CSIGN by pi in the x-z plane, theta ->
    theta + pi, leaves the spectra of its output and of the output's
    partial transpose unchanged (atol 1e-10)."""
    rng = np.random.default_rng(99)
    rows = []
    for trial in range(5):
        th, ph = rng.uniform(0, math.pi / 2, 2)
        R = rng.uniform(0.8, 1.6)
        noise = NoiseModel("joint-depol", rng.uniform(0.1, 0.9))
        # first inputs at theta and theta + pi, second at phi, all in the x-z plane
        xz = np.array([[math.cos(t), 0.0, math.sin(t)] for t in (th, th + math.pi, ph, ph)])
        outs = pipeline_rows(product_rows(xz[:2], xz[2:]), R, noise)
        spec = np.linalg.eigvalsh(dense_rows(np.concatenate((outs, outs * PT_SIGNS))))
        rows.append((f"theta -> theta+pi spectrum invariance (trial {trial})",
                     np.allclose(spec[0::2], spec[1::2], atol=1e-10), ""))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Separable ball (the ball-existence lemma)
# ---------------------------------------------------------------------------


def separable_ball_radius(a: BlochOp, b: BlochOp) -> float:
    """Radius, capped at 1, of the largest ball in the 15-dimensional
    non-identity coefficient space around the product of two states that
    stays cube-separable.

    A perturbation d leaves the identity coefficient alone, so facet f
    holds on the whole ball of radius r around c iff f.c >= r |f_1:|, f_1:
    being f without its identity entry.  The radius is the least
    f.c / |f_1:| over the 684 facets, reached along -f_1: of the least.
    Centers outside the polytope, or on its boundary like the cube-face
    states, report 0.
    """
    values = lp.facet_values(product(a, b).coeffs.ravel())
    norms = np.linalg.norm(lp.facet_table()[:, 1:], axis=1)
    return float(np.clip((values / norms).min(), 0.0, _MAX_BALL_RADIUS))


def vertex_orbit() -> list[tuple[int, int, int]]:
    """The X/Y/S gate cycle that visits all eight cube corners."""
    seq = ["X", "Y", "X", "S", "X", "Y", "X"]
    state = BlochOp(np.ones(3))
    orbit = [tuple(int(x) for x in state.bloch)]
    for g in seq:
        state = clifford1(state, g)
        orbit.append(tuple(int(x) for x in state.bloch))
    return orbit


def orbit_checks() -> tuple:
    """The vertex orbit's criterion as one (label, passed, detail) row."""
    orbit = vertex_orbit()
    return (("X/Y/S cycle visits all 8 vertices", len(set(orbit)) == len(orbit) == 8,
             f"{orbit}"),)
