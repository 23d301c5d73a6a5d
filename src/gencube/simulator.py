"""Sampling simulator for adaptive circuits whose two-qubit gates are
cube-separable, plus a dense density-matrix reference for cross-validation,
which applies each op to its own qubits' tensor axes of rho, at O(4^n).

The sampler stores one byte per qubit per shot, a cube vertex's index
(spaces.vertex_index): bits 2, 1, 0 are set on its -1 signs along X, Y, Z.
Preparations sample a vertex from the per-axis product rule, each noisy
CSIGN samples a vertex pair (index 8 v1 + v2) from a cached LHV certificate
of the gate's action on the current pair, Cliffords permute vertices, and a
measurement records 1 - 2 b of the measured axis's bit b and then redraws
the other two bits uniformly: the post-measurement Pauli eigenstate is the
centre of a cube face, the uniform mixture of its four corners.

A gate's 64 certificates are the appendix's closed-form LHV weights of
its output on the all-ones vertex pair, moved onto every other pair by a
local signed setting permutation: these map the product polytope onto
itself, and all 64 pairs are one orbit.  Each pair's map is found once per
process.  A gate's verdict is the separability oracle's on its all-ones
output, and its 64 permuted certificates are rechecked on their own
outputs in one pass; no LP is solved.
A gate's table is the CDF of its all-ones weights, one for all 64 input
pairs, and the pair each entry selects for each input pair.  A CSIGN draws the next pair of
all its shots by inverse CDF through a guide table of GUIDE_BUCKETS
buckets of [0, 1): one read per shot, except for the few shots whose
bucket holds a CDF entry, which search the CDF with np.searchsorted.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dense import (
    conjugate_qubit,
    csign_pair,
    dephase_qubit,
    depolarize_qubit,
    joint_depolarize_pair,
    prepare_qubit,
)
from . import lp
from .gates import CLIFFORD_ACTIONS, CLIFFORD_UNITARIES, NoiseModel, pipeline_rows
from .pauli import AXES, PAULIS, BlochOp, PauliCoeffs2Q, axis_index, bloch_to_dense
from .separability import csign_lhv_weights, cube_decide
from .spaces import CUBE_SIGNS, VERTEX_PERMS, StateSpaceSpec, contains, vertex_index

__all__ = [
    "DENSE_MAX_QUBITS",
    "Prepare",
    "Clifford1",
    "NoisyCsign",
    "Measure",
    "ClassicalControl",
    "Circuit",
    "CircuitNotSimulableError",
    "parse_circuit",
    "SimResult",
    "simulate_hn",
    "simulate_dense",
    "tvd",
    "histogram_to_csv",
]

RNG_NAME = "PCG64"
DENSE_MAX_QUBITS = 8        # the dense reference holds a 4^n density matrix


@dataclass(frozen=True)
class Prepare:
    qubit: int
    state: BlochOp


@dataclass(frozen=True)
class Clifford1:
    qubit: int
    gate: str


@dataclass(frozen=True)
class NoisyCsign:
    qubit1: int
    qubit2: int
    noise: NoiseModel


@dataclass(frozen=True)
class Measure:
    qubit: int
    axis: str
    record_id: str


@dataclass(frozen=True)
class ClassicalControl:
    record_id: str
    value: int  # +1 or -1
    op: object  # any non-control op


def _check_op(op, n: int, nested: bool = False) -> None:
    """Raise ValueError unless op is well formed on an n-qubit circuit."""
    if isinstance(op, Prepare):
        if not 0 <= op.qubit < n:
            raise ValueError("qubit index out of range")
        if not np.all(np.abs(op.state.bloch) <= 1.0):  # NaN fails too
            raise ValueError(f"preparation outside the unit cube: {op.state.bloch}")
        if not op.state.is_normalized:
            raise ValueError("preparation must be normalized (trace_coeff = 1); "
                             f"got {op.state.trace_coeff}")
    elif isinstance(op, Clifford1):
        if not 0 <= op.qubit < n or op.gate not in ("X", "Y", "Z", "S", "H"):
            raise ValueError("bad Clifford op")
    elif isinstance(op, NoisyCsign):
        if not (0 <= op.qubit1 < n and 0 <= op.qubit2 < n and op.qubit1 != op.qubit2):
            raise ValueError("bad CSIGN qubits")
    elif isinstance(op, Measure):
        if not 0 <= op.qubit < n or op.axis not in AXES:
            raise ValueError("bad measurement")
    elif isinstance(op, ClassicalControl):
        if nested or op.value not in (1, -1):
            raise ValueError("bad classical control")
        _check_op(op.op, n, nested=True)
    else:
        raise TypeError(f"unknown op {op!r}")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    ops: tuple

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        # made a tuple first: checking an iterator would use it up
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            _check_op(op, self.num_qubits)
        written = set(self.record_ids())
        for op in self.ops:
            if isinstance(op, ClassicalControl) and op.record_id not in written:
                raise ValueError(f"ifeq reads record id {op.record_id!r}, "
                                 "which no measurement writes")

    def record_ids(self) -> list[str]:
        rids = []

        def visit(op):
            if isinstance(op, Measure) and op.record_id not in rids:
                rids.append(op.record_id)
            elif isinstance(op, ClassicalControl):
                visit(op.op)

        for op in self.ops:
            visit(op)
        return sorted(rids)


class CircuitNotSimulableError(RuntimeError):
    """A gate in the circuit is not cube-separable; HN sampling is invalid."""


# tokens of each op line, the keyword included; ifeq takes an op after its
# record id and value
_OP_TOKENS = {"prep": 5, "clif": 3, "csign": 5, "meas": 4}


def _parse_op(tokens):
    kind = tokens[0]
    if kind == "ifeq":
        if len(tokens) < 4:
            raise ValueError("ifeq takes a record id, a value and an op")
        return ClassicalControl(tokens[1], int(tokens[2]), _parse_op(tokens[3:]))
    if kind not in _OP_TOKENS:
        raise ValueError(f"unknown op {kind!r}")
    if len(tokens) != _OP_TOKENS[kind]:
        raise ValueError(f"{kind} takes {_OP_TOKENS[kind] - 1} arguments; "
                         f"got {len(tokens) - 1}")
    if kind == "prep":
        b = np.array([float(x) for x in tokens[2:5]])
        return Prepare(int(tokens[1]), BlochOp(b))
    if kind == "clif":
        return Clifford1(int(tokens[1]), tokens[2])
    if kind == "csign":
        return NoisyCsign(int(tokens[1]), int(tokens[2]),
                          NoiseModel(tokens[3], float(tokens[4])))
    return Measure(int(tokens[1]), tokens[2], tokens[3])


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    qubits N
    prep q bx by bz
    clif q X|Y|Z|S|H
    csign q1 q2 joint-depol|local-depol|local-dephase param
    meas q X|Y|Z rid
    ifeq rid +1|-1 <op...>

    A malformed line, a second qubits line, or an op that does not fit the
    declared width raises ValueError naming the line.
    """
    num_qubits = None
    ops = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "qubits":
                if num_qubits is not None:
                    raise ValueError(f"qubits already declared as {num_qubits}")
                if len(tokens) != 2:
                    raise ValueError("qubits takes 1 argument")
                num_qubits = int(tokens[1])
                if num_qubits < 1:
                    raise ValueError("a circuit needs at least one qubit")
                continue
            if num_qubits is None:
                raise ValueError("circuit must declare qubits first")
            op = _parse_op(tokens)
            _check_op(op, num_qubits)
            ops.append(op)
        except ValueError as exc:
            raise ValueError(f"circuit line {lineno} {line!r}: {exc}") from None
    if num_qubits is None:
        raise ValueError("circuit must declare qubits")
    return Circuit(num_qubits, tuple(ops))


# ---------------------------------------------------------------------------
# Gate tables
# ---------------------------------------------------------------------------


def _vertex_pair_outputs(noise: NoiseModel) -> np.ndarray:
    """The gate's output on each of the 64 vertex pairs, one row of 16 per
    pair; row 0 is the all-ones pair."""
    return pipeline_rows(lp.vertex_product_matrix().T, 1.0, noise)


@functools.cache
def _pair_maps() -> np.ndarray:
    """Row p: the vertex-pair permutation, 8 i + j -> 8 VERTEX_PERMS[a, i] +
    VERTEX_PERMS[b, j], of the first map (g_a, g_b) of lp.local_images whose
    image of the noiseless CSIGN output on the all-ones pair is the
    noiseless output on pair p.  It moves weights of pair 0 onto pair p; the
    gate tables recheck every such row on its own noisy output."""
    outputs = _vertex_pair_outputs(NoiseModel("joint-depol", 0.0))
    images = lp.local_images(outputs[0].reshape(4, 4))
    first = (images[None, :, :] == outputs[:, None, :]).all(axis=2).argmax(axis=1)
    a, b = np.divmod(first, 48)
    maps = (8 * VERTEX_PERMS[a][:, :, None] + VERTEX_PERMS[b][:, None, :]).reshape(64, 64)
    maps.setflags(write=False)
    return maps


def _gate_weights(noise: NoiseModel) -> np.ndarray:
    """LHV weights w0 of the gate's output on the all-ones vertex pair: the
    closed-form appendix weights (csign_lhv_weights), clipped at 0.

    The verdict is cube_decide's on that output.  The oracle's rule reads
    only facet values, which the symmetries moving pair 0 onto the others
    permute, so the gate is accepted exactly where the oracle accepts each
    of its 64 pair outputs, margins in [-tol, 0) included, where a leading
    weight can come out slightly negative.  Row p of the 64 x 64
    weights, w0 moved onto pair p by _pair_maps, is then rechecked on pair
    p's own output with verify_certificate's three conditions at
    lp.FEASIBILITY_TOL, all rows at once; a row that fails is refused.
    """
    outputs = _vertex_pair_outputs(noise)
    if not cube_decide(PauliCoeffs2Q(outputs[0].reshape(4, 4))).feasible:
        raise CircuitNotSimulableError(
            f"noisy CSIGN ({noise.kind}, {noise.strength}) is not cube-separable "
            "on vertex pair (0, 0)"
        )
    w0 = np.clip(csign_lhv_weights(noise), 0.0, None)
    weights = np.zeros((64, 64))
    weights[np.arange(64)[:, None], _pair_maps()] = w0
    resid = np.abs(weights @ lp.vertex_product_matrix().T - outputs).max(axis=1)
    bad = ((weights.min(axis=1) < -1e-12) | (np.abs(weights.sum(axis=1) - 1.0) > 1e-9)
           | (resid > lp.FEASIBILITY_TOL))
    if bad.any():
        raise CircuitNotSimulableError(
            f"noisy CSIGN ({noise.kind}, {noise.strength}): the LHV weights fail "
            f"their recheck on vertex pair {divmod(int(bad.argmax()), 8)}"
        )
    return w0


GUIDE_BUCKETS = 1024    # a power of two, so u * GUIDE_BUCKETS is exact


@dataclass(frozen=True)
class _GateTable:
    """Input pair p's next pair follows w0 moved onto p by its map.  cdf is
    the CDF of w0's normalized weights over its support (weights > 1e-14, in
    pair order), one CDF for all 64 input pairs, and moved[p, k] the pair
    that entry k selects for input pair p.

    guide[b, p] is the next pair of input pair p for every u in the bucket
    [b / GUIDE_BUCKETS, (b + 1) / GUIDE_BUCKETS), or -1 where a CDF entry
    lies strictly inside the bucket, so that the draw depends on u beyond
    its bucket (Chen & Asau's indexed search).
    The last bucket starts at 1: rounding can put the last entry just above
    1, and a u read off it still finds a bucket."""

    cdf: np.ndarray         # size, float
    moved: np.ndarray       # 64 x size, int8
    guide: np.ndarray       # (GUIDE_BUCKETS + 1) x 64, int8


def _gate_table(w0: np.ndarray, maps: np.ndarray) -> _GateTable:
    """The table and its guide of the weights w0 of pair 0, moved onto each
    pair p by the pair permutation maps[p]."""
    support0 = np.flatnonzero(w0 > 1e-14)
    cdf = np.cumsum(w0[support0] / w0[support0].sum())
    moved = maps[:, support0].astype(np.int8)
    # per bucket, the entries <= its left edge and those < its right edge
    edges = np.arange(GUIDE_BUCKETS + 2) / GUIDE_BUCKETS
    k = np.searchsorted(cdf, edges[:-1], side="right")
    below = np.searchsorted(cdf, edges[1:], side="left")
    guide = np.where((below == k)[:, None], moved[:, np.minimum(k, cdf.size - 1)].T, -1)
    return _GateTable(cdf, moved, guide.astype(np.int8))


def _draw_pairs(table: _GateTable, pair: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next vertex pair of each shot, moved[pair, k] for the capped
    searchsorted(cdf, u, side="right") k.  Most shots read it off the guide
    entry of their u's bucket; the shots whose bucket holds a CDF entry
    (-1 in the guide) search the CDF.  The result is int8."""
    # the guide row of u's bucket, exact since GUIDE_BUCKETS is a power of
    # two; int32, whose cast from float is far cheaper than int64's
    key = (u * GUIDE_BUCKETS).astype(np.int32)
    key <<= 6
    key += pair
    out = table.guide.take(key)
    miss = np.flatnonzero(out < 0)
    if miss.size:
        k = np.searchsorted(table.cdf, u[miss], side="right")
        np.minimum(k, table.cdf.size - 1, out=k)
        out[miss] = table.moved[pair[miss], k]
    return out


def _collect_noises(circuit: Circuit):
    noises = []

    def visit(op):
        if isinstance(op, NoisyCsign) and op.noise not in noises:
            noises.append(op.noise)
        elif isinstance(op, ClassicalControl):
            visit(op.op)

    for op in circuit.ops:
        visit(op)
    return noises


# Clifford action as a permutation of vertex indices, one byte each
_CLIFFORD_PERMS = {g: vertex_index(CUBE_SIGNS @ M.T).astype(np.uint8)
                   for g, M in CLIFFORD_ACTIONS.items()}


@dataclass
class SimResult:
    histogram: dict
    shots: int
    seed: int
    rng_name: str = RNG_NAME


def simulate_hn(circuit: Circuit, shots: int, seed: int) -> SimResult:
    """Sample the circuit's classical record distribution.

    All noisy CSIGNs are verified cube-separable up front, once per
    distinct gate: the oracle's verdict on its all-ones output, then the
    closed-form appendix weights moved onto each of the 64 vertex pairs and
    rechecked on that pair's own output.  No LP runs.  The state is one
    byte per qubit and shot, one row per qubit; a CSIGN is a guide table
    read over all shots, with a searchsorted of the gate's one CDF for the
    few shots the guide leaves open, and a Clifford a table lookup.  Identical seeds give identical
    histograms.  The redraws after measurements come from a stream of their
    own, so a circuit that never touches a measured qubit again samples
    exactly as if there were none.
    The cost per shot and op does not depend on the number of qubits.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1; got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer; got {seed}")
    tables = {n: _gate_table(_gate_weights(n), _pair_maps())
              for n in _collect_noises(circuit)}
    seeds = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seeds)
    collapse_rng = np.random.default_rng(seeds.spawn(1)[0])
    rids = circuit.record_ids()
    # unprepared qubits start uniformly random, matching the dense
    # simulator's maximally mixed initial state; one byte per qubit and
    # shot, one row per qubit.  Narrowed first, so that the transposing
    # copy moves bytes rather than int64s
    state = rng.integers(0, 8, size=(shots, circuit.num_qubits),
                         dtype=np.int64).astype(np.uint8).T.copy()
    records = {rid: np.zeros(shots, dtype=np.int8) for rid in rids}

    # rows selects the shots an op acts on: all of them (a slice) or the
    # indices where its condition holds.  Not recursive: a self-referencing
    # closure would form a reference cycle holding every shot array until
    # the cyclic collector runs
    def run_op(op, rows, size):
        if isinstance(op, Prepare):
            u = rng.random((size, 3))
            p_plus = (1.0 + op.state.bloch) / 2.0
            # bit 2 - i is 1 on the -1 outcome of axis i
            code = (u[:, 0] >= p_plus[0]).view(np.uint8) << 2
            code |= (u[:, 1] >= p_plus[1]).view(np.uint8) << 1
            code |= (u[:, 2] >= p_plus[2]).view(np.uint8)
            state[op.qubit, rows] = code
        elif isinstance(op, Clifford1):
            state[op.qubit, rows] = _CLIFFORD_PERMS[op.gate].take(state[op.qubit, rows])
        elif isinstance(op, NoisyCsign):
            pair = state[op.qubit1, rows] << 3
            pair |= state[op.qubit2, rows]
            newpair = _draw_pairs(tables[op.noise], pair, rng.random(size))
            state[op.qubit1, rows] = newpair >> 3
            state[op.qubit2, rows] = newpair & 7
        elif isinstance(op, Measure):
            shift = 3 - axis_index(op.axis)     # of the measured axis's sign bit
            vertex = state[op.qubit, rows]
            bit = (vertex >> shift) & 1
            records[op.record_id][rows] = 1 - 2 * bit.view(np.int8)
            kept = 1 << shift
            redraw = collapse_rng.integers(0, 8, size=size, dtype=np.int64).astype(np.uint8)
            redraw &= 7 ^ kept
            vertex &= kept
            vertex |= redraw
            state[op.qubit, rows] = vertex
        else:
            raise TypeError(f"unknown op {op!r}")

    for op in circuit.ops:
        if isinstance(op, ClassicalControl):
            rows = np.nonzero(records[op.record_id] == op.value)[0]
            run_op(op.op, rows, rows.size)
        else:
            run_op(op, slice(None), shots)
    return SimResult(_histogram([records[rid] for rid in rids], shots), shots, seed)


_SYMBOLS = {1: "+", -1: "-", 0: "."}
# the base-3 digit col + 1 of a record value -1, 0, +1 to its symbol
_DIGIT_SYMBOLS = str.maketrans("012", "-.+")
_CODE_SPAN_MAX = 3 ** 38    # one more base-3 digit still fits an int64


def _histogram(cols: list[np.ndarray], shots: int) -> dict[str, int]:
    """Counts of the outcome strings of the record columns (+1, -1, or 0
    where a record was never written), sorted by string.

    Each shot's columns are read as one base-3 integer.  While 3^columns
    <= shots, np.bincount counts the codes and each string is read off its
    code's digits.  Otherwise np.unique counts them; past 38 columns the
    codes seen so far are renumbered 0, 1, ... before the next digit, so
    any number of columns fits an int64.
    """
    if not cols:
        return {"": shots}
    code = np.zeros(shots, dtype=np.int64)
    span = 1                        # every code lies in [0, span)
    for col in cols:
        if span > _CODE_SPAN_MAX:
            _, code = np.unique(code, return_inverse=True)
            span = int(code.max()) + 1
        code *= 3
        code += col
        code += 1
        span *= 3
    if 3 ** len(cols) <= shots:     # no code was renumbered
        counts = np.bincount(code)
        hist = {np.base_repr(c, 3).zfill(len(cols)).translate(_DIGIT_SYMBOLS): int(counts[c])
                for c in np.flatnonzero(counts)}
    else:
        _, first, counts = np.unique(code, return_index=True, return_counts=True)
        hist = {"".join(_SYMBOLS[int(col[i])] for col in cols): int(n)
                for i, n in zip(first, counts)}
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# Dense reference
# ---------------------------------------------------------------------------


def simulate_dense(circuit: Circuit) -> dict:
    """Exact outcome distribution over classical record strings.

    Preparations must be quantum (inside the Bloch sphere); measurements
    collapse the state and fork the branch tree with exact Born weights.
    Circuits of more than DENSE_MAX_QUBITS qubits are refused.
    """
    n = circuit.num_qubits
    if n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense simulation supports at most {DENSE_MAX_QUBITS} qubits; "
                         f"got {n}")
    rids = circuit.record_ids()
    sphere = StateSpaceSpec.sphere(1.0)

    dist: dict[str, float] = {}
    # depth first over the measurement branches, + before -, on an explicit
    # stack: a recursive closure would form a reference cycle.  A branch
    # carries its unnormalized state, whose trace is the branch probability
    stack = [(np.eye(2 ** n, dtype=complex) / (2 ** n), 0, {})]
    while stack:
        rho, k, record = stack.pop()
        while k < len(circuit.ops):
            op = circuit.ops[k]
            k += 1
            if isinstance(op, ClassicalControl):
                if record.get(op.record_id) != op.value:
                    continue
                op = op.op
            if isinstance(op, Prepare):
                if not contains(sphere, op.state):
                    raise ValueError(
                        "dense simulation requires quantum preparations "
                        f"(|bloch| <= 1); got {op.state.bloch}"
                    )
                rho = prepare_qubit(rho, bloch_to_dense(op.state).entries, op.qubit, n)
            elif isinstance(op, Clifford1):
                rho = conjugate_qubit(rho, CLIFFORD_UNITARIES[op.gate], op.qubit, n)
            elif isinstance(op, NoisyCsign):
                q1, q2, nm = op.qubit1, op.qubit2, op.noise
                rho = csign_pair(rho, q1, q2, n)
                if nm.kind == "joint-depol":
                    rho = joint_depolarize_pair(rho, q1, q2, nm.strength, n)
                else:
                    channel = depolarize_qubit if nm.kind == "local-depol" else dephase_qubit
                    rho = channel(channel(rho, q1, nm.strength, n), q2, nm.strength, n)
            elif isinstance(op, Measure):
                obs = PAULIS[axis_index(op.axis)]
                # an outcome of Born weight <= 1e-15 opens no branch
                floor = 1e-15 * float(np.real(np.trace(rho)))
                branches = []
                for outcome in (1, -1):
                    sub = conjugate_qubit(rho, (np.eye(2) + outcome * obs) / 2, op.qubit, n)
                    if float(np.real(np.trace(sub))) > floor:
                        branches.append((sub, k, {**record, op.record_id: outcome}))
                stack.extend(reversed(branches))
                break
        else:
            key = "".join({1: "+", -1: "-"}.get(record.get(rid), ".") for rid in rids)
            dist[key] = dist.get(key, 0.0) + float(np.real(np.trace(rho)))
    return dict(sorted(dist.items()))


def tvd(h1: dict, h2: dict) -> float:
    """Total variation distance between two histograms or distributions."""
    t1 = float(sum(h1.values()))
    t2 = float(sum(h2.values()))
    if t1 <= 0 or t2 <= 0:
        raise ValueError("empty histogram")
    keys = set(h1) | set(h2)
    return 0.5 * sum(abs(h1.get(k, 0) / t1 - h2.get(k, 0) / t2) for k in keys)


def histogram_to_csv(hist: dict) -> str:
    lines = ["outcome_string,count"]
    for k in sorted(hist):
        lines.append(f"{k},{hist[k]}")
    return "\n".join(lines) + "\n"
