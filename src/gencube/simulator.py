"""Sampling simulator for adaptive circuits whose two-qubit gates are
cube-separable, plus a dense density-matrix reference for cross-validation.

The sampler stores one cube vertex per qubit per shot.  Preparations sample
a vertex from the per-axis product rule, each noisy CSIGN samples a vertex
pair from a cached LHV certificate of the gate's action on the current pair,
Cliffords permute vertices, and a measurement reads a vertex component off
deterministically and then redraws the other two components uniformly: the
post-measurement Pauli eigenstate is the centre of a cube face, the uniform
mixture of its four corners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import (
    dephase_qubit,
    depolarize_qubit,
    embed_one,
    embed_two,
    joint_depolarize_pair,
    partial_trace,
    permute_qubits,
)
from .gates import NoiseModel, apply_noise, csign
from .pauli import AXES, PAULIS, BlochOp, axis_index, product
from .separability import cube_separable
from .spaces import contains, StateSpaceSpec, cube_vertices

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

_VERTICES = cube_vertices()
_VERTEX_ARRAY = np.array([v.bloch for v in _VERTICES])  # 8 x 3, index = sign bits


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


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    ops: tuple

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        for op in self.ops:
            self._check(op)
        object.__setattr__(self, "ops", tuple(self.ops))

    def _check(self, op, nested: bool = False):
        n = self.num_qubits
        if isinstance(op, Prepare):
            if not 0 <= op.qubit < n:
                raise ValueError("qubit index out of range")
            if not np.all(np.abs(op.state.bloch) <= 1.0):  # NaN fails too
                raise ValueError(f"preparation outside the unit cube: {op.state.bloch}")
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
            self._check(op.op, nested=True)
        else:
            raise TypeError(f"unknown op {op!r}")

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


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    qubits N
    prep q bx by bz
    clif q X|Y|Z|S|H
    csign q1 q2 joint-depol|local-depol|local-dephase param
    meas q X|Y|Z rid
    ifeq rid +1|-1 <op...>
    """
    num_qubits = None
    ops = []

    def parse_op(tokens):
        kind = tokens[0]
        if kind == "prep":
            q = int(tokens[1])
            b = np.array([float(x) for x in tokens[2:5]])
            return Prepare(q, BlochOp(b))
        if kind == "clif":
            return Clifford1(int(tokens[1]), tokens[2])
        if kind == "csign":
            return NoisyCsign(int(tokens[1]), int(tokens[2]),
                              NoiseModel(tokens[3], float(tokens[4])))
        if kind == "meas":
            return Measure(int(tokens[1]), tokens[2], tokens[3])
        if kind == "ifeq":
            value = int(tokens[2])
            return ClassicalControl(tokens[1], value, parse_op(tokens[3:]))
        raise ValueError(f"unknown circuit line {' '.join(tokens)!r}")

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "qubits":
            num_qubits = int(tokens[1])
            continue
        if num_qubits is None:
            raise ValueError("circuit must declare qubits first")
        ops.append(parse_op(tokens))
    if num_qubits is None:
        raise ValueError("circuit must declare qubits")
    return Circuit(num_qubits, tuple(ops))


# ---------------------------------------------------------------------------
# Certificate cache
# ---------------------------------------------------------------------------


def _gate_tables(noise: NoiseModel):
    """Per vertex pair: cumulative weights and the pair indices they select."""
    tables = []
    for iu in range(8):
        for iv in range(8):
            A = apply_noise(csign(product(_VERTICES[iu], _VERTICES[iv])), noise)
            res = cube_separable(A)
            if not res.feasible:
                raise CircuitNotSimulableError(
                    f"noisy CSIGN ({noise.kind}, {noise.strength}) is not cube-separable "
                    f"on vertex pair ({iu}, {iv})"
                )
            w = np.clip(res.certificate.weights, 0.0, None)
            support = np.nonzero(w > 1e-14)[0]
            ws = w[support]
            ws = ws / ws.sum()
            tables.append((np.cumsum(ws), support))
    return tables


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


# Clifford action as a permutation of vertex indices
def _clifford_vertex_perm(gate: str) -> np.ndarray:
    from .gates import clifford1

    perm = np.zeros(8, dtype=np.int64)
    for k, v in enumerate(_VERTICES):
        out = clifford1(v, gate).bloch
        perm[k] = sum((1 << (2 - i)) for i in range(3) if out[i] < 0)
    return perm


_CLIFFORD_PERMS = {g: _clifford_vertex_perm(g) for g in ("X", "Y", "Z", "S", "H")}


@dataclass
class SimResult:
    histogram: dict
    shots: int
    seed: int
    rng_name: str = RNG_NAME


def simulate_hn(circuit: Circuit, shots: int, seed: int) -> SimResult:
    """Sample the circuit's classical record distribution.

    All noisy CSIGNs are verified cube-separable up front (64 LPs per
    distinct gate); sampling itself never touches the LP.  Identical seeds
    give identical histograms.  The redraws after measurements come from a
    stream of their own, so a circuit that never touches a measured qubit
    again samples exactly as if there were none.  The cost per shot and op
    does not depend on the number of qubits.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1; got {shots}")
    tables = {n: _gate_tables(n) for n in _collect_noises(circuit)}
    seeds = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seeds)
    collapse_rng = np.random.default_rng(seeds.spawn(1)[0])
    rids = circuit.record_ids()
    # unprepared qubits start uniformly random, matching the dense
    # simulator's maximally mixed initial state
    state = rng.integers(0, 8, size=(shots, circuit.num_qubits), dtype=np.int64)
    records = {rid: np.zeros(shots, dtype=np.int64) for rid in rids}

    # not recursive: a self-referencing closure would form a reference
    # cycle holding every shot array until the cyclic collector runs
    def run_op(op, mask):
        if isinstance(op, Prepare):
            rows = np.nonzero(mask)[0]
            u = rng.random((rows.size, 3))
            p_plus = (1.0 + op.state.bloch) / 2.0
            bits = (u >= p_plus).astype(np.int64)  # 1 encodes the -1 outcome
            state[rows, op.qubit] = bits[:, 0] * 4 + bits[:, 1] * 2 + bits[:, 2]
        elif isinstance(op, Clifford1):
            rows = np.nonzero(mask)[0]
            state[rows, op.qubit] = _CLIFFORD_PERMS[op.gate][state[rows, op.qubit]]
        elif isinstance(op, NoisyCsign):
            rows = np.nonzero(mask)[0]
            pair = state[rows, op.qubit1] * 8 + state[rows, op.qubit2]
            u = rng.random(rows.size)
            newpair = np.empty(rows.size, dtype=np.int64)
            for pv in np.unique(pair):
                sel = pair == pv
                cdf, support = tables[op.noise][pv]
                k = np.searchsorted(cdf, u[sel], side="right")
                k = np.minimum(k, len(support) - 1)
                newpair[sel] = support[k]
            state[rows, op.qubit1] = newpair // 8
            state[rows, op.qubit2] = newpair % 8
        elif isinstance(op, Measure):
            rows = np.nonzero(mask)[0]
            axis = axis_index(op.axis) - 1
            vertex = state[rows, op.qubit]
            records[op.record_id][rows] = _VERTEX_ARRAY[vertex, axis]
            kept = 1 << (2 - axis)  # the measured axis's sign bit
            redraw = collapse_rng.integers(0, 8, size=rows.size, dtype=np.int64)
            redraw &= 7 ^ kept
            vertex &= kept
            vertex |= redraw
            state[rows, op.qubit] = vertex
        else:
            raise TypeError(f"unknown op {op!r}")

    full = np.ones(shots, dtype=bool)
    for op in circuit.ops:
        if isinstance(op, ClassicalControl):
            run_op(op.op, records[op.record_id] == op.value)
        else:
            run_op(op, full)

    symbols = {1: "+", -1: "-", 0: "."}
    cols = [records[rid] for rid in rids]
    hist: dict[str, int] = {}
    if cols:
        stacked = np.stack(cols, axis=1)
        keys, counts = np.unique(stacked, axis=0, return_counts=True)
        for key, cnt in zip(keys, counts):
            hist["".join(symbols[int(x)] for x in key)] = int(cnt)
    else:
        hist[""] = shots
    return SimResult(dict(sorted(hist.items())), shots, seed)


# ---------------------------------------------------------------------------
# Dense reference
# ---------------------------------------------------------------------------


def _dense_noisy_csign(rho, op: NoisyCsign, n):
    U = embed_two(np.diag([1, 1, 1, -1]).astype(complex), op.qubit1, op.qubit2, n)
    rho = U @ rho @ U.conj().T
    nm = op.noise
    if nm.kind == "joint-depol":
        return joint_depolarize_pair(rho, op.qubit1, op.qubit2, nm.strength, n)
    if nm.kind == "local-depol":
        rho = depolarize_qubit(rho, op.qubit1, nm.strength, n)
        return depolarize_qubit(rho, op.qubit2, nm.strength, n)
    if nm.kind == "local-dephase":
        rho = dephase_qubit(rho, op.qubit1, nm.strength, n)
        return dephase_qubit(rho, op.qubit2, nm.strength, n)
    raise ValueError(f"dense simulation does not support {nm.kind}")


_CLIFFORD_DENSE = {
    "X": PAULIS[1],
    "Y": PAULIS[2],
    "Z": PAULIS[3],
    "S": np.diag([1.0, 1j]),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
}


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
    # stack: a recursive closure would form a reference cycle
    stack = [(np.eye(2 ** n, dtype=complex) / (2 ** n), 0, {}, 1.0)]
    while stack:
        rho, k, record, prob = stack.pop()
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
                local = np.eye(2, dtype=complex) / 2
                for i in (1, 2, 3):
                    local = local + op.state.bloch[i - 1] * PAULIS[i] / 2
                keep = [q for q in range(n) if q != op.qubit]
                if n == 1:
                    rho = local
                else:
                    rest = partial_trace(rho, keep, n)
                    rho = np.kron(local, rest)
                    order = [op.qubit] + keep
                    inv = [order.index(q) for q in range(n)]
                    rho = permute_qubits(rho, inv)
            elif isinstance(op, Clifford1):
                U = embed_one(_CLIFFORD_DENSE[op.gate], op.qubit, n)
                rho = U @ rho @ U.conj().T
            elif isinstance(op, NoisyCsign):
                rho = _dense_noisy_csign(rho, op, n)
            elif isinstance(op, Measure):
                obs = embed_one(PAULIS[axis_index(op.axis)], op.qubit, n)
                branches = []
                for outcome in (1, -1):
                    proj = (np.eye(2 ** n) + outcome * obs) / 2
                    sub = proj @ rho @ proj
                    p = float(np.real(np.trace(sub)))
                    if p > 1e-15:
                        rec2 = dict(record)
                        rec2[op.record_id] = outcome
                        branches.append((sub / p, k, rec2, prob * p))
                stack.extend(reversed(branches))
                break
        else:
            key = "".join({1: "+", -1: "-"}.get(record.get(rid), ".") for rid in rids)
            dist[key] = dist.get(key, 0.0) + prob
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
