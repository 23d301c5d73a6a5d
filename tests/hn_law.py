"""The exact output law of the HN sampler, computed without sampling.

The sampler's state is one cube vertex index per qubit (bits 2, 1, 0 set on
the -1 signs along X, Y, Z).  Here the joint law of those indices and of the
record values is carried op by op, one (8,) * n array of vertex-index
probabilities per assignment of record values:
- a preparation replaces the qubit's marginal by the law read off its
  draw table, the per-axis product law;
- a Clifford permutes the qubit's axis by the sampler's vertex permutation;
- a CSIGN contracts the pair's (8, 8) axes with the 64 x 64 transition
  matrix read off the gate table the sampler draws from;
- a measurement splits each assignment on the measured bit and spreads the
  other two bits uniformly;
- a classical control acts only on the assignments whose record matches.
Its inputs from the sampler are the gate tables, built by
simulator._gate_table(simulator._gate_weights(noise), simulator._pair_maps()),
the preparation tables, built by simulator._prep_table(bloch), and
simulator._CLIFFORD_PERMS; everything else is restated here.
"""
from __future__ import annotations

import numpy as np

from gencube import simulator
from gencube.pauli import axis_index

_SYMBOL = {1: "+", -1: "-", 0: "."}


def table_transition(table) -> np.ndarray:
    """Row p: the law of what the table draws for row p, over 64 entries.

    The sampler takes entry k = searchsorted(cdf, u, side="right"), capped
    at the last entry, for u uniform on [0, 1): entry k for u in
    [cdf[k - 1], cdf[k]), and the last entry for every u >= cdf[-2]."""
    probs = np.diff(np.concatenate(([0.0], table.cdf[:-1], [1.0])))
    T = np.zeros((64, 64))
    np.add.at(T, (np.arange(64)[:, None], table.moved.astype(np.intp)), probs)
    return T


def gate_transition(noise) -> np.ndarray:
    """Row p: the law of the next vertex pair 8 v1 + v2 of input pair p."""
    return table_transition(
        simulator._gate_table(simulator._gate_weights(noise), simulator._pair_maps()))


def prep_law(bloch) -> np.ndarray:
    """The law of the vertex a preparation of Bloch vector bloch draws, over
    the 8 vertices; it is the same for every current vertex."""
    T = table_transition(simulator._prep_table(np.asarray(bloch, dtype=float)))
    assert (T == T[0]).all() and not T[:, 8:].any()
    return T[0, :8]


def _prepare(arr, q, p):
    shape = [1] * arr.ndim
    shape[q] = 8
    return arr.sum(axis=q, keepdims=True) * p.reshape(shape)


def _clifford(arr, q, gate):
    # the vertex v of qubit q becomes perm[v]
    perm = simulator._CLIFFORD_PERMS[gate].astype(np.intp)
    out = np.empty_like(arr)
    np.moveaxis(out, q, 0)[perm] = np.moveaxis(arr, q, 0)
    return out


def _csign(arr, q1, q2, T):
    pair = np.moveaxis(arr, (q1, q2), (-2, -1))
    moved = (pair.reshape(-1, 64) @ T).reshape(pair.shape)
    return np.moveaxis(moved, (-2, -1), (q1, q2))


def _measure(arr, q, axis):
    """The (outcome, law) of both outcomes of the measurement."""
    bit_of = (np.arange(8) >> (3 - axis_index(axis))) & 1
    shape = [1] * arr.ndim
    shape[q] = 8
    for outcome in (1, -1):
        keep = (bit_of == (1 - outcome) // 2).reshape(shape)
        weight = np.where(keep, arr, 0.0).sum(axis=q, keepdims=True)
        # the other two bits are redrawn: the four vertices of the face
        yield outcome, weight * (keep / 4.0)


def _add(law, key, arr):
    law[key] = law[key] + arr if key in law else arr


def _apply(law: dict, op, rids: list, tables: dict) -> dict:
    out: dict = {}
    for key, arr in law.items():
        if isinstance(op, simulator.ClassicalControl):
            if key[rids.index(op.record_id)] != op.value:
                _add(out, key, arr)
                continue
            for k, a in _apply({key: arr}, op.op, rids, tables).items():
                _add(out, k, a)
        elif isinstance(op, simulator.Prepare):
            _add(out, key, _prepare(arr, op.qubit, tables[tuple(op.state.bloch)]))
        elif isinstance(op, simulator.Clifford1):
            _add(out, key, _clifford(arr, op.qubit, op.gate))
        elif isinstance(op, simulator.NoisyCsign):
            _add(out, key, _csign(arr, op.qubit1, op.qubit2, tables[op.noise]))
        elif isinstance(op, simulator.Measure):
            slot = rids.index(op.record_id)
            for outcome, a in _measure(arr, op.qubit, op.axis):
                _add(out, key[:slot] + (outcome,) + key[slot + 1:], a)
        else:
            raise TypeError(f"unknown op {op!r}")
    return out


def hn_law(circuit) -> dict[str, float]:
    """Probability of each outcome string of the HN sampler on the circuit,
    sorted by string; strings of probability 0 are left out."""
    n = circuit.num_qubits
    rids = circuit.record_ids()
    # keyed by noise model for a CSIGN, by Bloch vector for a preparation
    tables = {}
    for op in circuit.ops:
        op = op.op if isinstance(op, simulator.ClassicalControl) else op
        if isinstance(op, simulator.NoisyCsign) and op.noise not in tables:
            tables[op.noise] = gate_transition(op.noise)
        elif isinstance(op, simulator.Prepare) and tuple(op.state.bloch) not in tables:
            tables[tuple(op.state.bloch)] = prep_law(op.state.bloch)
    # unprepared qubits start uniform over the 8 vertices
    law = {(0,) * len(rids): np.full((8,) * n, 8.0 ** -n)}
    for op in circuit.ops:
        law = _apply(law, op, rids, tables)
    dist = {"".join(_SYMBOL[v] for v in key): float(arr.sum()) for key, arr in law.items()}
    return {k: p for k, p in sorted(dist.items()) if p > 0.0}
