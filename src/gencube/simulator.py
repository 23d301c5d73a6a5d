"""Sampling simulator for adaptive circuits whose two-qubit gates are
cube-separable, plus a dense reference for cross-validation, which holds
each branch's state by its real Pauli coefficients and applies each op as
one contraction of its Pauli transfer matrix with its own qubits' axes, at
O(4^m) for the m qubits live: a qubit enters the state at its first op
and leaves it after its last.  The transfer matrices come from fixed
operator bases and caches built once per process, and a call plans every
step once, before its branch walk: each unconditional Clifford folds into
the next transfer matrix on its qubit, and every axis layout is fixed.

The sampler stores one byte per qubit per shot, a cube vertex's index
(spaces.vertex_index): bits 2, 1, 0 are set on its -1 signs along X, Y, Z.
A preparation draws a vertex from the per-axis product law of its Bloch
vector, each noisy CSIGN draws a vertex pair (index 8 v1 + v2) from an LHV
certificate of the gate's action on the current pair, Cliffords permute
vertices, and a measurement records 1 - 2 b of the measured axis's bit b
and then redraws the other two bits uniformly: the post-measurement Pauli
eigenstate is the centre of a cube face, the uniform mixture of its four
corners.

A gate's verdict and its 64 certificates come from one query of the
separability oracle, on the gate's output on the all-ones vertex pair: the
certificate's weights, the Carathéodory descent's, are moved onto every
other pair by a local signed setting permutation.  These map the product
polytope onto itself, and all 64 pairs are one orbit.  Each pair's map is
found once per process, and the 64 moved certificates are rechecked on
their own outputs in one pass; no LP is solved.
A gate's table is the CDF of its all-ones weights, one for all 64 input
pairs, and the pair each entry selects for each input pair; a
preparation's table is the CDF of its product law, whose every row selects
the same vertices, since the law does not depend on the current vertex.
Every op that draws, a preparation or a CSIGN, reads its table the same
way, by inverse CDF through a guide table of GUIDE_BUCKETS buckets of
[0, 1) (Chen & Asau's indexed search).  Each shot's bucket is the top 10
bits of one 16-bit field of the bit generator's raw 64-bit words, four
fields to a word, and one guide read gives its draw, except for the few
shots whose bucket holds a CDF entry: these read one raw word more, for
the 53 bits of their uniform below the bucket's, and count the entries
at or below it exactly.  Measurement redraws and the initial state read
raw bytes, eight to a word.  So the sampler's stream is the raw output
of its PCG64 bit generators alone, which NEP 19 keeps stable across numpy
releases.

The sampler's law is the quantum law: for a circuit whose preparations are
quantum, the records the sampler draws follow the circuit's Born law, the
law simulate_dense computes.  Each op's rule is its channel (a
measurement's, its instrument) on the cube-vertex operators of its qubits,
and an induction over the ops carries that to the whole circuit:
- linearity covers mixtures: a rule that is its channel on every vertex is
  its channel on every law over the vertices;
- locality covers the other qubits: the rule leaves their indices alone,
  and the channel acts on them as the identity;
- a classical control acts branch by branch, on the shots whose record
  matches, as the channel acts on the branches whose record matches.
The proof stops at the draw, where a table's CDF is a cumulative sum
rounded to doubles and read through the guide at a 63-bit uniform, so an
entry is drawn with its weight only to within that rounding; and at
DENSE_BRANCH_FLOOR, below which the dense reference opens no branch.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dense import lead_axes, pauli_transfer, superop
from . import lp
from .gates import CLIFFORD_ACTIONS, CLIFFORD_UNITARIES, NoiseModel, pipeline_rows
from .pauli import AXES, PAULIS, BlochOp, PauliCoeffs2Q, axis_index
from .separability import certificates_hold, cube_separable
from .spaces import CUBE_SIGNS, VERTEX_PERMS, StateSpaceSpec, contains, vertex_index

__all__ = [
    "DENSE_MAX_QUBITS",
    "DENSE_BRANCH_FLOOR",
    "check_dense_width",
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
DENSE_MAX_QUBITS = 8        # the dense reference holds 4^n Pauli coefficients
# a measurement outcome whose Born weight is at most this share of its
# branch's opens no branch in the dense reference
DENSE_BRANCH_FLOOR = 1e-15


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
        return sorted({op.record_id for op in _unwrapped(self.ops) if isinstance(op, Measure)})


def _unwrapped(ops):
    """Each op, a classical control replaced by the op it controls."""
    for op in ops:
        yield op.op if isinstance(op, ClassicalControl) else op


def _op_qubits(op) -> tuple:
    """The qubits a non-control op acts on, in its own order."""
    return (op.qubit1, op.qubit2) if isinstance(op, NoisyCsign) else (op.qubit,)


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
    certificate of separability.cube_separable's verdict on that output.

    The verdict reads only facet values, which the symmetries moving pair 0
    onto the others permute, so the gate is accepted exactly where the
    oracle accepts each of its 64 pair outputs, margins in [-tol, 0)
    included.  Row p of the 64 x 64 weights, w0 moved onto pair p by
    _pair_maps, is then rechecked on pair p's own output by
    certificates_hold at lp.FEASIBILITY_TOL, all rows at once; a row that
    fails is refused.
    """
    outputs = _vertex_pair_outputs(noise)
    verdict = cube_separable(PauliCoeffs2Q(outputs[0].reshape(4, 4)))
    if not verdict.feasible:
        raise CircuitNotSimulableError(
            f"noisy CSIGN ({noise.kind}, {noise.strength}) is not cube-separable "
            "on vertex pair (0, 0)"
        )
    w0 = verdict.certificate.weights
    weights = np.zeros((64, 64))
    weights[np.arange(64)[:, None], _pair_maps()] = w0
    bad = ~certificates_hold(weights, outputs, lp.FEASIBILITY_TOL)
    if bad.any():
        raise CircuitNotSimulableError(
            f"noisy CSIGN ({noise.kind}, {noise.strength}): the LHV weights fail "
            f"their recheck on vertex pair {divmod(int(bad.argmax()), 8)}"
        )
    return w0


# a descent's weights at or below this are its float dust, left out of a
# gate table's support
SUPPORT_CUT = 1e-14
GUIDE_BUCKETS = 1024    # 2^10: a bucket is the top 10 bits of a 16-bit field
# the field's low 6 bits carry the input pair, so that the masked field
# is the pair's index in the flattened guide, bucket * 64 + pair
_BUCKET_MASK = (GUIDE_BUCKETS - 1) << 6


@dataclass(frozen=True)
class _GateTable:
    """Input pair p's next pair follows w0 moved onto p by its map.  cdf is
    the CDF of w0's normalized weights over its support (weights above the
    table's cut, in pair order), one CDF for all 64 input pairs, and
    moved[p, k] the pair that entry k selects for input pair p.  A
    preparation's table has the same form, with a vertex in place of a
    pair: every row of its map is arange(8).

    guide[b, p] is the next pair of input pair p for every u in the bucket
    [b / GUIDE_BUCKETS, (b + 1) / GUIDE_BUCKETS), or -1 where a CDF entry
    lies strictly inside the bucket, so that the draw depends on u beyond
    its bucket (Chen & Asau's indexed search)."""

    cdf: np.ndarray         # size, float
    moved: np.ndarray       # 64 x size, int8
    guide: np.ndarray       # GUIDE_BUCKETS x 64, int8


def _gate_table(w0: np.ndarray, maps: np.ndarray, cut: float = SUPPORT_CUT) -> _GateTable:
    """The table and its guide of the weights w0 of pair 0, moved onto each
    pair p by the pair permutation maps[p]; only weights above cut enter."""
    support0 = np.flatnonzero(w0 > cut)
    cdf = np.cumsum(w0[support0] / w0[support0].sum())
    moved = maps[:, support0].astype(np.int8)
    # per bucket, the entries <= its left edge and those < its right edge
    edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    k = np.searchsorted(cdf, edges[:-1], side="right")
    below = np.searchsorted(cdf, edges[1:], side="left")
    guide = np.where((below == k)[:, None], moved[:, np.minimum(k, cdf.size - 1)].T, -1)
    return _GateTable(cdf, moved, guide.astype(np.int8))


def _packed(bits, count: int, width: int) -> np.ndarray:
    """count unsigned fields of width bytes (1 or 2), read little-endian off
    the raw 64-bit words of the bit generator bits, 8 // width to a word."""
    words = bits.random_raw(-(-count * width // 8))
    return words.astype("<u8", copy=False).view(f"<u{width}")[:count]


def _draw_pairs(table: _GateTable, pair: np.ndarray, bits) -> np.ndarray:
    """Next vertex pair of each shot, or next vertex on a preparation's
    table, for its current pair (uint8): moved[pair, k], k the capped
    searchsorted(cdf, u, side="right") at the shot's exact uniform
    u = (b + v) / GUIDE_BUCKETS.

    Each shot reads one 16-bit field of bits' raw words: masked, its top
    10 bits are the bucket b times 64, and with the pair OR-ed in it is the
    shot's guide index.  Most shots read their pair there.  The shots whose
    bucket holds a CDF entry (-1 in the guide) then read one raw word each,
    v = (raw >> 11) 2^-53, and count the entries c with
    GUIDE_BUCKETS c - b <= v: that difference is exact inside the bucket
    (Sterbenz), negative below it and at least 1 above it.  The result is
    int8."""
    key = _packed(bits, pair.size, 2) & _BUCKET_MASK
    key |= pair
    # take casts any other index to intp itself, at about twice the cost
    out = table.guide.take(key.astype(np.intp))
    miss = np.flatnonzero(out < 0)
    if miss.size:
        b = (key[miss] >> 6).astype(float)
        v = (bits.random_raw(miss.size) >> 11) * 2.0 ** -53
        k = np.count_nonzero(table.cdf * GUIDE_BUCKETS - b[:, None] <= v[:, None], axis=1)
        np.minimum(k, table.cdf.size - 1, out=k)
        out[miss] = table.moved[pair[miss], k]
    return out


def _prep_table(bloch: np.ndarray) -> _GateTable:
    """The draw table of a preparation: weight prod_i (1 + s_i b_i) / 2 on
    the vertex of signs s, the per-axis product law, for every current
    vertex.  Every vertex of positive weight enters, however small."""
    weights = np.prod((1.0 + CUBE_SIGNS * bloch) / 2.0, axis=1)
    return _gate_table(weights, np.broadcast_to(np.arange(8), (64, 8)), cut=0.0)


# Clifford action as a permutation of vertex indices, one byte each
_CLIFFORD_PERMS = {g: vertex_index(CUBE_SIGNS @ M.T).astype(np.uint8)
                   for g, M in CLIFFORD_ACTIONS.items()}
# the mask of each Clifford whose permutation is an XOR of the index (the
# Paulis: each flips the signs of the two other axes)
_CLIFFORD_XORS = {g: int(perm[0]) for g, perm in _CLIFFORD_PERMS.items()
                  if np.array_equal(perm, np.arange(8) ^ perm[0])}


def _apply_clifford(state: np.ndarray, qubit: int, rows, gate: str) -> None:
    """Move the vertices of qubit's shots `rows` (a slice or an index array)
    by the Clifford's permutation, as bit operations on the index: an XOR
    in place for a Pauli; S sets bit 2 to NOT bit 1 and bit 1 to bit 2 (X
    to Y, Y to -X), and H swaps bits 2 and 0 and flips bit 1 (X to Z, Y to
    -Y)."""
    mask = _CLIFFORD_XORS.get(gate)
    if mask is not None:
        state[qubit, rows] ^= mask
        return
    v = state[qubit, rows]
    if gate == "S":
        state[qubit, rows] = ((v & 2) << 1 ^ 4) | ((v >> 1) & 2) | (v & 1)
    else:
        state[qubit, rows] = ((v & 1) << 2) | ((v >> 2) & 1) | ((v & 2) ^ 2)


def _collapse(vertex: np.ndarray, axis: str, bits) -> np.ndarray:
    """Measure each vertex of `vertex` (uint8) along axis: returns 1 - 2 b
    of its bit b of that axis, as int8, and in place keeps that bit and
    redraws the other two uniformly, from one raw byte of bits per shot."""
    shift = 3 - axis_index(axis)     # of the measured axis's sign bit
    bit = (vertex >> shift) & 1
    kept = 1 << shift
    redraw = _packed(bits, vertex.size, 1) & (7 ^ kept)
    vertex &= kept
    vertex |= redraw
    return 1 - 2 * bit.view(np.int8)


@dataclass
class SimResult:
    histogram: dict
    shots: int
    seed: int
    rng_name: str = RNG_NAME


def _drawn_qubits(circuit: Circuit) -> list[int]:
    """The qubits whose initial state is drawn: all but those whose first
    op is an unconditional preparation, which overwrites every shot before
    any op reads it."""
    first_is_prep = {}
    for op in circuit.ops:
        for q in _op_qubits(op.op if isinstance(op, ClassicalControl) else op):
            first_is_prep.setdefault(q, isinstance(op, Prepare))
    return [q for q in range(circuit.num_qubits) if not first_is_prep.get(q, False)]


def simulate_hn(circuit: Circuit, shots: int, seed: int) -> SimResult:
    """Sample the circuit's classical record distribution.

    All noisy CSIGNs are verified cube-separable up front, once per
    distinct gate: one cube_separable query on its all-ones output, whose
    certificate is moved onto each of the 64 vertex pairs and rechecked on
    that pair's own output.  No LP runs.  The state is one byte per qubit
    and shot, one row per qubit.  Its rows start as one (drawn qubits,
    shots) draw of raw bytes, each masked to its low 3 bits, uniform like
    the dense reference's maximally mixed state, over every qubit but
    those whose first op is an unconditional preparation; those start at
    vertex 0, which their preparation overwrites unread.  A circuit whose
    every qubit is drawn starts from one (qubits, shots) draw.  A
    preparation and a CSIGN each read one 16-bit field of the raw words
    per shot, whose masked bits index their table's guide directly, and
    one raw word more for each of the few shots the guide leaves open; one
    table is built per distinct preparation and gate.  Cliffords are bit
    operations on the vertex index: an XOR for X, Y and Z.  Identical
    seeds give identical histograms.  The redraws after measurements come
    from a PCG64 stream of their own, so a circuit that never touches a
    measured qubit again samples exactly as if there were none.  A state
    too large to allocate is refused with ValueError before any table is
    built.
    The cost per shot and op does not depend on the number of qubits.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1; got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer; got {seed}")
    seeds = np.random.SeedSequence(seed)
    bits = np.random.PCG64(seeds)
    collapse_bits = np.random.PCG64(seeds.spawn(1)[0])
    n = circuit.num_qubits
    drawn = _drawn_qubits(circuit)
    try:
        start = _packed(bits, len(drawn) * shots, 1).reshape(len(drawn), shots)
        start &= 7
        if len(drawn) == n:
            state = start
        else:
            state = np.zeros((n, shots), dtype=np.uint8)
            state[drawn] = start
        del start
    except (ValueError, MemoryError):
        raise ValueError(f"the shot state of {n} qubits x {shots} shots "
                         f"({n * shots} bytes) cannot be allocated") from None
    noises = dict.fromkeys(op.noise for op in _unwrapped(circuit.ops)
                           if isinstance(op, NoisyCsign))
    tables = {noise: _gate_table(_gate_weights(noise), _pair_maps()) for noise in noises}
    preps = {tuple(op.state.bloch): op.state.bloch for op in _unwrapped(circuit.ops)
             if isinstance(op, Prepare)}
    prep_tables = {key: _prep_table(bloch) for key, bloch in preps.items()}
    rids = circuit.record_ids()
    records = {rid: np.zeros(shots, dtype=np.int8) for rid in rids}

    # rows selects the shots an op acts on: all of them (a slice) or the
    # indices where its condition holds.  Not recursive: a self-referencing
    # closure would form a reference cycle holding every shot array until
    # the cyclic collector runs
    def run_op(op, rows):
        if isinstance(op, Prepare):
            table = prep_tables[tuple(op.state.bloch)]
            state[op.qubit, rows] = _draw_pairs(table, state[op.qubit, rows], bits)
        elif isinstance(op, Clifford1):
            _apply_clifford(state, op.qubit, rows, op.gate)
        elif isinstance(op, NoisyCsign):
            pair = state[op.qubit1, rows] << 3
            pair |= state[op.qubit2, rows]
            newpair = _draw_pairs(tables[op.noise], pair, bits)
            state[op.qubit1, rows] = newpair >> 3
            state[op.qubit2, rows] = newpair & 7
        elif isinstance(op, Measure):
            vertex = state[op.qubit, rows]
            records[op.record_id][rows] = _collapse(vertex, op.axis, collapse_bits)
            state[op.qubit, rows] = vertex
        else:
            raise TypeError(f"unknown op {op!r}")

    for op in circuit.ops:
        if isinstance(op, ClassicalControl):
            rows = np.nonzero(records[op.record_id] == op.value)[0]
            run_op(op.op, rows)
        else:
            run_op(op, slice(None))
    return SimResult(_histogram([records[rid] for rid in rids], shots), shots, seed)


# record value v -> character v + 1 of an outcome string: "." where a
# record was never written
_RECORD_CHARS = "-.+"
_DIGIT_CHARS = str.maketrans("012", _RECORD_CHARS)     # base-3 digit v + 1
_RECORD_BYTES = np.frombuffer(_RECORD_CHARS.encode(), dtype=np.uint8)
# rows of the byte array filled at a time, so that a block's stacked
# columns and their transpose stay in cache
_FILL_ROWS = 4096


def _histogram(cols: list[np.ndarray], shots: int) -> dict[str, int]:
    """Counts of the outcome strings of the record columns (+1, -1, or 0
    where a record was never written), sorted by string.

    While 3^columns <= shots, each shot's columns are read as one base-3
    integer, np.bincount counts the codes and each string is read off its
    code's digits.  Otherwise each shot's string is one row of a (shots,
    columns) array of symbol bytes, filled a block of _FILL_ROWS rows at a
    time by one lookup of the block's stacked (columns, rows) values, then
    transposed; its rows, viewed as byte strings, are sorted in place and
    counted from the starts of their runs, in string order.
    Either way the cost grows with shots x columns, not with distinct
    outcomes x columns.
    """
    if not cols:
        return {"": shots}
    if 3 ** len(cols) <= shots:
        code = np.zeros(shots, dtype=np.int64)
        for col in cols:
            code *= 3
            code += col
            code += 1
        counts = np.bincount(code)
        hist = {np.base_repr(c, 3).zfill(len(cols)).translate(_DIGIT_CHARS): int(counts[c])
                for c in np.flatnonzero(counts)}
        return dict(sorted(hist.items()))
    rows = np.empty((shots, len(cols)), dtype=np.uint8)
    for start in range(0, shots, _FILL_ROWS):
        block = slice(start, start + _FILL_ROWS)
        stacked = np.stack([col[block] for col in cols])
        stacked += 1
        rows[block] = np.take(_RECORD_BYTES, stacked).T
    keys = rows.view(f"S{len(cols)}").ravel()
    keys.sort()
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    counts = np.diff(starts, append=shots)
    return {keys[i].decode(): n for i, n in zip(starts.tolist(), counts.tolist())}


# ---------------------------------------------------------------------------
# Dense reference
# ---------------------------------------------------------------------------


def _noise_weights(noise: NoiseModel) -> np.ndarray:
    """The weights q_ij of a CSIGN's noise on its qubit pair, flat with i
    the more significant index.  Each noise model is a Pauli channel,
    rho -> sum_ij q_ij (P_i (x) P_j) rho (P_i (x) P_j), with Kraus
    operators sqrt(q_ij) P_i (x) P_j."""
    p = noise.strength
    if noise.kind == "joint-depol":
        # (1 - p) rho + p I/4 (x) tr rho: every pair but I (x) I at p/16
        q = np.full(16, p / 16.0)
        q[0] = 1.0 - 15.0 * p / 16.0
    else:
        # the same one-qubit Pauli channel on each qubit
        a = ([1.0 - 0.75 * p] + [p / 4.0] * 3 if noise.kind == "local-depol"
             else [1.0 - p, 0.0, 0.0, p])
        q = np.outer(a, a).ravel()
    return q


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _csign_basis() -> np.ndarray:
    """Row i is the flat transfer matrix of rho -> K_i rho K_i^dagger, where
    K_i = Q_i CSIGN, Q_i the i-th Pauli pair P_a (x) P_b (i = 4 a + b) and
    CSIGN = diag(1, 1, 1, -1).  A noisy CSIGN's Kraus operators are
    sqrt(q_i) K_i (see _noise_weights), and its superoperator
    sum_i q_i K_i (x) conj(K_i) is linear in q (Wood, Biamonte & Cory,
    QIC 15, 759 (2015)), so its transfer matrix is q @ this basis."""
    pairs = np.einsum("aij,bkl->abikjl", PAULIS, PAULIS).reshape(16, 4, 4)
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    return _frozen(np.array([pauli_transfer(superop([P @ cz]), PAULIS).ravel() for P in pairs]))


@functools.cache
def _prep_basis() -> np.ndarray:
    """Row k is the flat transfer matrix of rho -> tr(rho) P_k / 2.  A
    preparation of Bloch vector b puts (1, b) . P / 2 in its qubit's place,
    and trace-and-replace is linear in the prepared operator, so its
    transfer matrix is (1, b) @ this basis."""
    return _frozen(np.array([pauli_transfer(np.multiply.outer(P / 2, np.eye(2)), PAULIS).ravel()
                             for P in PAULIS]))


@functools.cache
def _clifford_transfer(gate: str) -> np.ndarray:
    """A Clifford's transfer matrix, the signed permutation it is in the
    Pauli basis (Aaronson & Gottesman, PRA 70, 052328 (2004)): the float
    route misses H's entries by an ulp, so they are rounded."""
    return _frozen(np.rint(pauli_transfer(superop([CLIFFORD_UNITARIES[gate]]), PAULIS)))


@functools.cache
def _projector_transfer(axis: str, outcome: int) -> np.ndarray:
    projector = (np.eye(2) + outcome * PAULIS[axis_index(axis)]) / 2
    return _frozen(pauli_transfer(superop([projector]), PAULIS))


def _transfer_matrix(op, outcome: int = 0) -> np.ndarray:
    """The Pauli transfer matrix of an op on its own qubits: 4 x 4 for a
    preparation (trace out the qubit and put the prepared state in its
    place), a Clifford, or a measurement's projector (I + outcome P) / 2,
    16 x 16 for a noisy CSIGN.  A preparation's and a noisy CSIGN's are one
    product of their weights with a fixed basis; a Clifford's and a
    projector's are built once per process.  The bases and the cached
    matrices are read-only."""
    if isinstance(op, Prepare):
        return (np.concatenate(([1.0], op.state.bloch)) @ _prep_basis()).reshape(4, 4)
    if isinstance(op, Clifford1):
        return _clifford_transfer(op.gate)
    if isinstance(op, NoisyCsign):
        return (_noise_weights(op.noise) @ _csign_basis()).reshape(16, 16)
    return _projector_transfer(op.axis, outcome)


def check_dense_width(circuit: Circuit) -> None:
    """Raise ValueError unless the dense reference can take circuit: at
    most DENSE_MAX_QUBITS qubits, since it holds 4^n Pauli coefficients,
    and every preparation quantum (inside the Bloch ball), an ifeq's that
    no branch reaches too.  _dense_plan calls it before any op runs, and
    the CLI before any shot is sampled."""
    if circuit.num_qubits > DENSE_MAX_QUBITS:
        raise ValueError(f"dense simulation supports at most {DENSE_MAX_QUBITS} qubits; "
                         f"got {circuit.num_qubits}")
    sphere = StateSpaceSpec.sphere(1.0)
    for op in _unwrapped(circuit.ops):
        if isinstance(op, Prepare) and not contains(sphere, op.state):
            raise ValueError("dense simulation requires quantum preparations "
                             f"(|bloch| <= 1); got {op.state.bloch}")


def _dense_plan(circuit: Circuit) -> tuple[list[tuple], int]:
    """simulate_dense's steps, and the most qubits live at once.  The plan
    fixes every step's layout, the same on every branch, so the walk
    carries no axis order.  A step is
    (op, control, enter, lead, T, measure, trace, order):
    - op: the index of the op the step belongs to;
    - order: the state's axis order while the step acts, axis p of qubit
      order[p];
    - control: a classical control's (record id, value), else None;
    - enter: None, or (c, size, shape) for the qubits whose first op this
      is, which enter in front of the axes of the state, of that size, by
      one outer product of that shape with their coefficients c: an
      unconditional preparation's qubit as (1, b), which the op then leaves
      as it is, any other qubit maximally mixed;
    - lead: None, or (shape, perm, size), the transposing copy that brings
      the op's qubits to the front, made whether its classical control runs
      the op or not;
    - T: None, or (T, shape, size), the transfer matrix that multiplies the
      state read in that shape;
    - measure: None, or (record id, shape, leaves, outcomes), the state read
      in that shape, 4 rows by the rest, and for each outcome, +1 then -1,
      its projector's transfer matrix P or, when the qubit leaves, P[0],
      which writes only the identity row;
    - trace: None where the leaving qubits lead, whose partial trace is then
      the state's prefix, else (shape, perm, zeros, size, kept shape, kept
      size), one strided copy of their axes at index 0.
    Each unconditional Clifford folds, exactly, into the next op on its
    qubit.  It is a signed permutation in the Pauli basis, pending and
    composed with any later Clifford on the qubit until a noisy CSIGN takes
    T @ (C1 (x) C2) or a measurement P+- @ C.  A preparation drops it, as a
    Clifford preserves the trace, all a preparation reads (its row 0 is
    e_0).  Before an ifeq op on the qubit it runs as a step of its own, and
    as its qubit's last op it is dropped, the qubit still leaving there.  A
    classical control's op counts as its qubits' first or last whether a
    branch runs it or not.  Each distinct noisy CSIGN's T is built once per
    call."""
    check_dense_width(circuit)
    first, last = {}, {}
    for k, op in enumerate(_unwrapped(circuit.ops)):
        for q in _op_qubits(op):
            first.setdefault(q, k)
            last[q] = k
    # per op, the qubits whose first op it is, in the op's order, and the
    # qubits whose last op it is
    firsts, lasts = [()] * len(circuit.ops), [()] * len(circuit.ops)
    for q, k in first.items():
        firsts[k] += (q,)
    for q, k in last.items():
        lasts[k] += (q,)
    steps, order, pending, csigns = [], (), {}, {}

    def emit(k, control, enter, qubits=(), T=None, measure=None, leaving=()):
        nonlocal order
        if enter:
            fresh, coeffs = enter
            enter = (coeffs, 4 ** len(order), (len(coeffs), 4 ** len(order)))
            order = fresh + order
        shape, size = (4,) * len(order), 4 ** len(order)
        perm, order = lead_axes(order, qubits)
        lead = None if perm is None else (shape, perm, size)
        if T is not None:
            T = (T, (len(T), size // len(T)), size)
        trace, layout = None, order
        if leaving:
            leaving = sorted(leaving, key=order.index)
            perm, order = lead_axes(order, leaving)
            order = order[len(leaving):]
            if perm is not None:
                trace = (shape, perm, (0,) * len(leaving), size, (4,) * len(order),
                         4 ** len(order))
        steps.append((k, control, enter, lead, T, measure, trace, layout))

    for k, (op, entering, leaving) in enumerate(zip(circuit.ops, firsts, lasts)):
        control = None
        if isinstance(op, ClassicalControl):
            control, op = (op.record_id, op.value), op.op
        qubits = _op_qubits(op)
        prepared = control is None and isinstance(op, Prepare)
        enter = None
        if entering and prepared:
            enter = (entering, np.concatenate(([1.0], op.state.bloch)))
        elif entering:
            mixed = np.zeros(4 ** len(entering))
            mixed[0] = 1.0
            enter = (entering, mixed)
        if control is not None:
            # a branch may skip the op: a pending Clifford runs before it
            for q in qubits:
                if q in pending:
                    emit(k, None, enter, (q,), pending.pop(q))
                    enter = None
            folded = [None] * len(qubits)
        elif isinstance(op, Clifford1):
            q = op.qubit
            if leaving:
                pending.pop(q, None)
            else:
                C = _clifford_transfer(op.gate)
                pending[q] = C @ pending[q] if q in pending else C
            if entering != leaving:
                emit(k, None, enter, leaving=leaving)
            continue
        else:
            folded = [pending.pop(q, None) for q in qubits]
        if isinstance(op, Measure):
            outcomes = []
            for outcome in (1, -1):
                P = _transfer_matrix(op, outcome)
                if folded[0] is not None:
                    P = P @ folded[0]
                outcomes.append((outcome, P[0] if leaving else P))
            live = len(order) + len(entering)
            emit(k, control, enter, qubits,
                 measure=(op.record_id, (4, 4 ** (live - 1)), bool(leaving), outcomes),
                 leaving=leaving)
        elif isinstance(op, NoisyCsign):
            T = csigns.get(op.noise)
            if T is None:
                T = csigns[op.noise] = _transfer_matrix(op)
            C1, C2 = folded
            if C1 is not None or C2 is not None:
                # T @ (C1 (x) C2), T's columns read as 4 x 4 blocks
                T = T.reshape(16, 4, 4)
                if C1 is not None:
                    T = C1.T @ T
                if C2 is not None:
                    T = T @ C2
                T = T.reshape(16, 16)
            emit(k, control, enter, qubits, T, leaving=leaving)
        elif prepared and entering:
            emit(k, None, enter, leaving=leaving)
        else:
            emit(k, control, enter, qubits, _transfer_matrix(op), leaving=leaving)
    return steps, max((len(step[-1]) for step in steps), default=0)


def simulate_dense(circuit: Circuit) -> dict:
    """Exact outcome distribution over classical record strings.

    Preparations must be quantum (inside the Bloch sphere), which is checked
    before any op runs; measurements collapse the state and fork the branch
    tree with exact Born weights, and an outcome of weight at most
    DENSE_BRANCH_FLOOR of its branch's opens no branch.  A branch holds
    rho = 2^-m sum_idx c_idx P_idx of its m live qubits by its real Pauli
    coefficients c (see dense); its trace is c[0, ..., 0].  The walk only
    copies and multiplies: every step is planned before it (_dense_plan),
    its transfer matrix, from a per-process basis or cache
    (_transfer_matrix), and its layout, the state's axis order, its
    transposes and its sizes, the same on every branch, so a branch
    carries no axis order.  Each unconditional Clifford folds into the
    next transfer matrix on its qubit.  A qubit is live from its first op
    to its last, run or skipped by its classical control: the state starts
    with no qubit (the scalar 1), and a qubit enters before its first op by
    one outer product into the spare buffer, prepared if that op is an
    unconditional preparation (which then applies nothing more) and
    maximally mixed otherwise.  Every other op but a measurement is at most
    one transposing copy, which brings its qubits' axes to the front, and
    one matrix product.  After a qubit's last op it is traced out, its axis
    taken at index 0, so the state shrinks fourfold; a measurement that is
    its qubit's last op writes only each outcome's identity row,
    (c_0 +- c_axis) / 2.  A final block of k measurements on m live qubits
    thus writes 4^m (1 - 2^-k) entries over all its branches, where
    keeping every qubit would write (2^(k+1) - 2) 4^m.  A measurement's
    projections are written into the buffers of ended branches where there
    are any; every state is a prefix of one of the reused 4^w buffers, w
    the most qubits live at once, so a call allocates no more buffers than
    it holds states at once.  Circuits of more than
    DENSE_MAX_QUBITS qubits are refused.
    """
    steps, most = _dense_plan(circuit)
    rids = circuit.record_ids()
    spare = np.empty(4 ** most)    # every copy and product writes into it
    free = []   # the buffers of ended branches, which projections write into
    start = np.empty(4 ** most)
    start[0] = 1.0      # no qubit is live: the state is the scalar 1

    dist: dict[str, float] = {}
    # depth first over the measurement branches, + before -, on an explicit
    # stack: a recursive closure would form a reference cycle.  A branch
    # carries the buffer of its unnormalized state; the plan fixes its layout
    stack = [(start, 0, {})]
    while stack:
        c, k, record = stack.pop()
        while k < len(steps):
            _, control, enter, lead, T, measure, trace, _ = steps[k]
            k += 1
            if enter:
                coeffs, size, shape = enter
                np.multiply.outer(coeffs, c[:size], out=spare[:coeffs.size * size].reshape(shape))
                c, spare = spare, c
            if lead:
                shape, perm, size = lead
                np.copyto(spare[:size].reshape(shape), c[:size].reshape(shape).transpose(perm))
                c, spare = spare, c
            if control is None or record.get(control[0]) == control[1]:
                if measure:
                    # each outcome's projection is one product into a buffer
                    # of its own, or, when the qubit leaves, its identity row
                    rid, shape, leaves, outcomes = measure
                    rows = c[:shape[0] * shape[1]].reshape(shape)
                    floor = DENSE_BRANCH_FLOOR * c[0]
                    branches = []
                    for outcome, P in outcomes:
                        sub = free.pop() if free else np.empty_like(spare)
                        if leaves:
                            np.dot(P, rows, out=sub[:shape[1]])
                        else:
                            np.matmul(P, rows, out=sub[:rows.size].reshape(shape))
                        if sub[0] > floor:
                            branches.append((sub, k, {**record, rid: outcome}))
                        else:
                            free.append(sub)
                    free.append(c)
                    stack.extend(reversed(branches))
                    break
                if T:
                    T, shape, size = T
                    np.matmul(T, c[:size].reshape(shape), out=spare[:size].reshape(shape))
                    c, spare = spare, c
            if trace:
                shape, perm, zeros, size, kept, kept_size = trace
                np.copyto(spare[:kept_size].reshape(kept),
                          c[:size].reshape(shape).transpose(perm)[zeros])
                c, spare = spare, c
        else:
            key = "".join(_RECORD_CHARS[record.get(rid, 0) + 1] for rid in rids)
            dist[key] = dist.get(key, 0.0) + float(c[0])
            free.append(c)
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
