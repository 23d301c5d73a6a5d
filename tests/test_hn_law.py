"""The HN sampler's exact output law (hn_law) against the dense reference,
the preparation tables against the per-axis product law, the Clifford and
measurement rules against the dense reference's Pauli transfer matrices,
and sampled histograms and draws against their laws."""
import math

import numpy as np
import pytest

from gencube import simulator
from gencube.gates import NoiseModel
from gencube.pauli import BlochOp, axis_index, bloch_to_dense
from gencube.spaces import CUBE_SIGNS
from gencube.simulator import (
    Circuit,
    ClassicalControl,
    Clifford1,
    Measure,
    NoisyCsign,
    Prepare,
    parse_circuit,
    simulate_dense,
    simulate_hn,
    tvd,
)

from circuit_suite import SUITE
from hn_law import gate_transition, hn_law, prep_law, table_transition

# cube-separable strengths, 0.01 inside each family's range: from 2/3,
# 2 - sqrt(2) and 1 - 1/sqrt(2) up; dephasing at p and 1 - p differ by a Z,
# so its range ends at 1/sqrt(2)
SEPARABLE_RANGES = {
    "joint-depol": (2 / 3 + 0.01, 1.0),
    "local-depol": (2 - math.sqrt(2) + 0.01, 1.0),
    "local-dephase": (1 - 1 / math.sqrt(2) + 0.01, 1 / math.sqrt(2) - 0.01),
}


def _assert_law_matches(law: dict, dist: dict) -> None:
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    keys = set(law) | set(dist)
    assert max(abs(law.get(k, 0.0) - dist.get(k, 0.0)) for k in keys) <= 1e-12


def _random_prep(rng, q: int) -> Prepare:
    """An axis eigenstate, a cube direction on the sphere, or a point of the
    Bloch ball."""
    r = rng.random()
    if r < 0.25:
        b = np.zeros(3)
        b[rng.integers(3)] = rng.choice((1.0, -1.0))
    elif r < 0.5:
        b = rng.choice((1.0, -1.0), size=3) / math.sqrt(3.0)
    else:
        b = rng.standard_normal(3)
        b *= rng.uniform(0.2, 1.0) / np.linalg.norm(b)
    return Prepare(q, BlochOp(b))


def _random_op(rng, n: int, noises: list):
    kind = rng.integers(4)
    if kind <= 1:
        q1, q2 = (int(q) for q in rng.choice(n, 2, replace=False))
        return NoisyCsign(q1, q2, noises[int(rng.integers(len(noises)))])
    if kind == 2:
        return Clifford1(int(rng.integers(n)), str(rng.choice(list("XYZSH"))))
    return _random_prep(rng, int(rng.integers(n)))


def _random_separable_circuit(seed: int) -> Circuit:
    """A 2-6 qubit adaptive circuit with one cube-separable CSIGN of each
    family; some qubits are left unprepared.  Record a steers an ifeq and is
    measured again on the same qubit as b; an ifeq on b measures c, which
    stays unwritten on the other branch, and d may overwrite a."""
    rng = np.random.default_rng(2000 + seed)
    n = 2 + seed % 5
    noises = [NoiseModel(kind, float(rng.uniform(*lo_hi)))
              for kind, lo_hi in SEPARABLE_RANGES.items()]
    ops = [_random_prep(rng, q) for q in range(n) if rng.random() < 0.75]
    ops += [_random_op(rng, n, noises) for _ in range(6)]
    q = int(rng.integers(n))
    ops.append(Measure(q, str(rng.choice(list("XYZ"))), "a"))
    ops.append(ClassicalControl("a", int(rng.choice((1, -1))), _random_op(rng, n, noises)))
    ops += [_random_op(rng, n, noises) for _ in range(3)]
    ops.append(Measure(q, str(rng.choice(list("XYZ"))), "b"))
    ops.append(ClassicalControl("b", int(rng.choice((1, -1))),
                                Measure(int(rng.integers(n)), str(rng.choice(list("XYZ"))), "c")))
    ops += [_random_op(rng, n, noises) for _ in range(3)]
    ops.append(Measure(int(rng.integers(n)), str(rng.choice(list("XYZ"))),
                       str(rng.choice(["a", "d"]))))
    return Circuit(n, tuple(ops))


@pytest.mark.parametrize("name", sorted(SUITE))
def test_hn_law_equals_dense_on_the_suite(name):
    c = parse_circuit(SUITE[name])
    _assert_law_matches(hn_law(c), simulate_dense(c))


@pytest.mark.parametrize("seed", range(32))
def test_hn_law_equals_dense_on_random_circuits(seed):
    c = _random_separable_circuit(seed)
    _assert_law_matches(hn_law(c), simulate_dense(c))


def test_random_circuits_cover_every_case():
    circuits = [_random_separable_circuit(seed) for seed in range(32)]
    assert {c.num_qubits for c in circuits} == {2, 3, 4, 5, 6}
    laws = [hn_law(c) for c in circuits[:10]]
    # an unwritten record, a record overwritten, and an unprepared qubit
    assert any("." in k for law in laws for k in law)
    assert any(len(c.record_ids()) == 3 for c in circuits)
    assert any(len({op.qubit for op in c.ops if isinstance(op, Prepare)}) < c.num_qubits
               for c in circuits)


def test_sampled_histogram_fits_the_law_beyond_the_sphere():
    # cube vertices and a cube point outside the Bloch sphere, which the dense
    # reference refuses, and a qubit measured three times; the bench's bound
    # 3 sqrt(K / shots) fails a correct sampler with probability below
    # exp(-13 K)
    text = """
qubits 3
prep 0 1 1 1
prep 1 -1 1 -1
prep 2 0.9 -0.9 0.5
csign 0 1 joint-depol 0.7
csign 1 2 local-dephase 0.4
meas 0 Y a
ifeq a -1 clif 1 H
csign 2 0 local-depol 0.65
meas 1 X b
meas 1 X e
meas 1 Z f
meas 2 Z c
meas 0 X d
"""
    c = parse_circuit(text)
    with pytest.raises(ValueError, match="quantum preparations"):
        simulate_dense(c)
    law = hn_law(c)
    shots = 200_000
    hist = simulate_hn(c, shots, seed=4).histogram
    assert set(hist) <= set(law)
    assert tvd(hist, law) <= 3.0 * math.sqrt(len(law) / shots)


def _prep_blochs():
    """The 8 cube vertices, the 6 axis states and 32 seeded interior points
    of the cube."""
    axes = np.concatenate((np.eye(3), -np.eye(3)))
    interior = np.random.default_rng(41).uniform(-1.0, 1.0, size=(32, 3))
    return np.concatenate((CUBE_SIGNS.astype(float), axes, interior))


def _prep_identity_errors(bloch):
    """How far the preparation table's law is from the per-axis product law
    on the 8 vertices, and how far its mean of Phi(v) = (I + v.sigma)/2 is
    from (I + b.sigma)/2, the state the preparation stands for."""
    law = prep_law(bloch)
    product = np.prod((1.0 + CUBE_SIGNS * bloch) / 2.0, axis=1)
    phi = np.array([bloch_to_dense(BlochOp(v.astype(float))).entries for v in CUBE_SIGNS])
    mean = np.tensordot(law, phi, axes=1)
    return (np.abs(law - product).max(),
            np.abs(mean - bloch_to_dense(BlochOp(bloch)).entries).max())


def test_prep_table_law_is_the_product_law_and_its_state():
    for b in _prep_blochs():
        law_err, state_err = _prep_identity_errors(b)
        assert law_err <= 1e-15, b
        assert state_err <= 1e-15, b


def test_prep_table_with_two_axes_swapped_fails_its_identity(monkeypatch):
    table_of = simulator._prep_table
    monkeypatch.setattr(simulator, "_prep_table", lambda b: table_of(b[[1, 0, 2]]))
    errors = [_prep_identity_errors(b) for b in _prep_blochs() if abs(b[0] - b[1]) > 0.1]
    assert all(law_err > 0.01 and state_err > 0.01 for law_err, state_err in errors)


# Phi(v) = (I + v.sigma) / 2 of each cube vertex by its Pauli coefficients
# (1, v), which the dense reference's transfer matrices act on
VERTEX_COEFFS = np.hstack((np.ones((8, 1), dtype=np.int64), CUBE_SIGNS))


def _integers(T: np.ndarray) -> np.ndarray:
    """T's entries as integers; each must lie within 1e-15 of one."""
    R = np.rint(T)
    assert np.abs(T - R).max() <= 1e-15
    return R.astype(np.int64)


def _clifford_identity_holds(gate: str) -> bool:
    """The gate's transfer matrix maps (1, v) to (1, perm(v)) for all 8
    vertices, perm the sampler's vertex permutation: U Phi(v) U^dagger =
    Phi(perm(v))."""
    T = _integers(simulator._transfer_matrix(Clifford1(0, gate)))
    perm = simulator._CLIFFORD_PERMS[gate].astype(np.intp)
    return np.array_equal(VERTEX_COEFFS @ T.T, VERTEX_COEFFS[perm])


class _EveryRedraw:
    """Stands for the collapse stream's bit generator: the eight bytes of
    each raw word carry the 3-bit values 0, 1, ..., 7 in their low bits, in
    that order, and ones in their high bits, so 8 shots of one vertex meet
    every redraw once, and a redraw that kept a high bit would leave the
    cube."""

    def random_raw(self, size):
        word = int.from_bytes(bytes(range(0xF8, 0x100)), "little")
        return np.full(size, word, dtype=np.uint64)


def _collapse_counts(axis: str) -> np.ndarray:
    """counts[v, i, w]: of 8 equally likely redraws, those in which the
    sampler's measurement along axis takes vertex v to outcome (1, -1)[i]
    and vertex w, read off simulator._collapse fed every redraw once per
    vertex through its raw bytes."""
    before = np.repeat(np.arange(8, dtype=np.uint8), 8)
    after = before.copy()
    outcome = simulator._collapse(after, axis, _EveryRedraw())
    counts = np.zeros((8, 2, 8), dtype=np.int64)
    np.add.at(counts, (before, (1 - outcome) // 2, after), 1)
    return counts


def _measurement_identity_holds(axis: str) -> bool:
    """For both outcomes s, the projector's transfer matrix maps (1, v) to
    [v_a = s] (1, s e_a), and so does the sampler's rule: the mean of
    (1, w) over the vertices w it moves v to with outcome s, weighted by
    their probabilities.  Both sides times 8 are integers."""
    a = axis_index(axis)    # the Pauli index, 1 for X
    counts = _collapse_counts(axis)
    for i, s in enumerate((1, -1)):
        T = _integers(2 * simulator._transfer_matrix(Measure(0, axis, "m"), s))
        expected = np.zeros((8, 4), dtype=np.int64)
        hit = VERTEX_COEFFS[:, a] == s
        expected[hit, 0] = 8
        expected[hit, a] = 8 * s
        if not (np.array_equal(4 * VERTEX_COEFFS @ T.T, expected)
                and np.array_equal(counts[:, i] @ VERTEX_COEFFS, expected)):
            return False
    return True


def test_clifford_and_measurement_rules_are_their_channels():
    assert all(_clifford_identity_holds(gate) for gate in "XYZSH")
    assert all(_measurement_identity_holds(axis) for axis in "XYZ")


@pytest.mark.parametrize("gate", "XYZSH")
def test_clifford_permutation_with_two_entries_swapped_fails_its_identity(monkeypatch, gate):
    perm = simulator._CLIFFORD_PERMS[gate].copy()
    perm[[2, 5]] = perm[[5, 2]]
    monkeypatch.setitem(simulator._CLIFFORD_PERMS, gate, perm)
    assert not _clifford_identity_holds(gate)


@pytest.mark.parametrize("axis", "XYZ")
def test_measurement_that_redraws_the_measured_bit_fails_its_identity(monkeypatch, axis):
    collapse = simulator._collapse

    def redraws_every_bit(vertex, axis, bits):
        outcome = collapse(vertex, axis, bits)
        vertex[:] = simulator._packed(bits, vertex.size, 1) & 7
        return outcome

    monkeypatch.setattr(simulator, "_collapse", redraws_every_bit)
    assert not _measurement_identity_holds(axis)


# Phi(u) (x) Phi(v) of each vertex pair 8 i + j by its two-qubit Pauli
# coefficients kron((1, u), (1, v)), the first qubit's most significant
PAIR_COEFFS = np.einsum("ia,jb->ijab", VERTEX_COEFFS, VERTEX_COEFFS).reshape(64, 16)
# 101-point grids of each family on [0, 1]
CSIGN_GRID = [NoiseModel(kind, float(p)) for kind in sorted(SEPARABLE_RANGES)
              for p in np.linspace(0.0, 1.0, 101)]


def _csign_identity_errors() -> list[float]:
    """For each accepted gate of CSIGN_GRID, the largest entry of
    T_dense (1, u) (x) (1, v) - sum_w T[uv, w] (1, w1) (x) (1, w2) over the
    64 vertex pairs uv: the noisy CSIGN on Phi(u) (x) Phi(v) against the
    mixture of the pairs the sampler's transition T (gate_transition) moves
    uv to."""
    errors = []
    for noise in CSIGN_GRID:
        try:
            T = gate_transition(noise)
        except simulator.CircuitNotSimulableError:
            continue
        dense = simulator._transfer_matrix(NoisyCsign(0, 1, noise))
        errors.append(np.abs(PAIR_COEFFS @ dense.T - T @ PAIR_COEFFS).max())
    return errors


def test_csign_rule_is_its_channel_on_every_accepted_gate():
    errors = _csign_identity_errors()
    assert len(errors) == 117       # of the 303 grid gates
    assert max(errors) <= 1e-12


def test_gate_table_with_one_moved_entry_fails_its_identity(monkeypatch):
    # on one input pair per gate, the entry of largest weight selects the
    # pair with the second qubit's Z sign flipped
    table_of = simulator._gate_table

    def one_entry_moved(w0, maps):
        table = table_of(w0, maps)
        moved = table.moved.copy()
        k = int(np.diff(table.cdf, prepend=0.0).argmax())
        moved[table.cdf.size % 64, k] ^= 1
        return simulator._GateTable(table.cdf, moved, table.guide)

    monkeypatch.setattr(simulator, "_gate_table", one_entry_moved)
    errors = _csign_identity_errors()
    assert len(errors) == 117 and min(errors) > 0.01


class _RecordingWords:
    """The bit generator bits, keeping each raw draw it serves."""

    def __init__(self, bits):
        self.bits, self.draws = bits, []

    def random_raw(self, size):
        self.draws.append(self.bits.random_raw(size))
        return self.draws[-1]


def _open_bucket_entry_law(table):
    """The open buckets (-1 in the guide) and the joint law of (open
    bucket, CDF entry) of a draw whose bucket is open: each open bucket is
    equally likely, and an entry takes the share of the bucket its interval
    covers, the last entry's reaching past 1."""
    M = simulator.GUIDE_BUCKETS
    lo = np.concatenate(([0.0], table.cdf[:-1]))
    hi = np.concatenate((table.cdf[:-1], [np.inf]))
    buckets = np.flatnonzero((table.guide[:M] < 0).any(axis=1))
    b = buckets[:, None]
    share = np.clip(np.minimum(hi, (b + 1) / M) - np.maximum(lo, b / M), 0.0, None)
    return buckets, M * share / buckets.size


def _miss_heavy_table():
    """A gate table of 64 seeded weights, one on every pair: its 63 CDF
    entries below 1 leave about 6 % of the guide's buckets open."""
    w0 = np.random.default_rng(31).random(64) + 0.01
    return simulator._gate_table(w0, simulator._pair_maps())


# 10^6 draws through one preparation table, one gate table, a gate table
# that sends a measured share of its shots down the miss path, and one
# measurement's collapse, each shot from a uniformly drawn row among those
# the sampler feeds it (the 8 vertices, the 64 pairs, the 64 pairs, the 8
# vertices): the joint law of (row, draw) must sit within the bench's bound
# 3 sqrt(K / shots) of the exact law, K its support
@pytest.mark.parametrize("kind", ["prep", "gate", "misses", "collapse"])
def test_draws_fit_their_tables_law(kind):
    rng = np.random.default_rng(29)
    shots = 10 ** 6
    if kind == "collapse":
        # along Y: the vertex keeps its Y bit, the other two are uniform
        rows, bit = 8, (np.arange(8) >> 1) & 1
        exact = np.zeros((rows, 64))
        exact[:, :8] = (bit[:, None] == bit) / 32.0
        exact = exact.ravel()
        row = rng.integers(0, rows, size=shots, dtype=np.uint8)
        drawn = row.copy()
        simulator._collapse(drawn, "Y", rng.bit_generator)
    else:
        if kind == "prep":
            table, rows = simulator._prep_table(np.array([0.3, -0.5, 0.6])), 8
        elif kind == "gate":
            noise = NoiseModel("local-depol", 0.7)
            table = simulator._gate_table(simulator._gate_weights(noise),
                                          simulator._pair_maps())
            rows = 64
        else:
            table, rows = _miss_heavy_table(), 64
        exact = (table_transition(table)[:rows] / rows).ravel()
        row = rng.integers(0, rows, size=shots, dtype=np.uint8)
        bits = _RecordingWords(rng.bit_generator)
        drawn = simulator._draw_pairs(table, row, bits)
        # one word per 4 shots, then one per shot of an open bucket
        fields, misses = bits.draws[0].view("<u2"), bits.draws[1:]
        assert fields.size == shots and len(misses) <= 1
        missed = table.guide[fields >> 6, row] < 0
        assert sum(m.size for m in misses) == np.count_nonzero(missed)
        if kind == "misses":
            # the measured share of shots on the miss path is the guide's
            # share of open buckets, and the entries those shots take fit
            # their law given an open bucket
            open_share = (table.guide[:simulator.GUIDE_BUCKETS] < 0).mean()
            share = missed.mean()
            assert open_share > 0.05
            assert abs(share - open_share) <= 5.0 * math.sqrt(open_share / shots)
            entry = (table.moved[row[missed]] == drawn[missed, None]).argmax(axis=1)
            buckets, law = _open_bucket_entry_law(table)
            cell = np.searchsorted(buckets, fields[missed] >> 6) * law.shape[1] + entry
            got = np.bincount(cell, minlength=law.size) / cell.size
            assert 0.5 * np.abs(got - law.ravel()).sum() <= 3.0 * math.sqrt(
                np.count_nonzero(law) / cell.size)
    counts = np.bincount(row.astype(np.intp) * 64 + drawn, minlength=rows * 64)
    K = np.count_nonzero(exact)
    assert set(np.flatnonzero(counts)) <= set(np.flatnonzero(exact))
    assert 0.5 * np.abs(counts / shots - exact).sum() <= 3.0 * math.sqrt(K / shots)
