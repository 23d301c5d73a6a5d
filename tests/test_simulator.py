import gc
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import re

import numpy as np
import pytest

from gencube import lp, separability, simulator
from gencube.dense import partial_trace, permute_qubits, trace_out
from gencube.gates import NoiseModel, pipeline
from gencube.pauli import PAULIS, BlochOp, PauliCoeffs2Q, axis_index
from gencube.separability import LhvCertificate, verify_certificate
from gencube.spaces import CUBE_SIGNS, VERTEX_PERMS, StateSpaceSpec, contains, cube_vertices
from gencube.simulator import (
    Circuit,
    CircuitNotSimulableError,
    ClassicalControl,
    Clifford1,
    Measure,
    NoisyCsign,
    Prepare,
    histogram_to_csv,
    parse_circuit,
    simulate_dense,
    simulate_hn,
    tvd,
)

from circuit_suite import SUITE, T

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_parse_circuit():
    c = parse_circuit(SUITE["adaptive_feedforward"])
    assert c.num_qubits == 3
    kinds = [type(op).__name__ for op in c.ops]
    assert kinds == ["Prepare", "Prepare", "Prepare", "NoisyCsign", "Measure",
                     "ClassicalControl", "ClassicalControl", "NoisyCsign",
                     "Measure", "Measure"]
    assert c.record_ids() == ["m0", "m1", "m2"]
    ctrl = c.ops[5]
    assert isinstance(ctrl.op, Clifford1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_circuit("prep 0 1 0 0")  # qubits line missing
    with pytest.raises(ValueError):
        parse_circuit("qubits 2\nwobble 0")


MALFORMED_LINES = [
    "meas 0 Z",
    "meas 0 Z a extra",
    "ifeq a 1",
    "ifeq a",
    "ifeq a 1 clif 0",
    "csign 0 1 joint-depol",
    "prep 0 1 0",
    "clif 0",
    "qubits",
    "meas zero Z b",
    # well formed, but not on the 2 qubits declared on line 1
    "qubits 3",
    "meas 5 Z b",
    "ifeq a 2 clif 0 X",
    "prep 0 2 0 0",
    "csign 0 0 joint-depol 0.8",
]


@pytest.mark.parametrize("line", MALFORMED_LINES)
def test_parse_rejects_malformed_line_naming_it(line):
    text = f"qubits 2\nmeas 0 Z a\n{line}\n"
    with pytest.raises(ValueError, match=f"circuit line 3 {re.escape(repr(line))}"):
        parse_circuit(text)


def test_ifeq_on_an_unwritten_record_id_rejected():
    ops = (Prepare(0, BlochOp(np.array([1.0, 0.0, 0.0]))), Measure(0, "Z", "a"),
           ClassicalControl("b", 1, Clifford1(0, "X")))
    with pytest.raises(ValueError, match="'b', which no measurement writes"):
        Circuit(1, ops)
    text = "qubits 1\nprep 0 1 0 0\nmeas 0 Z a\nifeq b +1 clif 0 X\nmeas 0 X c\n"
    for simulate in (lambda c: simulate_hn(c, 100, seed=1), simulate_dense):
        with pytest.raises(ValueError, match="'b', which no measurement writes"):
            simulate(parse_circuit(text))
    # a record written later is fine: the op is skipped on both samplers
    later = "qubits 1\nprep 0 1 0 0\nifeq a +1 clif 0 Z\nmeas 0 X a\n"
    c = parse_circuit(later)
    assert simulate_hn(c, 100, seed=1).histogram == {"+": 100}
    assert simulate_dense(c) == pytest.approx({"+": 1.0})


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (Prepare(5, BlochOp(np.zeros(3))),))
    with pytest.raises(ValueError):
        Circuit(2, (NoisyCsign(0, 0, NoiseModel("joint-depol", 0.9)),))
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_circuit_keeps_the_ops_of_an_iterator():
    ops = [Prepare(0, BlochOp(np.array([0.0, 0.0, 1.0]))), Measure(0, "Z", "a")]
    c = Circuit(1, (op for op in ops))
    assert c.ops == tuple(ops)
    assert c.record_ids() == ["a"]
    assert simulate_hn(c, 100, seed=1).histogram == {"+": 100}
    with pytest.raises(ValueError, match="qubit index out of range"):
        Circuit(1, iter([Prepare(3, BlochOp(np.zeros(3)))]))


def test_off_cube_preparation_rejected():
    with pytest.raises(ValueError):
        Circuit(1, (Prepare(0, BlochOp(np.array([2.0, 0.0, 0.0]))),))
    with pytest.raises(ValueError):
        parse_circuit("qubits 1\nprep 0 0.5 -1.01 0\nmeas 0 Z a\n")
    with pytest.raises(ValueError):
        parse_circuit("qubits 1\nprep 0 nan 0 0\nmeas 0 Z a\n")
    # an unnormalized state is no preparation: dense refuses it as well
    with pytest.raises(ValueError, match="preparation must be normalized"):
        Circuit(1, (Prepare(0, BlochOp(np.array([0.0, 0.0, 1.0]), 0.5)), Measure(0, "Z", "a")))
    # every point of the cube is a valid HN preparation, corners included
    c = parse_circuit("qubits 1\nprep 0 1 -1 1\nmeas 0 Y a\n")
    assert simulate_hn(c, 100, seed=1).histogram == {"-": 100}


@pytest.mark.parametrize("shots", [0, -5])
def test_bad_shot_count_rejected_before_the_gate_tables(shots):
    # the noiseless gate would fail the table build; the shot count fails first
    text = "qubits 2\nprep 0 1 0 0\nprep 1 0 0 1\ncsign 0 1 joint-depol 0.0\nmeas 0 X a\n"
    with pytest.raises(ValueError, match="shots must be at least 1"):
        simulate_hn(parse_circuit(text), shots, seed=1)


def test_negative_seed_rejected_before_the_gate_tables():
    text = "qubits 2\nprep 0 1 0 0\nprep 1 0 0 1\ncsign 0 1 joint-depol 0.0\nmeas 0 X a\n"
    with pytest.raises(ValueError, match="seed must be a non-negative integer; got -1"):
        simulate_hn(parse_circuit(text), 10, seed=-1)


@pytest.mark.parametrize("text, shots", [
    # every qubit drawn, and only qubit 1 drawn beside a prepared qubit 0;
    # both states pass 2^63 bytes, which numpy refuses before allocating
    ("qubits 1000000\ncsign 0 1 joint-depol 0.0\nmeas 0 Z a\n", 99_999_999_999_999),
    ("qubits 2\nprep 0 1 0 0\ncsign 0 1 joint-depol 0.0\nmeas 1 Z a\n", 2 ** 62 + 1),
], ids=["all-drawn", "one-prepared"])
def test_state_too_large_to_allocate_is_refused_before_the_gate_tables(text, shots):
    with pytest.raises(ValueError, match=r"^the shot state of \d+ qubits x \d+ shots "
                                         r"\(\d+ bytes\) cannot be allocated$"):
        simulate_hn(parse_circuit(text), shots, seed=1)


def test_qubit_cap_holds_on_the_dense_path_only():
    n = 120
    lines = [f"qubits {n}"] + [f"prep {q} 0.5 0.1 0.6" for q in range(n)]
    lines += [f"csign {q} {q + 1} joint-depol 0.8" for q in range(0, n - 1, 2)]
    lines += [f"meas {q} Z m{q}" for q in (0, 1, n - 1)]
    c = parse_circuit("\n".join(lines))
    assert sum(simulate_hn(c, 20_000, seed=3).histogram.values()) == 20_000
    with pytest.raises(ValueError, match="at most 8 qubits"):
        simulate_dense(c)


def test_noiseless_gate_refused():
    text = "qubits 2\nprep 0 1 0 0\nprep 1 0 0 1\ncsign 0 1 joint-depol 0.0\nmeas 0 X a\n"
    with pytest.raises(CircuitNotSimulableError):
        simulate_hn(parse_circuit(text), 10, seed=1)


def test_determinism():
    c = parse_circuit(SUITE["bell_like_joint"])
    h1 = simulate_hn(c, 5000, seed=42).histogram
    h2 = simulate_hn(c, 5000, seed=42).histogram
    assert h1 == h2
    h3 = simulate_hn(c, 5000, seed=43).histogram
    assert h1 != h3


# sha256 of repr(sorted(histogram.items())) of each suite circuit at 20 000
# shots: any change to a draw, a gate table or the counting shows here.
# Captured from the descent's gate tables and the preparation tables, with
# no initial draw of a qubit whose first op is a preparation, and draws
# read off the bit generators' raw words, after tests/test_hn_law.py and
# the ported draw tests passed on them; remeasure_zx has no CSIGN
PINNED_HISTOGRAMS = {
    ("adaptive_feedforward", 1):
        "a2997fcfb957cc1a400d61568bd9dccd5e6d9ab09a3e4beaabdbbd194e771def",
    ("adaptive_feedforward", 7):
        "70c0eddc27ed26ea5a8e6382efe8ae86603411f03382dbded673c038ac0e2f1a",
    ("bell_like_joint", 1):
        "1f68403d90ef4e2fd63e668dfd8f40b566463c2e7456d0ba233f0290856f993b",
    ("bell_like_joint", 7):
        "066f60d495639f3a3344ac838e866fc10fc0f93313d35b59bfe64127f740d0c3",
    ("dephase_pair", 1):
        "a202b89a5bf442d1355685c48947f5df4cc50ce4284edb3cb26cb4bfee671895",
    ("dephase_pair", 7):
        "24b2acb35ce2fd0fb4f2c3cc00b1fdc7fd70e4af4f5650b667077b32d923afb2",
    ("local_depol_pair", 1):
        "3e63db04560e26ba2575d45c7e84ae8dd2a05233cd99aa52fbb5f076d53d2653",
    ("local_depol_pair", 7):
        "6b6e3ce8f880c50927f3e2c4bc9e786243785722a36dcf187400935679d59951",
    ("remeasure_zx", 1):
        "84548c59ed337d2c9bab74738ecbfabe6f76d19e97b4bbd41adc23d24a34dbf5",
    ("remeasure_zx", 7):
        "09e62087b893c2d7e1447ea62ad476c9a8a5757631f58ef5589d3b5aeaadf33e",
    ("three_qubit_chain", 1):
        "e9f404446c467b5537ccea9e25fe0f44f8cc3a1803766c6647a7adf3246c1b54",
    ("three_qubit_chain", 7):
        "84f325c16bc144ad0d37d92e8bf3d6158749ed83330b70749d4ee314f4c55d29",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED_HISTOGRAMS))
def test_histogram_pinned_on_the_suite(name, seed):
    hist = simulate_hn(parse_circuit(SUITE[name]), 20_000, seed).histogram
    digest = hashlib.sha256(repr(sorted(hist.items())).encode()).hexdigest()
    assert digest == PINNED_HISTOGRAMS[name, seed]


# every op kind on 8 qubits: the five Cliffords, an ifeq on each of prep,
# clif, csign and meas, the three noise families, an unprepared qubit (7)
# and a qubit measured twice (4)
ALL_OPS_CIRCUIT = f"""
qubits 8
prep 0 1 0 0
prep 1 {T} {T} {T}
prep 2 0 0 1
prep 3 0.8 0 0.6
prep 4 0 1 0
prep 5 -{T} {T} -{T}
prep 6 0.3 -0.4 0.5
clif 0 X
clif 1 Y
clif 2 Z
clif 3 S
clif 4 H
csign 0 1 joint-depol 0.8
csign 2 3 local-depol 0.7
csign 4 5 local-dephase 0.35
csign 6 7 joint-depol 0.8
csign 1 2 local-depol 0.7
meas 0 X m0
ifeq m0 +1 prep 0 0 0 -1
ifeq m0 -1 clif 1 H
ifeq m0 +1 csign 3 4 local-dephase 0.35
csign 5 6 local-depol 0.7
meas 2 Z m1
ifeq m1 -1 meas 3 Y m2
csign 0 7 joint-depol 0.8
clif 5 S
meas 1 X m3
meas 5 Y m4
meas 6 Z m5
meas 7 X m6
meas 4 Z r0
meas 4 X r1
"""


def test_histogram_pinned_on_every_op_kind():
    # digest captured from the descent's gate tables and the preparation
    # tables, with draws read off raw words, after tests/test_hn_law.py
    # passed on them
    hist = simulate_hn(parse_circuit(ALL_OPS_CIRCUIT), 200_000, 1).histogram
    digest = hashlib.sha256(repr(sorted(hist.items())).encode()).hexdigest()
    assert digest == "708727b57322db132d528595bb330f6668ce72d7f9458fe7cc17f259907f1dcc"


# 12 measured records on 3 qubits, one of them written only where a0 reads
# -1, so 3^12 > 20 000 shots and the histogram counts byte strings
WIDE_RECORDS_CIRCUIT = """
qubits 3
prep 0 1 0 0
prep 1 0 0 1
prep 2 0.6 0 0.8
csign 0 1 joint-depol 0.8
meas 0 X a0
meas 1 Z a1
ifeq a0 -1 meas 2 Y a2
csign 1 2 local-depol 0.7
clif 0 H
meas 0 Z a3
csign 2 0 local-dephase 0.4
meas 2 X a4
meas 1 X a5
prep 1 0 1 0
csign 0 1 joint-depol 0.8
meas 0 Y a6
meas 1 Y a7
ifeq a6 +1 clif 2 S
meas 2 Y a8
meas 2 Z a9
meas 0 X b0
meas 1 Z b1
"""


def test_histogram_pinned_on_many_records():
    # digest captured from the descent's gate tables and the preparation
    # tables, with draws read off raw words, after tests/test_hn_law.py
    # passed on them
    c = parse_circuit(WIDE_RECORDS_CIRCUIT)
    assert 3 ** len(c.record_ids()) > 20_000
    hist = simulate_hn(c, 20_000, 3).histogram
    assert any("." in key for key in hist)
    digest = hashlib.sha256(repr(sorted(hist.items())).encode()).hexdigest()
    assert digest == "5a4f747f50a6ac8b69be69401a59c82353fb41be03671f6c58b465eb0d8a5998"


# no preparation, so every qubit is drawn in one (qubits, shots) byte draw
# and no preparation table is read
NO_PREP_CIRCUIT = """
qubits 4
clif 0 H
csign 0 1 joint-depol 0.8
csign 1 2 local-dephase 0.4
meas 0 X a
ifeq a -1 clif 2 S
csign 2 3 local-depol 0.7
meas 1 Z b
meas 2 Y c
meas 3 Z d
meas 0 X e
"""


# digests captured with draws read off raw words, after
# tests/test_hn_law.py passed on them; the ids name the seed alone, so that
# a re-capture keeps them
@pytest.mark.parametrize("seed, digest", [
    (1, "914f7b994ff030ade553c53dcf628da1b853d65811e543933720eb129ebfea0e"),
    (7, "43af978254de0e225c0db9dda3d496caca7b1c76be7c9f9a89b786adfc7192df"),
], ids=["1", "7"])
def test_circuit_without_preparation_keeps_its_histogram(seed, digest):
    # neither how preparations draw nor which qubits skip the initial draw
    # may move these digests
    hist = simulate_hn(parse_circuit(NO_PREP_CIRCUIT), 20_000, seed).histogram
    assert hashlib.sha256(repr(sorted(hist.items())).encode()).hexdigest() == digest


def test_histogram_shape_and_symbols():
    c = parse_circuit(SUITE["bell_like_joint"])
    res = simulate_hn(c, 2000, seed=7)
    assert sum(res.histogram.values()) == 2000
    assert res.rng_name == "PCG64"
    for key in res.histogram:
        assert len(key) == 2
        assert set(key) <= {"+", "-"}
    csv = histogram_to_csv(res.histogram)
    assert csv.splitlines()[0] == "outcome_string,count"


def test_dense_single_qubit_t_state():
    text = f"qubits 1\nprep 0 {1/math.sqrt(3)} {1/math.sqrt(3)} {1/math.sqrt(3)}\nmeas 0 X a\n"
    dist = simulate_dense(parse_circuit(text))
    assert abs(dist["+"] - (1 + 1 / math.sqrt(3)) / 2) < 1e-12


def test_dense_textbook_csign():
    # |+> (x) |0> is invariant under a clean CSIGN: X and Z outcomes are fixed
    text = ("qubits 2\nprep 0 1 0 0\nprep 1 0 0 1\n"
            "csign 0 1 joint-depol 0.0\nmeas 0 X a\nmeas 1 Z b\n")
    dist = simulate_dense(parse_circuit(text))
    assert abs(dist["++"] - 1.0) < 1e-12


def test_dense_rejects_nonquantum_preparation():
    text = "qubits 1\nprep 0 1 1 1\nmeas 0 Z a\n"
    with pytest.raises(ValueError):
        simulate_dense(parse_circuit(text))


def test_dense_rejects_nonquantum_preparation_no_branch_reaches():
    # qubit 0 is measured +1 with certainty, so no branch runs the ifeq's
    # preparation; it is refused all the same, before any op runs
    text = "qubits 2\nprep 0 0 0 1\nmeas 0 Z a\nifeq a -1 prep 1 1 1 1\nmeas 1 Z b\n"
    c = parse_circuit(text)
    assert {key[0] for key in simulate_hn(c, 1000, seed=1).histogram} == {"+"}
    with pytest.raises(ValueError, match="quantum preparations"):
        simulate_dense(c)


def test_dense_total_depol_uniform():
    text = ("qubits 2\nprep 0 0 0 1\nprep 1 0 0 1\n"
            "csign 0 1 joint-depol 1.0\nmeas 0 Z a\nmeas 1 Z b\n")
    dist = simulate_dense(parse_circuit(text))
    for key in ("++", "+-", "-+", "--"):
        assert abs(dist[key] - 0.25) < 1e-12
    hist = simulate_hn(parse_circuit(text), 40000, seed=3).histogram
    assert tvd(hist, dist) < 0.02


def test_tvd():
    assert tvd({"a": 10}, {"a": 3}) == 0.0
    assert tvd({"a": 1}, {"b": 4}) == 1.0
    assert abs(tvd({"a": 3, "b": 1}, {"a": 1, "b": 3}) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        tvd({}, {"a": 1})


@pytest.mark.parametrize("name", sorted(SUITE))
def test_hn_matches_dense(name):
    c = parse_circuit(SUITE[name])
    exact = simulate_dense(c)
    for seed in (11, 29):
        hist = simulate_hn(c, 20000, seed=seed).histogram
        assert tvd(hist, exact) < 0.02, seed


def test_adaptive_conditioning_matches_dense_branchwise():
    c = parse_circuit(SUITE["adaptive_feedforward"])
    exact = simulate_dense(c)
    hist = simulate_hn(c, 40000, seed=13).histogram
    # conditionals per first-measurement branch
    for branch in "+-":
        e = {k: v for k, v in exact.items() if k[0] == branch}
        h = {k: v for k, v in hist.items() if k[0] == branch}
        assert tvd(h, e) < 0.03


# ---------------------------------------------------------------------------
# The tensor-axis dense reference against the kron-embedding one it replaced
# ---------------------------------------------------------------------------
# _kron_dense_reference is the earlier simulate_dense verbatim: it lifts every
# gate, Kraus term and projector to 2^n x 2^n with a kron chain and
# conjugates with two matrix products, O(8^n) per op.


def _kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _embed_one(op: np.ndarray, q: int, n: int) -> np.ndarray:
    return _kron_all([op if k == q else np.eye(2) for k in range(n)])


def _embed_two(op4: np.ndarray, q1: int, q2: int, n: int) -> np.ndarray:
    big = _kron_all([op4] + [np.eye(2)] * (n - 2))
    order = [q1, q2] + [k for k in range(n) if k not in (q1, q2)]
    inv = [order.index(k) for k in range(n)]
    return permute_qubits(big, inv)


def _kron_depolarize_qubit(rho, q, p, n):
    out = (1.0 - 0.75 * p) * rho
    for k in (1, 2, 3):
        P = _embed_one(PAULIS[k], q, n)
        out = out + 0.25 * p * (P @ rho @ P)
    return out


def _kron_dephase_qubit(rho, q, p, n):
    Z = _embed_one(PAULIS[3], q, n)
    return (1.0 - p) * rho + p * (Z @ rho @ Z)


def _kron_joint_depolarize_pair(rho, q1, q2, lam, n):
    out = (1.0 - lam) * rho
    acc = np.zeros_like(rho)
    for i in range(4):
        for j in range(4):
            P = _embed_one(PAULIS[i], q1, n) @ _embed_one(PAULIS[j], q2, n)
            acc = acc + P @ rho @ P
    return out + lam * acc / 16.0


def _kron_noisy_csign(rho, op: NoisyCsign, n):
    U = _embed_two(np.diag([1, 1, 1, -1]).astype(complex), op.qubit1, op.qubit2, n)
    rho = U @ rho @ U.conj().T
    nm = op.noise
    if nm.kind == "joint-depol":
        return _kron_joint_depolarize_pair(rho, op.qubit1, op.qubit2, nm.strength, n)
    if nm.kind == "local-depol":
        rho = _kron_depolarize_qubit(rho, op.qubit1, nm.strength, n)
        return _kron_depolarize_qubit(rho, op.qubit2, nm.strength, n)
    rho = _kron_dephase_qubit(rho, op.qubit1, nm.strength, n)
    return _kron_dephase_qubit(rho, op.qubit2, nm.strength, n)


_KRON_CLIFFORDS = {
    "X": PAULIS[1],
    "Y": PAULIS[2],
    "Z": PAULIS[3],
    "S": np.diag([1.0, 1j]),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
}


def _kron_dense_reference(circuit: Circuit) -> dict:
    n = circuit.num_qubits
    rids = circuit.record_ids()
    sphere = StateSpaceSpec.sphere(1.0)

    dist: dict[str, float] = {}
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
                    raise ValueError("dense simulation requires quantum preparations")
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
                U = _embed_one(_KRON_CLIFFORDS[op.gate], op.qubit, n)
                rho = U @ rho @ U.conj().T
            elif isinstance(op, NoisyCsign):
                rho = _kron_noisy_csign(rho, op, n)
            elif isinstance(op, Measure):
                obs = _embed_one(PAULIS[axis_index(op.axis)], op.qubit, n)
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


def _random_prep(rng, q: int) -> Prepare:
    """An axis eigenstate (a Born weight of 0 somewhere downstream) or a
    random point of the Bloch ball."""
    if rng.random() < 0.3:
        b = np.zeros(3)
        b[rng.integers(3)] = rng.choice((1.0, -1.0))
    else:
        b = rng.standard_normal(3)
        b *= rng.uniform(0.2, 1.0) / np.linalg.norm(b)
    return Prepare(q, BlochOp(b))


def _random_body_op(rng, n: int):
    kind = rng.integers(3)
    if kind == 0:
        q1, q2 = (int(q) for q in rng.choice(n, 2, replace=False))
        noise = NoiseModel(str(rng.choice(["joint-depol", "local-depol", "local-dephase"])),
                           float(rng.uniform(0.0, 1.0)))
        return NoisyCsign(q1, q2, noise)
    if kind == 1:
        return Clifford1(int(rng.integers(n)), str(rng.choice(list("XYZSH"))))
    return _random_prep(rng, int(rng.integers(n)))


def _random_reference_circuit(seed: int) -> Circuit:
    """A 2-6 qubit adaptive circuit.  Every one has a CSIGN on (n-1, 0)
    (reversed, and non-adjacent from 3 qubits on), a preparation on qubit
    n // 2 (a middle qubit from 3 qubits on), an X, Y or Z measurement
    steering an ifeq, and a qubit measured twice."""
    rng = np.random.default_rng(1000 + seed)
    n = 2 + seed % 5
    noise = NoiseModel(str(rng.choice(["joint-depol", "local-depol", "local-dephase"])),
                       float(rng.uniform(0.0, 1.0)))
    ops = [_random_prep(rng, q) for q in range(n)]
    ops += [_random_body_op(rng, n) for _ in range(6)]
    ops += [NoisyCsign(n - 1, 0, noise), _random_prep(rng, n // 2)]
    q = int(rng.integers(n))
    ops.append(Measure(q, str(rng.choice(list("XYZ"))), "a"))
    ops.append(ClassicalControl("a", int(rng.choice((1, -1))), _random_body_op(rng, n)))
    ops += [_random_body_op(rng, n) for _ in range(4)]
    ops.append(Measure(q, str(rng.choice(list("XYZ"))), "b"))
    ops.append(ClassicalControl("b", int(rng.choice((1, -1))), _random_body_op(rng, n)))
    ops.append(Measure(int(rng.integers(n)), str(rng.choice(list("XYZ"))), "c"))
    return Circuit(n, tuple(ops))


def _assert_same_distribution(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12


@pytest.mark.parametrize("name", sorted(SUITE))
def test_dense_matches_the_kron_reference_on_the_suite(name):
    c = parse_circuit(SUITE[name])
    _assert_same_distribution(simulate_dense(c), _kron_dense_reference(c))


@pytest.mark.parametrize("seed", range(35))
def test_dense_matches_the_kron_reference_on_random_circuits(seed):
    c = _random_reference_circuit(seed)
    _assert_same_distribution(simulate_dense(c), _kron_dense_reference(c))


# circuits whose qubits leave the dense state in each way: after a measurement,
# a CSIGN (as its pair's first or second qubit), a skipped ifeq, or never
# entering it at all; and enter it in each way: prepared, or maximally mixed
# before a measurement, an ifeq or a CSIGN, late in the circuit
TRACE_OUT_CIRCUITS = {
    # five measurements fixed by their preparations, so that the kron
    # reference opens few branches, then three that fork
    "eight_qubits_all_measured": """
qubits 8
prep 0 0 0 1
prep 1 1 0 0
prep 2 0 1 0
prep 3 0 0 -1
prep 4 0.6 0 0.8
prep 5 -1 0 0
prep 6 0 0.6 -0.8
prep 7 0 0 1
csign 0 1 joint-depol 0.0
clif 2 H
csign 3 4 local-dephase 0.4
csign 6 7 local-depol 0.7
csign 4 5 joint-depol 0.8
meas 0 Z a
meas 1 X b
meas 2 Y c
meas 3 Z d
meas 5 X e
meas 4 X f
meas 6 Z g
meas 7 Z h
""",
    "untouched_qubits": """
qubits 4
prep 1 0.6 0 0.8
prep 3 1 0 0
csign 3 1 local-depol 0.7
meas 1 X a
meas 3 Z b
""",
    "last_op_in_a_skipped_ifeq": """
qubits 3
prep 0 1 0 0
prep 1 0 0 1
prep 2 0.6 0 0.8
csign 0 1 joint-depol 0.8
meas 0 X a
ifeq a -1 csign 2 1 local-depol 0.7
meas 1 Z b
""",
    "last_measurement_in_a_skipped_ifeq": """
qubits 3
prep 0 0 0.6 0.8
prep 1 0 0 1
prep 2 0.6 0 0.8
csign 1 2 local-dephase 0.4
meas 0 Y a
ifeq a +1 meas 2 X b
meas 1 Z c
""",
    "measured_twice": """
qubits 2
prep 0 0.6 0 0.8
prep 1 0 1 0
csign 0 1 joint-depol 0.8
meas 0 Z a
meas 1 Y b
meas 0 X c
""",
    "idle_after_last_csign": """
qubits 3
prep 0 1 0 0
prep 1 0 0 1
prep 2 0 0.6 0.8
csign 0 1 joint-depol 0.8
csign 1 2 local-depol 0.7
clif 1 H
meas 1 X a
""",
    "one_qubit_to_a_scalar": """
qubits 1
prep 0 0.6 0 0.8
meas 0 Z a
clif 0 H
""",
    "first_op_a_measurement": """
qubits 3
prep 0 0.6 0 0.8
prep 1 0 1 0
csign 0 1 local-depol 0.7
meas 2 X a
csign 2 0 joint-depol 0.8
meas 0 Z b
meas 2 Y c
meas 1 Y d
""",
    "first_op_an_ifeq_prep": """
qubits 3
prep 0 0 0.6 0.8
prep 1 1 0 0
csign 0 1 local-dephase 0.4
meas 0 Y a
ifeq a -1 prep 2 0.6 0 0.8
csign 1 2 joint-depol 0.8
meas 2 X b
meas 1 Z c
""",
    "prepared_late": """
qubits 3
prep 0 1 0 0
prep 1 0 0 1
csign 0 1 joint-depol 0.8
meas 0 X a
ifeq a +1 clif 1 S
prep 2 0 0.6 -0.8
csign 2 1 local-depol 0.7
meas 1 Y b
meas 2 Z c
""",
}


@pytest.mark.parametrize("name", sorted(TRACE_OUT_CIRCUITS))
def test_traced_out_qubits_keep_the_kron_reference_law(name):
    c = parse_circuit(TRACE_OUT_CIRCUITS[name])
    _assert_same_distribution(simulate_dense(c), _kron_dense_reference(c))


def _measured_one_by_one(n: int) -> Circuit:
    """n prepared qubits, a noisy CSIGN ring, then each qubit measured in
    turn: every qubit's last op is its measurement."""
    noises = [NoiseModel("joint-depol", 0.8), NoiseModel("local-depol", 0.7),
              NoiseModel("local-dephase", 0.4)]
    ops = [Prepare(q, BlochOp(np.array([0.6, 0.0, 0.8]))) for q in range(n)]
    ops += [NoisyCsign(q, (q + 1) % n, noises[q % 3]) for q in range(n)]
    ops += [Measure(q, "XYZ"[q % 3], f"m{q}") for q in range(n)]
    return Circuit(n, tuple(ops))


def _inner_ops(circuit: Circuit):
    """(op index, op, its qubits) of each op, a classical control's op for
    the control."""
    for k, op in enumerate(circuit.ops):
        op = op.op if isinstance(op, ClassicalControl) else op
        yield k, op, (op.qubit1, op.qubit2) if isinstance(op, NoisyCsign) else (op.qubit,)


def _dense_calls(monkeypatch, circuit: Circuit) -> list[tuple[int, tuple]]:
    """(op index, axis order) of every apply_transfer and lead_axes call
    simulate_dense makes on circuit; each op must be told apart by the
    function it calls and its qubits."""
    ops = {("lead" if isinstance(op, Measure) else "apply", qubits): k
           for k, op, qubits in _inner_ops(circuit)}
    assert len(ops) == len(circuit.ops)
    calls = []

    def spy(name, fn):
        def wrapped(c, order, *args):
            qubits = args[-2]
            calls.append((ops[(name, tuple(qubits))], order))
            return fn(c, order, *args)
        return wrapped

    monkeypatch.setattr(simulator, "apply_transfer", spy("apply", simulator.apply_transfer))
    monkeypatch.setattr(simulator, "lead_axes", spy("lead", simulator.lead_axes))
    simulate_dense(circuit)
    return calls


@pytest.mark.parametrize("circuit", [
    _measured_one_by_one(8),
    parse_circuit("""
qubits 5
prep 0 1 0 0
prep 2 0.6 0 0.8
prep 3 0 1 0
csign 0 1 joint-depol 0.8
csign 1 2 local-depol 0.7
meas 1 X a
ifeq a -1 csign 3 1 local-dephase 0.4
clif 1 H
"""),
], ids=["eight_measured_one_by_one", "leaving_mid_circuit"])
def test_no_dense_call_sees_a_qubit_after_its_last_op(monkeypatch, circuit):
    first, last = {}, {}
    for k, _, qubits in _inner_ops(circuit):
        for q in qubits:
            first.setdefault(q, k)
            last[q] = k
    # an unconditional preparation that is its qubit's first op brings the
    # qubit in prepared and calls nothing; every other op calls one
    entering = {k for k, op in enumerate(circuit.ops)
                if isinstance(op, Prepare) and first[op.qubit] == k}
    calls = _dense_calls(monkeypatch, circuit)
    assert {k for k, _ in calls} == set(range(len(circuit.ops))) - entering
    for k, order in calls:
        # the state holds exactly the qubits whose first op has come and
        # whose last op is still ahead
        assert len(set(order)) == len(order)
        assert set(order) == {q for q in last if first[q] <= k <= last[q]}, (k, order)


def test_a_final_measurement_block_shrinks_the_state_fourfold(monkeypatch):
    n = 8
    circuit = _measured_one_by_one(n)
    first = len(circuit.ops) - n
    measured = [(k - first, len(order))
                for k, order in _dense_calls(monkeypatch, circuit) if k >= first]
    # the j-th measurement runs on 2^j branches, and each sees n - j qubits:
    # a state 4x smaller than the one the measurement before it saw
    assert len(measured) == 2 ** n - 1
    assert all(width == n - j for j, width in measured)


def test_trace_out_takes_each_axis_at_index_zero():
    rng = np.random.default_rng(7)
    order = (3, 0, 2, 1)
    c = rng.standard_normal(4 ** 4)
    t = c.reshape((4,) * 4)
    for qubits, want in [((3,), t[0]), ((3, 0), t[0, 0]), ((2,), t[:, :, 0]),
                         ((0, 1), t[:, 0, :, 0]), ((3, 0, 2, 1), t[0, 0, 0, 0])]:
        buf, spare = np.concatenate([c, [np.nan]]), np.full(4 ** 4 + 1, np.nan)
        out, rest, new_spare = trace_out(buf, order, qubits, spare)
        assert rest == tuple(q for q in order if q not in qubits)
        assert np.array_equal(out[:4 ** len(rest)], np.ravel(want))
        # leading axes are the buffer's prefix; any other needs the copy
        leading = set(order[:len(qubits)]) == set(qubits)
        assert (out is buf and new_spare is spare) if leading else (out is spare and new_spare is buf)


def test_cost_scales_in_shots_not_dimension():
    # 8 qubits, 100 gates: per-shot work is per-op table lookups
    lines = ["qubits 8"]
    for q in range(8):
        lines.append(f"prep {q} 0.5 0.1 0.6")
    for k in range(100):
        lines.append(f"csign {k % 8} {(k + 1) % 8} joint-depol 0.8")
    for q in range(8):
        lines.append(f"meas {q} Z m{q}")
    c = parse_circuit("\n".join(lines))
    t0 = time.perf_counter()
    simulate_hn(c, 2000, seed=1)
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    simulate_hn(c, 8000, seed=1)
    t_big = time.perf_counter() - t0
    assert t_big < 10 * max(t_small, 1e-3)


def test_repeated_measurement_redraws_other_axes():
    c = parse_circuit(SUITE["remeasure_zx"])
    exact = simulate_dense(c)
    assert all(abs(p - 0.25) < 1e-12 for p in exact.values())
    hist = simulate_hn(c, 40000, seed=5).histogram
    assert tvd(hist, exact) < 0.02
    # the measured axis itself is kept: Z then Z repeats the outcome
    zz = parse_circuit("qubits 1\nprep 0 0.6 0 0.8\nmeas 0 Z a\nmeas 0 Z b\n")
    assert set(simulate_hn(zz, 2000, seed=5).histogram) == {"++", "--"}


@pytest.mark.parametrize("gate", "XYZSH")
def test_clifford_route_moves_every_vertex_by_its_permutation(gate):
    # all 8 vertices on every shot set: the whole row, and a conditioned
    # index array that leaves the other shots alone
    perm = simulator._CLIFFORD_PERMS[gate]
    for rows in (slice(None), np.array([0, 3, 5, 6, 9, 10, 12, 15])):
        state = np.tile(np.arange(8, dtype=np.uint8), (2, 2))
        expected = state.copy()
        expected[1, rows] = perm[state[1, rows]]
        assert len(set(state[1, rows])) == 8
        simulator._apply_clifford(state, 1, rows, gate)
        assert state.dtype == np.uint8 and np.array_equal(state, expected)
    # the Paulis take the XOR route, with the masks read off the table
    assert simulator._CLIFFORD_XORS == {"X": 3, "Y": 5, "Z": 6}


@pytest.mark.parametrize("simulate", [lambda c: simulate_hn(c, 200_000, seed=2),
                                      simulate_dense], ids=["hn", "dense"])
def test_call_retains_no_memory_without_gc(simulate):
    c = parse_circuit(SUITE["bell_like_joint"])
    simulate(c)  # warm caches
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulate(c)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert retained < 1_000_000


def test_initial_state_is_one_draw_of_the_stream():
    # the initial state is one (drawn qubits, shots) draw of raw bytes,
    # eight to a word, masked to their low 3 bits, over qubits 0 and 1;
    # qubit 2 starts with its preparation, which reads one 16-bit field
    # per shot, four to a word, from where that draw ends, then one word
    # more for each shot whose bucket holds a CDF entry strictly inside it,
    # and inverts its table's CDF at the exact uniform
    shots, seed = 10_001, 4
    M = simulator.GUIDE_BUCKETS
    c = parse_circuit("qubits 3\nprep 2 0 0 0.2\nmeas 0 Z a\nmeas 1 X b\nmeas 2 Z c\n")
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    start = bits.random_raw(-(-2 * shots // 8)).view("<u1")[:2 * shots].reshape(2, shots) & 7
    bucket = bits.random_raw(-(-shots // 4)).view("<u2")[:shots] >> 6
    cdf = simulator._prep_table(np.array([0.0, 0.0, 0.2])).cdf
    scaled = cdf[cdf < 1.0] * M
    open_bucket = np.zeros(M, dtype=bool)
    open_bucket[np.floor(scaled[scaled % 1.0 != 0.0]).astype(int)] = True
    missed = open_bucket[bucket]
    assert missed.any() and not missed.all()
    v = np.zeros(shots)
    v[missed] = (bits.random_raw(np.count_nonzero(missed)) >> 11) * 2.0 ** -53
    u = exact_u_below(bucket.astype(float), v)
    prep = np.minimum(np.searchsorted(cdf, u, side="right"), 7) & 1
    records = np.column_stack((start[0] & 1, start[1] >> 2 & 1, prep)).astype(int)
    keys, counts = np.unique(records, axis=0, return_counts=True)
    expected = {"".join("+-"[b] for b in key): int(n) for key, n in zip(keys, counts)}
    assert simulate_hn(c, shots, seed).histogram == expected


@pytest.mark.parametrize("text, drawn", [
    # an untouched qubit is drawn, so that a circuit without preparations
    # keeps its one (qubits, shots) draw
    ("qubits 3\nprep 0 1 0 0\nprep 2 0 0 1\nmeas 0 Z a\n", [1]),
    # read before its preparation, by a measurement or a CSIGN
    ("qubits 2\nmeas 0 Z a\nprep 0 1 0 0\ncsign 1 0 joint-depol 0.8\nprep 1 0 1 0\n", [0, 1]),
    # a conditional preparation does not write every shot
    ("qubits 2\nprep 0 1 0 0\nmeas 0 Z a\nifeq a +1 prep 1 0 0 1\nprep 1 1 0 0\n", [1]),
    # prepared first, then conditionally read
    ("qubits 2\nprep 0 1 0 0\nmeas 0 Z a\nprep 1 0 0 1\nifeq a -1 meas 1 X b\n", []),
], ids=["untouched", "read-first", "conditional-prep", "prepared-first"])
def test_drawn_qubits_are_those_not_prepared_first(text, drawn):
    assert simulator._drawn_qubits(parse_circuit(text)) == drawn


def test_initial_state_draw_peak_memory_tracks_the_byte_state():
    # 100 qubits x 10^6 shots: the state is 100 MB of bytes; one int64 draw
    # of every shot would add 800 MB
    code = ("import resource\n"
            "from gencube import simulator\n"
            "c = simulator.parse_circuit('qubits 100\\nmeas 99 Z a\\n')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "simulator.simulate_hn(c, 10 ** 6, seed=1)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) / 1024)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 300, f"peak RSS grew by {proc.stdout.strip()} MB"


# ---------------------------------------------------------------------------
# Gate tables built from the symmetry orbit
# ---------------------------------------------------------------------------

SEPARABLE_GATES = [
    NoiseModel("joint-depol", 0.7), NoiseModel("joint-depol", 0.9),
    NoiseModel("local-depol", 0.62), NoiseModel("local-depol", 0.9),
    NoiseModel("local-dephase", 0.32), NoiseModel("local-dephase", 0.45),
]


def _count_cube_separable_calls(monkeypatch):
    """Record the flattened coefficients of every cube_separable call the
    sampler makes."""
    calls = []
    fn = simulator.cube_separable

    def wrapped(A):
        calls.append(A.coeffs.ravel())
        return fn(A)

    monkeypatch.setattr(simulator, "cube_separable", wrapped)
    return calls


def _all_ones_output(noise):
    allones = BlochOp(np.ones(3))
    return pipeline(allones, allones, 1.0, noise).coeffs.ravel()


def _pair_weights(w0):
    """The 64 x 64 weights of a gate table: row p is w0 moved onto pair p."""
    weights = np.zeros((64, 64))
    weights[np.arange(64)[:, None], simulator._pair_maps()] = w0
    return weights


def _verified_on_own_instance(w0, noise):
    vertices = cube_vertices()
    weights = _pair_weights(w0)
    return [verify_certificate(LhvCertificate(weights[8 * iu + iv], lp.FEASIBILITY_TOL),
                               pipeline(vertices[iu], vertices[iv], 1.0, noise),
                               tol=lp.FEASIBILITY_TOL)
            for iu in range(8) for iv in range(8)]


@pytest.mark.parametrize("noise", SEPARABLE_GATES, ids=lambda n: f"{n.kind}-{n.strength}")
def test_gate_weights_run_no_lp_and_verify_on_all_64_pairs(monkeypatch, noise):
    # one membership query, on the all-ones output; that it runs no LP is
    # checked by test_simulate_leaves_scipy_optimize_unloaded
    calls = _count_cube_separable_calls(monkeypatch)
    w0 = simulator._gate_weights(noise)
    assert len(calls) == 1
    np.testing.assert_allclose(calls[0], _all_ones_output(noise), rtol=0, atol=1e-15)
    assert all(_verified_on_own_instance(w0, noise))


def test_no_lp_for_any_gate_in_a_circuit(monkeypatch):
    # three CSIGNs of two noise models: one query per model
    calls = _count_cube_separable_calls(monkeypatch)
    c = parse_circuit(SUITE["adaptive_feedforward"] + "csign 1 2 local-depol 0.75\n")
    simulate_hn(c, 100, seed=1)
    assert len(calls) == 2
    for got, noise in zip(calls, (NoiseModel("joint-depol", 0.8),
                                  NoiseModel("local-depol", 0.75))):
        np.testing.assert_allclose(got, _all_ones_output(noise), rtol=0, atol=1e-15)


def test_row_failing_its_recheck_raises_naming_its_pair(monkeypatch):
    noise = NoiseModel("local-depol", 0.7)
    outputs = simulator._vertex_pair_outputs(noise)
    outputs[37, 5] += 2 * lp.FEASIBILITY_TOL
    monkeypatch.setattr(simulator, "_vertex_pair_outputs", lambda n: outputs)
    with pytest.raises(CircuitNotSimulableError, match=r"recheck on vertex pair \(4, 5\)"):
        simulator._gate_weights(noise)


def reference_gate_weights(noise):
    """The 64 x 64 weights of the gate's table by a scan of the orbit
    images of its own output on pair 0 for each pair: the first map whose
    image is the pair's output moves the oracle's certificate of pair 0
    onto it."""
    pair_perm = (8 * VERTEX_PERMS[:, None, :, None]
                 + VERTEX_PERMS[None, :, None, :]).reshape(48 * 48, 64)
    outputs = simulator._vertex_pair_outputs(noise)
    images = lp.local_images(outputs[0].reshape(4, 4))
    A = PauliCoeffs2Q(outputs[0].reshape(4, 4))
    w0 = separability.cube_separable(A).certificate.weights
    weights = np.zeros((64, 64))
    for p, b in enumerate(outputs):
        weights[p, pair_perm[np.flatnonzero((images == b).all(axis=1))[0]]] = w0
    return weights


@pytest.mark.parametrize("noise", SEPARABLE_GATES, ids=lambda n: f"{n.kind}-{n.strength}")
def test_orbit_lookup_matches_the_image_scan(noise):
    np.testing.assert_array_equal(_pair_weights(simulator._gate_weights(noise)),
                                  reference_gate_weights(noise))


def test_non_separable_gate_names_the_first_vertex_pair():
    with pytest.raises(CircuitNotSimulableError, match=r"vertex pair \(0, 0\)"):
        simulator._gate_weights(NoiseModel("joint-depol", 0.5))


# the cube thresholds of the three families at R = 1; dephasing is
# separable on [1 - 1/sqrt 2, 1/sqrt 2]: past p = 1/2 its output is the
# Z (x) Z image of its output at 1 - p
THRESHOLDS = {
    "joint-depol": 2.0 / 3.0,
    "local-depol": 2.0 - math.sqrt(2.0),
    "local-dephase": 1.0 - 1.0 / math.sqrt(2.0),
}
BAND_OFFSETS = [-1e-6, -2e-9, -1e-9, -7e-10, -5e-10, -2e-10, -1e-10, -1e-12, 0.0,
                1e-12, 5e-10, 2e-9, 1e-6]


@pytest.mark.parametrize("kind, threshold, side",
                         [(k, t, 1) for k, t in THRESHOLDS.items()]
                         + [("local-dephase", 1.0 / math.sqrt(2.0), -1)],
                         ids=list(THRESHOLDS) + ["local-dephase-upper"])
def test_accept_set_at_the_band_is_the_oracle_verdict(kind, threshold, side):
    for offset in BAND_OFFSETS:
        noise = NoiseModel(kind, threshold + side * offset)
        outputs = simulator._vertex_pair_outputs(noise)
        verdict = lp.decide_membership(outputs[0]).feasible
        try:
            w0 = simulator._gate_weights(noise)
        except CircuitNotSimulableError:
            assert not verdict, offset
            continue
        assert verdict, offset
        assert all(_verified_on_own_instance(w0, noise)), offset


def test_dephasing_past_one_half_is_accepted_as_before():
    for p in (0.55, 0.6, 0.7):
        noise = NoiseModel("local-dephase", p)
        assert all(_verified_on_own_instance(simulator._gate_weights(noise), noise))
    with pytest.raises(CircuitNotSimulableError, match=r"vertex pair \(0, 0\)"):
        simulator._gate_weights(NoiseModel("local-dephase", 0.71))


def test_simulate_leaves_scipy_optimize_unloaded():
    # every verdict is a facet verdict and every weight the descent's, so
    # neither the suite's circuits, nor the gate weights of
    # every SEPARABLE_GATES model, nor the error-per-gate bounds run an LP
    gates = ", ".join(f"NoiseModel({n.kind!r}, {n.strength!r})" for n in SEPARABLE_GATES)
    code = ("import sys\n"
            "from gencube import constructions, simulator\n"
            "from gencube.gates import NoiseModel\n"
            "from circuit_suite import SUITE\n"
            "for text in SUITE.values():\n"
            "    simulator.simulate_hn(simulator.parse_circuit(text), 1000, seed=1)\n"
            f"for noise in ({gates},):\n"
            "    simulator._gate_weights(noise)\n"
            "constructions.error_per_gate_bounds()\n"
            "sys.exit('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "an LP-free path loaded scipy.optimize"


# ---------------------------------------------------------------------------
# The lookup and the histogram against the per-pair step they replace
# ---------------------------------------------------------------------------


def reference_tables(w0, maps, cut=1e-14):
    """Per pair p: cumulative normalized weights of w0 over its support,
    the weights above cut, and that support moved onto p by maps[p]."""
    w = np.clip(w0, 0.0, None)
    support = np.nonzero(w > cut)[0]
    ws = w[support]
    cdf = np.cumsum(ws / ws.sum())
    return [(cdf, maps[p][support]) for p in range(64)]


def reference_csign_step(tables, pair, u):
    """Per distinct pair: searchsorted on its CDF, capped at its last entry."""
    newpair = np.empty(pair.size, dtype=np.int64)
    for pv in np.unique(pair):
        sel = pair == pv
        cdf, support = tables[pv]
        k = np.searchsorted(cdf, u[sel], side="right")
        k = np.minimum(k, len(support) - 1)
        newpair[sel] = support[k]
    return newpair


def reference_histogram(cols, shots):
    symbols = {1: "+", -1: "-", 0: "."}
    hist = {}
    if cols:
        keys, counts = np.unique(np.stack(cols, axis=1), axis=0, return_counts=True)
        for key, cnt in zip(keys, counts):
            hist["".join(symbols[int(x)] for x in key)] = int(cnt)
    else:
        hist[""] = shots
    return dict(sorted(hist.items()))


def _random_w0(rng, size):
    """Weights over a support of `size` pairs; below 64 pairs, some entries
    are at or below the 1e-14 cut-off and some slightly negative."""
    w = np.zeros(64)
    idx = rng.choice(64, size=size, replace=False)
    w[idx] = rng.random(size) + 1e-3
    if size < 64:
        w[rng.choice(64, size=3)] = rng.choice([1e-15, 1e-14, -1e-13, 0.0], size=3)
    if not (w > 1e-14).any():
        w[idx[0]] = 0.5
    return w


def _edge_w0s():
    """32 dyadic w0, 1/2, 1/4, ..., 1/2^k, 1/2^k for k = 1..32, whose CDF
    entries sit on guide bucket edges up to k = 10 and inside the last
    bucket beyond, then 32 of equal weights over 2-64 pairs, whose rounded
    last CDF entry lands below, on or above 1."""
    W = np.zeros((64, 64))
    for p in range(32):
        k = p + 1
        W[p, (7 * np.arange(k + 1) + p) % 64] = [2.0 ** -j for j in range(1, k + 1)] + [2.0 ** -k]
    for p in range(32, 64):
        W[p, np.arange(min(64, 2 * (p - 32) + 2))] = 0.1
    return list(W)


def exact_u_below(b, v):
    """The largest double at or below each shot's exact uniform
    (b + v) / GUIDE_BUCKETS, b its bucket and v in [0, 1): b + v rounded to
    nearest, stepped down where that rounded up, which Fast2Sum's exact
    error (b >= 1 > v, or b = 0 and the sum exact) shows, then divided by
    the power of two.  An entry of a CDF of doubles lies at or below the
    exact u exactly when it lies at or below this double."""
    s = b + v
    err = v - (s - b)
    s = np.where(err < 0.0, np.nextafter(s, -np.inf), s)
    return s / simulator.GUIDE_BUCKETS


class _Words:
    """Serves the given blocks of raw 64-bit words, one block per
    random_raw call, each of the size asked for, as a bit generator
    would."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def random_raw(self, size):
        block = self.blocks.pop(0)
        assert block.size == size
        return block


def _field_words(fields):
    """The raw words that carry the 16-bit fields, four to a word, the
    first in the low bits."""
    padded = np.zeros(-(-fields.size // 4) * 4, dtype="<u2")
    padded[:fields.size] = fields
    return padded.view("<u8").astype(np.uint64)


def _check_draws(rng, w0, maps, shots, table=None, cut=1e-14):
    """_draw_pairs on the table of (w0, maps), or on the table given, against
    per-pair searchsorted over the weights above cut at each shot's exact
    uniform u = (b + v) / GUIDE_BUCKETS.  Each shot's 16-bit field carries
    its bucket b, with random low 6 bits; each shot of an open bucket reads
    v = m 2^-53 off the top 53 bits of one more word, with random low 11
    bits.  u lies exactly on CDF entries (v = 1024 c - b, floored to the
    2^-53 grid where it is finer), on bucket edges (v = 0) and just below
    them (v = 1 - 2^-53), and at the ends 0 and 1 - 2^-63.
    Returns the table, the pairs and the buckets."""
    M = simulator.GUIDE_BUCKETS
    ref = reference_tables(w0, maps, cut)
    cdf = ref[0][0]
    if table is None:
        table = simulator._gate_table(np.clip(w0, 0.0, None), maps)
    pair = rng.integers(0, 64, size=shots, dtype=np.uint8)
    b = rng.integers(0, M, size=shots)
    m = rng.integers(0, 2 ** 53, size=shots, dtype=np.uint64)
    # u < 1, so only the entries below 1 can be hit
    entries = cdf[cdf < 1.0]
    on_edge = (rng.random(shots) < 0.3) & (entries.size > 0)
    c = entries[rng.integers(entries.size, size=on_edge.sum())]
    b[on_edge] = np.floor(c * M)
    m[on_edge] = np.floor((c * M - b[on_edge]) * 2.0 ** 53)
    on_bucket, below_bucket = rng.random((2, shots)) < 0.2
    m[on_bucket] = 0
    m[below_bucket] = 2 ** 53 - 1
    b[:64], m[:64] = 0, 0
    b[64:128], m[64:128] = M - 1, 2 ** 53 - 1
    fields = (b << 6 | rng.integers(0, 64, size=shots)).astype(np.uint16)
    missed = table.guide[b, pair] < 0
    low = rng.integers(0, 2 ** 11, size=shots, dtype=np.uint64)
    blocks = [_field_words(fields)]
    if missed.any():
        blocks.append((m[missed] << np.uint64(11)) | low[missed])
    words = _Words(*blocks)
    got = simulator._draw_pairs(table, pair, words)
    assert not words.blocks
    u = exact_u_below(b.astype(float), m * 2.0 ** -53)
    np.testing.assert_array_equal(got, reference_csign_step(ref, pair, u))
    return table, pair, b


def test_guide_holds_one_row_per_bucket():
    # the largest index a masked field can form, bucket 1023 and pair 63,
    # is the guide's last entry
    table = simulator._gate_table(simulator._gate_weights(SEPARABLE_GATES[0]),
                                  simulator._pair_maps())
    assert table.guide.shape == (simulator.GUIDE_BUCKETS, 64)
    assert (simulator._BUCKET_MASK | 63) == table.guide.size - 1
    prep = simulator._prep_table(np.array([0.3, -0.5, 0.6]))
    assert prep.guide.shape == (simulator.GUIDE_BUCKETS, 64)


@pytest.mark.parametrize("source", ["gate", "random", "edges", "prep"])
def test_lookup_matches_per_pair_searchsorted(source):
    rng = np.random.default_rng(17)
    maps = simulator._pair_maps()
    if source == "gate":
        for noise in SEPARABLE_GATES[::2]:
            table, pair, b = _check_draws(rng, simulator._gate_weights(noise), maps, 60_000)
            # some shots fall in an open bucket and search the CDF
            assert (table.guide[b, pair] < 0).any()
    elif source == "random":
        for size in (1, 2, 16, 61, 64, 64, 37):
            perms = np.array([rng.permutation(64) for _ in range(64)])
            table, pair, b = _check_draws(rng, _random_w0(rng, size), perms, 20_000)
            if size == 64:
                assert (table.guide[b, pair] < 0).any()
    elif source == "prep":
        # vertices, axis states, interior points, and a vertex weight of
        # about 1e-16, far below the gate tables' 1e-14 cut: a preparation's
        # table keeps every vertex of positive weight
        maps = np.broadcast_to(np.arange(8), (64, 8))
        blochs = [CUBE_SIGNS[1].astype(float), np.array([0.0, -1.0, 0.0]),
                  np.array([0.3, -0.5, 0.6]), np.array([1.0 - 1e-15, 0.2, -0.7]),
                  *rng.uniform(-1.0, 1.0, size=(4, 3))]
        for b in blochs:
            w = np.prod((1.0 + CUBE_SIGNS * b) / 2.0, axis=1)
            table, _, _ = _check_draws(rng, w, maps, 8_000, table=simulator._prep_table(b),
                                       cut=0.0)
            assert table.cdf.size == np.count_nonzero(w > 0.0)
        assert 0.0 < np.prod((1.0 + CUBE_SIGNS * blochs[3]) / 2.0, axis=1).min() < 1e-14
    else:
        w0s = _edge_w0s()
        tables = [_check_draws(rng, w0, maps, 4_000)[0] for w0 in w0s]
        last = [reference_tables(w0, maps)[0][0][-1] for w0 in w0s]
        assert min(last) < 1.0 < max(last)
        # entries on bucket edges leave every bucket fixed
        assert all((t.guide >= 0).all() for t in tables[:10])
        assert any((t.guide < 0).any() for t in tables)


# the bincount branch counts while 3^ncols <= shots; 3^9 and 3^9 - 1 shots
# sit on either side of the switch
@pytest.mark.parametrize("ncols, shots", [
    pytest.param(n, 30_000, id=str(n)) for n in (0, 1, 4, 9, 12, 45)
] + [pytest.param(9, 3 ** 9, id="9-at-3^9"), pytest.param(9, 3 ** 9 - 1, id="9-below-3^9")])
def test_histogram_matches_row_unique(ncols, shots):
    rng = np.random.default_rng(ncols)
    cols = []
    for k in range(ncols):
        col = rng.choice([1, -1, 0], size=shots, p=[0.45, 0.45, 0.1]).astype(np.int64)
        if k % 5 == 3:
            col[:] = 0          # a record no shot wrote
        cols.append(col)
    if ncols >= 42:
        # two shots whose first 42 base-3 digits read 2^64 and 0: a count of
        # the rows as base-3 codes in an int64 would wrap and merge them
        x, digits = 2 ** 64, []
        for _ in range(42):
            x, d = divmod(x, 3)
            digits.append(d)
        for k, col in enumerate(cols):
            col[0] = (0, 1, -1)[digits[41 - k]] if k < 42 else 0
            col[1] = 0
    got = simulator._histogram(cols, shots)
    want = reference_histogram(cols, shots)
    assert list(got.items()) == list(want.items())
