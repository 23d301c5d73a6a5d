import gc
import math
import time
import tracemalloc

import numpy as np
import pytest

from gencube.gates import NoiseModel
from gencube.pauli import BlochOp
from gencube.simulator import (
    Circuit,
    CircuitNotSimulableError,
    Clifford1,
    NoisyCsign,
    Prepare,
    histogram_to_csv,
    parse_circuit,
    simulate_dense,
    simulate_hn,
    tvd,
)

from circuit_suite import SUITE


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


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (Prepare(5, BlochOp(np.zeros(3))),))
    with pytest.raises(ValueError):
        Circuit(2, (NoisyCsign(0, 0, NoiseModel("joint-depol", 0.9)),))
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_off_cube_preparation_rejected():
    with pytest.raises(ValueError):
        Circuit(1, (Prepare(0, BlochOp(np.array([2.0, 0.0, 0.0]))),))
    with pytest.raises(ValueError):
        parse_circuit("qubits 1\nprep 0 0.5 -1.01 0\nmeas 0 Z a\n")
    with pytest.raises(ValueError):
        parse_circuit("qubits 1\nprep 0 nan 0 0\nmeas 0 Z a\n")
    # every point of the cube is a valid HN preparation, corners included
    c = parse_circuit("qubits 1\nprep 0 1 -1 1\nmeas 0 Y a\n")
    assert simulate_hn(c, 100, seed=1).histogram == {"-": 100}


@pytest.mark.parametrize("shots", [0, -5])
def test_bad_shot_count_rejected_before_the_gate_tables(shots):
    # the noiseless gate would fail the table build; the shot count fails first
    text = "qubits 2\nprep 0 1 0 0\nprep 1 0 0 1\ncsign 0 1 joint-depol 0.0\nmeas 0 X a\n"
    with pytest.raises(ValueError, match="shots must be at least 1"):
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
    hist = simulate_hn(c, 20000, seed=11).histogram
    assert tvd(hist, exact) < 0.02


def test_adaptive_conditioning_matches_dense_branchwise():
    c = parse_circuit(SUITE["adaptive_feedforward"])
    exact = simulate_dense(c)
    hist = simulate_hn(c, 40000, seed=13).histogram
    # conditionals per first-measurement branch
    for branch in "+-":
        e = {k: v for k, v in exact.items() if k[0] == branch}
        h = {k: v for k, v in hist.items() if k[0] == branch}
        assert tvd(h, e) < 0.03


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
