"""Tests of the benchmark's own logic (not collected by the package suite):

    PYTHONPATH=src python -m pytest -q bench
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

import metrics
import workloads
from spans import Tracer, installed, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- metric-name grammar ----------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "lp.exact.ms_per_call", "a-b.c_d", "9x",
                                  "x" * 64])
def test_valid_names(name):
    assert metrics.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "a%", "x" * 65, "é"])
def test_invalid_names(name):
    assert not metrics.valid_name(name)


def test_declared_names_follow_grammar_and_are_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(metrics.valid_name(n) for n in names)
    assert len(set(names)) == len(names)


def test_emitted_layer_metrics_match_declaration():
    out = metrics.layer_metrics([], {}, 0.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in out.items()} == declared


# -- percentile rule --------------------------------------------------------

def test_percentile_matches_numpy_linear():
    rng = random.Random(3)
    xs = [rng.random() for _ in range(37)]
    for q in (0, 10, 50, 75, 90, 99, 100):
        assert metrics.percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)))


@pytest.mark.parametrize("n, q", [(1, None), (39, None), (40, 75), (99, 75), (100, 90),
                                  (999, 90), (1000, 99)])
def test_tail_percentile_needs_ten_samples_beyond(n, q):
    assert metrics.tail_percentile(n) == q


def test_tail_is_reported_with_its_percentile_in_the_name():
    assert workloads._tail("x_ms", list(range(39))) == {}
    tail = workloads._tail("x_ms", list(range(100)))
    assert list(tail) == ["x_ms_p90"] and tail["x_ms_p90"][2] == 100


# -- spans and self time ----------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 6.0, 9.0, 0),
        ("other", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0, 1.0])


def test_tracer_records_nesting_through_wrapped_modules():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    from gencube import gates, pauli

    with installed(tracer):
        gates.pipeline(pauli.BlochOp(np.ones(3)), pauli.BlochOp(np.ones(3)), 1.0,
                       gates.NoiseModel("joint-depol", 0.5))
    names = [s[0] for s in tracer.records()]
    assert names[0] == "gates.pipeline"
    assert "gates.csign" in names and "pauli.product" in names
    assert tracer.records()[1][3] == 0      # first child of pipeline
    # unwrapped again afterwards
    assert not hasattr(gates.pipeline, "__wrapped__")


def test_layer_metrics_ratios_from_spans():
    spans = [
        ("thresholds.min_noise", 0.0, 10.0, -1),
        ("separability.cube_separable", 1.0, 4.0, 0),
        ("lp.solve_membership_float", 1.5, 3.5, 1),
        ("lp.highs", 2.0, 3.0, 2),
        ("simulator.simulate_hn", 20.0, 30.0, -1),
        ("separability.cube_separable", 21.0, 25.0, 4),
    ]
    counters = {"lp.float.ambiguous": 1, "separability.exact_fallback": 1,
                "simulator.csign_ops": 4, "simulator.shot_ops": 100}
    out = {k: v["value"] for k, v in metrics.layer_metrics(spans, counters, 0.1).items()}
    assert out["thresholds.predicate_evals_per_query"] == 1
    assert out["thresholds.lp_calls_per_query"] == 1
    assert out["thresholds.self_s"] == pytest.approx(7.0)
    assert out["lp.float.ambiguous_frac"] == 1.0
    assert out["separability.exact_fallback_frac"] == 0.5
    assert out["simulator.table_build_s"] == pytest.approx(4.0)
    assert out["simulator.sampling_self_s"] == pytest.approx(6.0)
    assert out["simulator.table_build_share"] == pytest.approx(0.4)
    assert out["simulator.distinct_gates"] == pytest.approx(1 / 64)
    assert out["trace.overhead_frac"] == 0.1


# -- seeded inputs ----------------------------------------------------------

def _certify_inputs(seed):
    return [(q.label, q.b.tolist()) for q in workloads.CertifyPlan(seed).inputs(1)]


def _sample_inputs(seed):
    # repr: the ops hold numpy arrays, which dataclass equality cannot compare
    return [(repr(sc.circuit), sc.shot_seed) for sc in workloads.SamplePlan(seed).inputs(1)]


@pytest.mark.parametrize("make", [_certify_inputs, _sample_inputs,
                                  lambda s: workloads.ReproducePlan(s).inputs(1)])
def test_inputs_depend_only_on_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_certify_cycle_mix_is_fixed():
    labels = [q.label for q in workloads.CertifyPlan(5).inputs(0)]
    assert len(labels) == 32
    assert sum(lab.startswith("knife/") for lab in labels) == 24


def test_sample_batch_has_every_size_and_one_remeasure():
    batch = workloads.SamplePlan(5).inputs(0)
    assert sorted(sc.circuit.num_qubits for sc in batch) == list(workloads.BATCH_QUBITS)
    repeats = [sc.circuit.num_qubits for sc in batch
               if workloads.repeats_measurement(sc.circuit)]
    assert repeats == [workloads.REMEASURED_QUBITS]


def test_tvd_bound_scales_with_outcomes_over_shots():
    assert workloads.tvd_bound(64, 100_000) == pytest.approx(3.0 * (64 / 100_000) ** 0.5)
    assert workloads.tvd_bound(1, 100) == workloads.tvd_bound(2, 100)


def test_rescale_uses_the_probes_around_each_call():
    res = workloads.RunResult()
    w, ref = workloads.PROBE_WINDOW, workloads.PROBE_REF_S
    res.probes = [2 * ref] * (2 * w) + [4 * ref] * (2 * w)    # host slows down halfway
    res.ops = [workloads.Op("x", (), 0, 1.0, probe_at=w),
               workloads.Op("x", (), 0, 1.0, probe_at=3 * w)]
    res.rescale()
    assert [op.seconds for op in res.ops] == pytest.approx([0.5, 0.25])


def test_pass_count_depends_on_seconds_only():
    assert [workloads.passes_for(w, 24) for w in ("reproduce", "certify", "sample")] == [3, 6, 2]
    assert workloads.passes_for("certify", 1) == 4      # the percentile rule's minimum
    assert workloads.passes_for("sample", 60) == 5
