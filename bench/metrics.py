"""Summary statistics, the metric-name grammar and the per-layer metrics."""
from __future__ import annotations

import math
import re

from spans import HIGHS_SPAN, self_times

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Percentile rule: report the median plus the highest of these percentiles
# that has at least TAIL_BEYOND samples above it, and state the count.
TAIL_LADDER = (99, 90, 75)
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples above it."""
    for q in TAIL_LADDER:
        if n * (100 - q) / 100.0 >= TAIL_BEYOND:
            return q
    return None


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("pauli.self_s", "s"),
    ("pauli.eigenvalues_hermitian.calls", "count"),
    ("spaces.self_s", "s"),
    ("gates.pipeline.calls", "count"),
    ("gates.self_s", "s"),
    ("lp.float.calls", "count"),
    ("lp.float.self_s", "s"),
    ("lp.highs.solves", "count"),
    ("lp.highs.self_s", "s"),
    ("lp.float.ambiguous_frac", "ratio"),
    ("lp.polish.self_s", "s"),
    ("lp.exact.calls", "count"),
    ("lp.exact.self_s", "s"),
    ("lp.exact.ms_per_call", "ms"),
    ("separability.cube_separable.calls", "count"),
    ("separability.cube_separable.self_s", "s"),
    ("separability.feasible_frac", "ratio"),
    ("separability.exact_fallback_frac", "ratio"),
    ("separability.quantum_separable_2q.calls", "count"),
    ("separability.quantum_separable_2q.self_s", "s"),
    ("separability.verify_certificate.calls", "count"),
    ("thresholds.min_noise.calls", "count"),
    ("thresholds.self_s", "s"),
    ("thresholds.predicate_evals_per_query", "count"),
    ("thresholds.lp_calls_per_query", "count"),
    ("constructions.self_s", "s"),
    ("simulator.sampling_self_s", "s"),
    ("simulator.table_build_s", "s"),
    ("simulator.table_build_share", "ratio"),
    ("simulator.distinct_gates", "count"),
    ("simulator.table_reuse_frac", "ratio"),
    ("simulator.shot_ops", "count"),
    ("simulator.simulate_dense.self_s", "s"),
    ("dense.calls", "count"),
    ("dense.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

CRITERIA = ("separability.cube_separable", "separability.quantum_separable_2q",
            "separability.positive_for_pauli")
LP_SPANS = ("lp.solve_membership_float", "lp.solve_membership_exact")
TABLE_COLUMNS = 64  # cube_separable calls per gate table


def observers() -> dict:
    """Counters the spans alone cannot give: verdict routes and shot counts."""
    from gencube.simulator import ClassicalControl, NoisyCsign

    def csign_ops(ops) -> int:
        return sum(isinstance(op.op if isinstance(op, ClassicalControl) else op, NoisyCsign)
                   for op in ops)

    def lp_float(counters, args, kwargs, out):
        counters["lp.float.ambiguous"] += out.status == "ambiguous"

    def cube_separable(counters, args, kwargs, res):
        counters["separability.feasible"] += bool(res.feasible)
        counters["separability.exact_fallback"] += res.method == "lp-exact"

    def simulate_hn(counters, args, kwargs, res):
        circuit = args[0] if args else kwargs["circuit"]
        counters["simulator.shot_ops"] += res.shots * len(circuit.ops)
        counters["simulator.csign_ops"] += csign_ops(circuit.ops)

    return {
        "lp.solve_membership_float": lp_float,
        "separability.cube_separable": cube_separable,
        "simulator.simulate_hn": simulate_hn,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, overhead_frac: float) -> dict:
    """Per-layer metrics, keyed as in PER_LAYER, from (name, start, end, parent) spans."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for (name, _, _, _), st in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + st
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + st

    # ancestry questions: which spans run inside a min_noise query, which
    # cube_separable calls are gate-table builds (parent simulate_hn)
    inside_query = [False] * len(spans)
    table_build_s = 0.0
    table_calls = 0
    crit_in_query = 0
    lp_in_query = 0
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            pname = spans[parent][0]
            inside_query[i] = inside_query[parent] or pname == "thresholds.min_noise"
            if name == "separability.cube_separable" and pname == "simulator.simulate_hn":
                table_build_s += end - start
                table_calls += 1
        if inside_query[i]:
            crit_in_query += name in CRITERIA
            lp_in_query += name in LP_SPANS

    hn_total = sum(end - start for name, start, end, _ in spans
                   if name == "simulator.simulate_hn")
    queries = calls.get("thresholds.min_noise", 0)
    float_calls = calls.get("lp.solve_membership_float", 0)
    cube_calls = calls.get("separability.cube_separable", 0)
    exact_calls = calls.get("lp.solve_membership_exact", 0)
    exact_self = self_by_name.get("lp.solve_membership_exact", 0.0)
    distinct = table_calls / TABLE_COLUMNS
    csign_ops = counters.get("simulator.csign_ops", 0)
    dense_calls = sum(n for name, n in calls.items() if name.startswith("dense."))

    out = {
        "pauli.self_s": self_by_layer.get("pauli", 0.0),
        "pauli.eigenvalues_hermitian.calls": calls.get("pauli.eigenvalues_hermitian", 0),
        "spaces.self_s": self_by_layer.get("spaces", 0.0),
        "gates.pipeline.calls": calls.get("gates.pipeline", 0),
        "gates.self_s": self_by_layer.get("gates", 0.0),
        "lp.float.calls": float_calls,
        "lp.float.self_s": self_by_name.get("lp.solve_membership_float", 0.0),
        "lp.highs.solves": calls.get(HIGHS_SPAN, 0),
        "lp.highs.self_s": self_by_name.get(HIGHS_SPAN, 0.0),
        "lp.float.ambiguous_frac": _ratio(counters.get("lp.float.ambiguous", 0), float_calls),
        "lp.polish.self_s": self_by_name.get("lp.polish_weights", 0.0),
        "lp.exact.calls": exact_calls,
        "lp.exact.self_s": exact_self,
        "lp.exact.ms_per_call": 1e3 * _ratio(exact_self, exact_calls),
        "separability.cube_separable.calls": cube_calls,
        "separability.cube_separable.self_s": self_by_name.get("separability.cube_separable", 0.0),
        "separability.feasible_frac": _ratio(counters.get("separability.feasible", 0), cube_calls),
        "separability.exact_fallback_frac":
            _ratio(counters.get("separability.exact_fallback", 0), cube_calls),
        "separability.quantum_separable_2q.calls":
            calls.get("separability.quantum_separable_2q", 0),
        "separability.quantum_separable_2q.self_s":
            self_by_name.get("separability.quantum_separable_2q", 0.0),
        "separability.verify_certificate.calls": calls.get("separability.verify_certificate", 0),
        "thresholds.min_noise.calls": queries,
        "thresholds.self_s": self_by_layer.get("thresholds", 0.0),
        "thresholds.predicate_evals_per_query": _ratio(crit_in_query, queries),
        "thresholds.lp_calls_per_query": _ratio(lp_in_query, queries),
        "constructions.self_s": self_by_layer.get("constructions", 0.0),
        "simulator.sampling_self_s": self_by_name.get("simulator.simulate_hn", 0.0),
        "simulator.table_build_s": table_build_s,
        "simulator.table_build_share": _ratio(table_build_s, hn_total),
        "simulator.distinct_gates": distinct,
        "simulator.table_reuse_frac": _ratio(csign_ops - distinct, csign_ops),
        "simulator.shot_ops": counters.get("simulator.shot_ops", 0),
        "simulator.simulate_dense.self_s": self_by_name.get("simulator.simulate_dense", 0.0),
        "dense.calls": dense_calls,
        "dense.self_s": self_by_layer.get("dense", 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
