"""gencube benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload reproduce|certify|sample --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it name each metric of the workload with its unit and sample
count.  See bench/README.md for the workloads, metrics and percentile rule.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# single-threaded numerics: one client in one process, no helper threads
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fails its check unless every operation outside these documented defects passes
KNOWN_DEFECTS = {
    "rationalize": "ROADMAP 2: exact fallback decides rationalize(x), not x",
    "remeasure": "ROADMAP 4(a): HN leaves a measured vertex unchanged",
}


def _clean_env() -> dict:
    env = dict(os.environ)
    env.pop("GENCUBE_THREADS", None)
    env.update(PINNED_ENV, PYTHONPATH=str(SRC))
    return env


def measure_setup(speed_probe) -> tuple[float, float, bool]:
    """Median wall time of a fresh interpreter running the CLI's cheapest
    verification, the median speed probe taken between those runs, and
    whether every run passed."""
    times, probes, ok = [], [], True
    cmd = [sys.executable, "-m", "gencube.cli", "verify", "orbit"]
    for _ in range(SETUP_REPEATS):
        probes.append(speed_probe())
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_clean_env(), capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        ok &= proc.returncode == 0 and "[PASS]" in proc.stdout
    return statistics.median(times), statistics.median(probes), ok


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def environment() -> str:
    import numpy
    import scipy

    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"threads={thread_count()} GENCUBE_THREADS=unset "
            + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tally(res) -> tuple[int, int, bool, list]:
    """attempted, failed, correct, and the failed ops.  ``correct`` is false
    when an op fails for a reason other than a documented known defect."""
    checked = [op for op in res.ops if op.ok is not None]
    failed = [op for op in checked if not op.ok]
    return len(checked), len(failed), all(op.known_defect for op in failed), failed


def run(args) -> dict:
    import workloads

    make_plan, run_workload, check, summarize = workloads.WORKLOADS[args.workload]
    plan = make_plan(args.seed)
    workloads.warm_up(args.workload)
    res = run_workload(plan, workloads.passes_for(args.workload, args.seconds))
    if args.trace:
        res, out = traced_rerun(plan, run_workload, res)
    check(res)
    attempted, failed, correct, failures = tally(res)
    for op in failures:
        why = KNOWN_DEFECTS.get(op.known_defect, "UNEXPECTED")
        print(f"failed {op.kind} {op.key}: {op.detail} [{why}]")
    print(f"workload {args.workload} seed {args.seed} passes {res.passes} "
          f"attempted {attempted} failed {failed}")
    if args.trace:
        for name, m in out.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}

    setup_s, setup_probe, setup_ok = measure_setup(workloads.speed_probe)
    named = summarize(res)["named"]
    named.update({
        "setup_s": ("s", setup_s, SETUP_REPEATS),
        "peak_rss_mb": ("MB", peak_rss_mb(), 1),
        "failed_frac": ("ratio", failed / attempted, attempted),
    })
    for name, (unit, value, n) in named.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    print(f"  speed_probe_ms_p50 = {1e3 * statistics.median(res.probes):.4g} ms "
          f"(n={len(res.probes)}; reference {1e3 * workloads.PROBE_REF_S:g} ms)")
    res.rescale()       # the result line reports times at the reference speed
    summary = summarize(res)
    del summary["named"]
    out = {name: {"value": value, "unit": unit} for name, (unit, value, _) in summary.items()}
    out["setup_s"] = {"value": setup_s * workloads.PROBE_REF_S / setup_probe, "unit": "s"}
    out["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    out["ok_frac"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    return {"correct": correct and setup_ok, "attempted": attempted, "failed": failed,
            "metrics": out}


def traced_rerun(plan, run_workload, untraced):
    """Repeat the untraced run's passes with every layer wrapped; return the
    traced result and the per-layer metrics."""
    import metrics
    from spans import Tracer, installed

    plan.inputs(untraced.passes - 1)     # every input exists before tracing starts
    tracer = Tracer()
    with installed(tracer, observers=metrics.observers()):
        res = run_workload(plan, untraced.passes)
    busy = []
    for r in (untraced, res):
        r.rescale()         # both at reference speed, then compared
        busy.append(sum(op.seconds for op in r.ops))
    overhead = busy[1] / busy[0] - 1.0
    return res, metrics.layer_metrics(tracer.records(), tracer.counters, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "certify", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gencube" / "__init__.py").is_file():
        print(f"error: no gencube sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GENCUBE_THREADS", None)
    os.environ.update(PINNED_ENV)       # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import gencube

    if Path(gencube.__file__).resolve().parent != SRC / "gencube":
        print(f"error: gencube imported from {gencube.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(environment())
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
