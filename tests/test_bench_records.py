"""The committed benchmark trajectory: each BENCH_<workload>.json at the
repository root is a list of entries, one per measured change, appended to
and never rewritten.  An entry names the measured and parent revisions, the
host's core count and the Python and numpy versions, the command, and every
run's result line verbatim, so each number a change claims can be
recomputed from the file."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ENTRY_KEYS = {"rev", "parent", "nproc", "python", "numpy", "command", "runs"}
RUN_KEYS = {"side", "seed", "line"}


def test_every_benchmark_workload_has_a_record():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert {p.stem.removeprefix("BENCH_") for p in RECORDS} == workloads


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_record_entry_holds_correct_runs(path):
    workload = path.stem.removeprefix("BENCH_")
    entries = json.loads(path.read_text())
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert ENTRY_KEYS <= entry.keys()
        assert f"--workload {workload} " in entry["command"]
        assert entry["runs"]
        for run in entry["runs"]:
            assert RUN_KEYS <= run.keys()
            result = json.loads(run["line"])
            assert result["correct"] is True, (entry["rev"], run["side"], run["seed"])
            assert "metrics" in result
