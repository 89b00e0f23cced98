"""The benchmark runs end to end and ends in a strict-JSON result line.

A run whose last line is not a JSON object (for instance one holding a bare
`NaN`) cannot be scored, so each workload that exercises the Monte Carlo
scorer, the bound quadrature or the hardcore validators is run briefly here,
as the benchmark command runs it, and its result line is parsed strictly;
so is one traced run, whose line holds every per-layer metric.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def _tree(path: Path) -> set[Path]:
    return set(path.rglob("*"))


def _run_strict(workload: str, trace: int) -> dict:
    """Run one short benchmark pass at the held-out seed and parse its last
    line strictly; the run leaves nothing new under perfbench/."""
    out_dir = PERFBENCH / "out"
    trace_file = out_dir / f"trace-{workload}-31.json"
    had_out, had_trace = out_dir.exists(), trace_file.exists()
    before = _tree(PERFBENCH)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "31", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    # a traced run writes its spans to trace_file; the run makes its output
    # folder if there is none
    if trace and not had_trace:
        trace_file.unlink(missing_ok=True)
    if not had_out and out_dir.is_dir() and not any(out_dir.iterdir()):
        out_dir.rmdir()
    assert proc.returncode == 0, proc.stderr
    assert _tree(PERFBENCH) == before
    return json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)


@pytest.mark.parametrize("workload", ["sim-models", "bound-curve", "validate-mhc"])
def test_benchmark_result_line_is_strict_json(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = _run_strict(workload, trace=0)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_benchmark_result_line_is_strict_json():
    # the traced run reports per-layer metrics, among them the per-trial
    # generator set-up span coverage.rng_setup_us
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = _run_strict("sim-models", trace=1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
