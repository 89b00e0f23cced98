"""The benchmark runs end to end and ends in a strict-JSON result line.

A run whose last line is not a JSON object (for instance one holding a bare
`NaN`) cannot be scored, so each workload that exercises the Monte Carlo
scorer or the bound quadrature is run briefly here, as the benchmark command
runs it, and its result line is parsed strictly.
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


@pytest.mark.parametrize("workload", ["sim-models", "bound-curve"])
def test_benchmark_result_line_is_strict_json(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = PERFBENCH / "out"
    had_out = out_dir.exists()
    before = _tree(PERFBENCH)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "31", "--seconds", "0.5", "--trace", "0"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    # the run makes its output folder if there is none; it holds nothing after a
    # run without tracing
    if not had_out and out_dir.is_dir() and not any(out_dir.iterdir()):
        out_dir.rmdir()
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert _tree(PERFBENCH) == before
