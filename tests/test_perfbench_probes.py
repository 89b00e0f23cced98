"""The benchmark's layer probes report a finite value for every per-layer
metric and pass their own checks.

A probe span that never fires gives a NaN median, which the benchmark would
write as a bare `NaN` into its JSON result line. This runs the probe set
under the benchmark's tracer, exactly as a traced benchmark run does.
"""

import json
import math
from pathlib import Path

import pytest

import stochgeo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# per-layer metrics that perfbench/run.py adds after the probes have run
NOT_FROM_PROBES = {"coverage.pool_starts", "trace.overhead_frac"}


@pytest.mark.filterwarnings("ignore::UserWarning")  # window-size notes
def test_probes_report_every_metric_finite(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    from tracing import Tracer

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in spec["per_layer"]} - NOT_FROM_PROBES
    checks: list = []
    tracer = Tracer()
    tracer.install(stochgeo)
    try:
        metrics = probes.run_probes(tracer, 3, tmp_path, checks)
    finally:
        tracer.uninstall()
    assert set(metrics) == expected
    assert [name for name, (value, _) in metrics.items() if not math.isfinite(value)] == []
    assert [(name, detail) for name, ok, detail in checks if not ok] == []
