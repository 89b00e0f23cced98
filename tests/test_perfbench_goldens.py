"""The sim-models benchmark workload reproduces its stored Monte Carlo counts
for every input seed.

A benchmark run checks only the golden of its own input seed; this reruns
the workload's own setup, pass and check for all of them, so a change to
the trial loop is held to every stored count. It reads the golden file and
writes nothing.
"""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.filterwarnings("ignore::UserWarning")  # window-size notes
def test_sim_models_counts_match_the_golden_of_every_input_seed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads as wl

    text = (PERFBENCH / "golden" / "sim-models.json").read_text(encoding="utf-8")
    golden = json.loads(text)["seeds"]
    assert sorted(golden, key=int) == [str(seed) for seed in range(wl.SEED_SPACE)]
    failed = []
    for seed in range(wl.SEED_SPACE):
        out = wl.run_pass(wl.steps_sim_models(wl.setup_sim_models(seed, tmp_path)))
        failed += [(seed, name, detail)
                   for name, ok, detail in wl.check_sim_models(out, golden[str(seed)]) if not ok]
    assert failed == []
