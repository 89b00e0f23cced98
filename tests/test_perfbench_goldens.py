"""The sim-models and validate-mhc benchmark workloads reproduce their stored
outputs for every input seed.

A benchmark run checks only the golden of its own input seed; these rerun
the workloads' own setup and steps for all of them, so a change to the trial
loop or to the nearest-distance validators is held to every stored value.
They read the golden files and write nothing.
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


@pytest.mark.filterwarnings("ignore::UserWarning")  # window-size notes
def test_validate_mhc_ks_and_void_match_the_golden_of_every_input_seed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads as wl

    text = (PERFBENCH / "golden" / "validate-mhc.json").read_text(encoding="utf-8")
    golden = json.loads(text)["seeds"]
    assert sorted(golden, key=int) == [str(seed) for seed in range(wl.SEED_SPACE)]
    steps = {"realization_us.ks": "ks", "realization_us.void": "void"}
    failed = []
    for seed in range(wl.SEED_SPACE):
        all_steps = wl.steps_validate_mhc(wl.setup_validate_mhc(seed, tmp_path))
        out = wl.run_pass([step for step in all_steps if step.metric in steps])
        failed += [(seed, key, out[key]) for key in steps.values()
                   if out[key] != golden[str(seed)][key]]
    assert failed == []
