"""Capture the golden outputs that every benchmark pass is checked against.

    python3 perfbench/capture_golden.py [workload ...]

Runs one untimed pass per workload and input seed (0 .. SEED_SPACE-1; once
for bound-curve, whose inputs do not depend on the seed) and writes
perfbench/golden/<workload>.json. Run it only to re-anchor the goldens on a
commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads as wl  # noqa: E402


def capture(workload: str) -> dict:
    setup, prepare, steps, _ = wl.SPECS[workload]
    seeds = [0] if workload in wl.SEEDLESS else range(wl.SEED_SPACE)
    workdir = HERE / "out" / "golden-work"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    try:
        for seed in seeds:
            state = setup(seed, workdir)
            if prepare is not None:
                prepare(state)
            out[wl.golden_key(workload, seed)] = wl.run_pass(steps(state))
            print(f"{workload} seed {seed}: captured", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "seeds": out}


def main(argv: list[str]) -> int:
    warnings.simplefilter("ignore")
    names = argv or list(wl.WORKLOADS)
    (HERE / "golden").mkdir(exist_ok=True)
    for name in names:
        doc = capture(name)
        path = HERE / "golden" / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
