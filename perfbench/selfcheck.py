"""Benchmark self-check: two traced runs with the same seed must report
identical values for every exact-count per-layer metric.

    python3 perfbench/selfcheck.py [--workload NAME|all] [--seed N] [--seconds S]

Exits 0 when every exact metric repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Per-layer metrics that are counts, or ratios of counts and of deterministic
# quadrature results, and so must repeat bit for bit for a given seed.
EXACT = (
    "pointprocess.parents_per_real",
    "pointprocess.retained_per_real",
    "pointprocess.retention_ratio",
    "pointprocess.pairs_per_real",
    "coverage.stations_per_trial",
    "coverage.clamped_trials",
    "coverage.empty_trials",
    "coverage.pool_starts",
    "bounds.far_panels",
    "bounds.n_clamped",
    "bounds.tail_rel",
    "bounds.kernel_evals",
)


def traced_metrics(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=HERE.parent)
    result = json.loads(proc.stdout.splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=4)
    args = p.parse_args(argv)
    first = traced_metrics(args.workload, args.seed, args.seconds)
    second = traced_metrics(args.workload, args.seed, args.seconds)
    bad = 0
    for name in sorted(first):
        base = name.split(".", 1)[1] if args.workload == "all" else name
        if base not in EXACT:
            continue
        same = first[name] == second.get(name)
        bad += not same
        print(f"{'SAME' if same else 'DIFF'} {name}: {first[name]!r} vs {second.get(name)!r}")
    print(f"self-check {'passed' if not bad else 'FAILED'}: {bad} exact metrics differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
