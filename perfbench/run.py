"""stochgeo benchmark: one workload (or all) for a fixed time, checked against goldens.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim-models --seed 3 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 26 --trace 0

With --trace 0 the run measures the end-to-end metrics (tracing off); with
--trace 1 it measures the per-layer metrics from spans (see tracing.py and
probes.py) and the tracing overhead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it name every metric with its unit.

Timings are calibrated against a reference kernel sampled during the run
(see calibrate.py). The library is imported from `src/` of the checkout;
nothing is installed.
Each workload runs in its own child process of this script, which also starts
SETUP_SAMPLES further children that only set up, to take the median set-up
time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sim-models", "bound-curve", "fit-pool", "validate-mhc")
SETUP_SAMPLES = 4  # set-up-only children; the measuring child adds one more
CHILD_TIMEOUT_S = 170
RSS_POLL_S = 0.05
SPAN_CAP = 100_000  # workload-pass spans written to the trace file


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# child side

def child_setup(args) -> tuple[float, object, dict]:
    """Import the library and build the workload's inputs; returns the set-up
    time measured from before the first import of numpy or stochgeo,
    calibrated by a reference sample taken right after it. A POOLED
    workload's set-up is calibrated too: no pool runs yet, and its raw
    set-up medians moved by a fifth between two sets of runs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import stochgeo
    if Path(stochgeo.__file__).resolve().parent != SRC / "stochgeo":
        raise SystemExit(f"error: imported stochgeo from {stochgeo.__file__}, not {SRC}")
    import workloads as wl

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup, _, _, _ = wl.SPECS[args.workload]
    state = setup(wl.input_seed(args.seed), workdir)
    setup_s = time.perf_counter() - t0
    import calibrate
    return setup_s * calibrate.NOMINAL_S / calibrate.sample(), wl, {"state": state,
                                                                      "workdir": workdir}


class RssPoller:
    """Peak of the summed resident set size of this process and its children
    (pool workers), sampled every RSS_POLL_S seconds from /proc."""

    def __init__(self):
        import threading
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _rss_kb(pid: int, field: str = "VmRSS:") -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith(field):
                        return int(line.split()[1])
        except (OSError, ValueError):
            pass
        return 0

    def sample(self) -> None:
        me = os.getpid()
        total = self._rss_kb(me)
        try:
            with open(f"/proc/{me}/task/{me}/children", encoding="ascii") as fh:
                kids = [int(k) for k in fh.read().split()]
        except OSError:
            kids = []
        total += sum(self._rss_kb(k) for k in kids)
        self.peak_kb = max(self.peak_kb, total, self._rss_kb(me, "VmHWM:"))

    def _run(self):
        while not self._stop.wait(RSS_POLL_S):
            self.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()


def spread_line(values: list[float]) -> str:
    """Mean, median and the highest percentile with at least ten samples
    beyond it, with the sample count."""
    n = len(values)
    head = f"mean of {n} {statistics.fmean(values):.6g}, median {statistics.median(values):.6g}"
    if n < 20:
        return f"{head}, max {max(values):.6g}; too few samples for a tail percentile"
    q = int(100 * (1 - 10 / n))
    tail = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return f"{head}, p{q} {tail:.6g} with {n - int(n * q / 100)} samples beyond"


def run_passes(spec, ctx, budget: float, sampler):
    """Repeat passes while the next one is expected to end within the budget
    (10% slack); at least one pass. Returns per-pass times and per-unit
    timings (raw seconds, without the sampler's time) and the check results."""
    _, _, steps, check = spec
    walls, units, results = [], {}, []
    start = time.perf_counter()
    with sampler:
        while True:
            out, wall = {}, 0.0
            try:
                for step in steps(ctx["state"]):
                    spent = sampler.spent_s
                    t0 = time.perf_counter()
                    out.update(step.run())
                    dt = time.perf_counter() - t0 - (sampler.spent_s - spent)
                    wall += dt
                    units.setdefault(step.metric, []).append(dt / step.n_units)
                results.append(check(out, ctx["golden"]))
            except Exception as exc:  # a failing pass is counted, not fatal
                results.append([("pass", False, f"{type(exc).__name__}: {exc}")])
            walls.append(wall)
            if len(results) >= 3 and not any(ok for r in results for _, ok, _ in r):
                break
            if time.perf_counter() - start + statistics.median(walls) > 1.1 * budget:
                break
    return walls, units, results


def tally(results) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes = []
    for checks in results:
        for name, ok, detail in checks:
            attempted += 1
            if not ok:
                failed += 1
                notes.append(f"FAILED {name}: {detail}")
    return attempted, failed, notes


def child_measure(args) -> int:
    import warnings
    warnings.simplefilter("ignore")  # window-size notes from the library
    setup_s, wl, ctx = child_setup(args)
    import calibrate
    import stochgeo
    from tracing import Tracer

    spec = wl.SPECS[args.workload]
    golden_path = HERE / "golden" / f"{args.workload}.json"
    goldens = json.loads(golden_path.read_text(encoding="utf-8"))["seeds"]
    ctx["golden"] = goldens[wl.golden_key(args.workload, args.seed)]
    prepare = spec[1]
    lines = [f"# workload {args.workload}: {wl.WHY[args.workload]}",
             f"# seed {args.seed} -> input seed {wl.input_seed(args.seed)} "
             f"(held-out seed {wl.HELD_OUT_SEED}); seconds {args.seconds:g}; trace {args.trace}",
             f"# env {env_line()}"]
    metrics: dict = {}
    payload: dict = {"setup_s": setup_s}
    try:
        with RssPoller() as rss:
            if prepare is not None:
                prepare(ctx["state"])
            budget = args.seconds if not args.trace else args.seconds / 2
            calibrated = args.workload not in wl.POOLED
            sampler = calibrate.Sampler(calibrated)
            walls, units, results = run_passes(spec, ctx, budget, sampler)
            scale = sampler.factor()
            if args.trace:
                tracer = Tracer()
                tracer.install(stochgeo)
                try:
                    t_sampler = calibrate.Sampler(calibrated)
                    t_walls, _, t_results = run_passes(spec, ctx, budget, t_sampler)
                    pool_starts = tracer.counts["pool_starts"] / len(t_walls)
                    pass_summary = tracer.summary(excluded=t_sampler.intervals_ns)
                    probe_tracer = Tracer()
                finally:
                    tracer.uninstall()
                probe_checks: list = []
                import probes
                probe_tracer.install(stochgeo)
                try:
                    metrics = probes.run_probes(probe_tracer, wl.input_seed(args.seed),
                                                ctx["workdir"], probe_checks)
                finally:
                    probe_tracer.uninstall()
                results += t_results + [probe_checks]
                metrics["coverage.pool_starts"] = (pool_starts, "count")
                untraced = statistics.fmean(walls) * scale
                traced = statistics.fmean(t_walls) * t_sampler.factor()
                metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
                write_trace(args, tracer, pass_summary, probe_tracer, metrics)
                lines.append(f"trace mean pass time untraced {untraced:.6g} s, traced "
                             f"{traced:.6g} s, overhead {traced - untraced:+.6g} s")
                for layer, ms in sorted(pass_summary["self_ms_by_layer"].items()):
                    lines.append(f"trace self_ms.{layer} {ms / len(t_walls):.6g} ms per pass")
            else:
                kind = (f"calibrated by x{scale:.4g} from {len(sampler.ref_s)} reference "
                        "samples" if calibrated else "raw, pooled workload")
                cal_walls = [w * scale for w in walls]
                metrics["wall_s"] = (statistics.fmean(cal_walls), "s")
                lines.append(f"metric wall_s {statistics.fmean(cal_walls):.6g} s per pass, {kind} "
                             f"({spread_line(cal_walls)}; raw mean {statistics.fmean(walls):.6g})")
                for name, values in sorted(units.items()):
                    unit = name.split("_", 1)[1].split(".", 1)[0]
                    per_unit = [v * scale * (1e6 if unit == "us" else 1.0) for v in values]
                    lines.append(f"metric {name} {statistics.fmean(per_unit):.6g} {unit} per unit "
                                 f"({spread_line(per_unit)})")
        if not args.trace:
            payload["peak_rss_mb"] = rss.peak_kb / 1024.0
    finally:
        for f in ctx["workdir"].glob("*"):
            f.unlink()
        ctx["workdir"].rmdir()
    attempted, failed, notes = tally(results)
    lines += notes
    lines.append(f"metric failed_frac {failed / attempted:.6g} ({failed} of {attempted} checks)")
    computed = sys.modules["probes"].COMPUTED if "probes" in sys.modules else set()
    for name, (value, unit) in sorted(metrics.items()):
        if name != "wall_s":
            label = " (computed)" if name in computed else ""
            lines.append(f"metric {name} {value:.6g} {unit}{label}")
    payload.update(attempted=attempted, failed=failed,
                   metrics={k: v for k, (v, _) in metrics.items()})
    print("\n".join(lines))
    print(json.dumps(payload))
    return 0


def write_trace(args, tracer, summary, probe_tracer, metrics) -> None:
    """Spans of the traced passes and of the probes, written when the run ends."""
    OUT.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed,
           "columns": ["id", "parent", "name", "start_ns", "end_ns"],
           "pass_summary": summary, "probe_summary": probe_tracer.summary(),
           "metrics": {k: v for k, (v, _) in metrics.items()},
           "pass_spans": tracer.spans[:SPAN_CAP], "probe_spans": probe_tracer.spans}
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def child_setup_only(args) -> int:
    setup_s, _, ctx = child_setup(args)
    ctx["workdir"].rmdir()
    print(json.dumps({"setup_s": setup_s}))
    return 0


# ---------------------------------------------------------------------------
# parent side

def env_line() -> str:
    import platform
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    versions = []
    for mod in ("numpy", "scipy"):
        m = sys.modules.get(mod)
        versions.append(f"{mod}={m.__version__ if m else 'not-imported'}")
    return (f"nproc={os.cpu_count()} cpu=\"{cpu}\" python={platform.python_version()} "
            + " ".join(versions))


def run_child(args, mode: str) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {mode} child for {args.workload} exited {proc.returncode}")
    out = proc.stdout.rstrip("\n").splitlines()
    return out[:-1], json.loads(out[-1])


def drive(args, units: dict) -> dict:
    """Set-up probes, then the measuring child; returns the result object."""
    setups = [run_child(args, "setup")[1]["setup_s"] for _ in range(SETUP_SAMPLES)]
    lines, payload = run_child(args, "measure")
    setups.append(payload["setup_s"])
    for line in lines:
        print(line)
    if args.trace:
        metrics = payload["metrics"]
    else:
        setup_s = statistics.median(setups)
        print(f"metric setup_s {setup_s:.6g} s (median of {len(setups)} set-ups: "
              + ", ".join(f"{s:.4g}" for s in setups) + ")")
        print(f"metric peak_rss_mb {payload['peak_rss_mb']:.6g} MB (this process and its pool "
              "children, summed resident set)")
        metrics = {"wall_s": payload["metrics"]["wall_s"], "setup_s": setup_s,
                   "peak_rss_mb": payload["peak_rss_mb"]}
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
                         "BENCHMARK.json")
    return {"correct": payload["failed"] == 0, "attempted": payload["attempted"],
            "failed": payload["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def load_units(trace: int) -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child == "setup":
        return child_setup_only(args)
    if args.child == "measure":
        return child_measure(args)
    if not (SRC / "stochgeo" / "__init__.py").is_file():
        print(f"error: no stochgeo sources under {SRC}", file=sys.stderr)
        return 2
    units = load_units(args.trace)
    if args.workload != "all":
        result = drive(args, units)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            one = drive(argparse.Namespace(**{**vars(args), "workload": name}), units)
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
