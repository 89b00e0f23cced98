"""Byte-level regression test of the CLI against outputs in tests/golden/cli/.

Every case runs `stochgeo.cli.main` in one scratch working directory with
relative paths, so no absolute path enters the bytes, and compares the exit
code, the standard output and the file written with `-o` against the golden
copies. Cases run in order: later ones read files that earlier ones wrote
(the sampled deployment behind the file source, the target curve of fit, the
CSVs that `--config` reruns).

Regenerate the goldens, only when an output change is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from stochgeo.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

QUAD = ["--n-r", "32", "--n-upsilon", "32"]

# (name, argv); a case that writes with -o writes to <name>.csv
CASES = [
    ("sample_ppp", ["sample", "ppp", "--lambda-p", "1", "--window", "10x10",
                    "--seed", "7"]),
    ("sample_mhc", ["sample", "mhc", "--lambda-p", "2", "--d", "0.4",
                    "--window", "10x10", "--seed", "7"]),
    ("sample_mhc_guard", ["sample", "mhc", "--lambda-p", "2", "--d", "0.4",
                          "--window", "10x10", "--edge", "guard", "--seed", "7"]),
    ("sample_grid", ["sample", "grid", "--n", "24", "--window", "100x80"]),
    ("sample_rerun", ["sample", "--config", "sample_mhc_guard.csv"]),
    ("simulate_multi", ["simulate",
                        "--source", "ppp:lambda_p=1.2614,window=18x18",
                        "--source", "mhc:lambda_p=2,d=0.4,window=18x18",
                        "--source", "grid:n=24,window=4.878x3.902,edge=toroidal",
                        "--source", "grid:n=12,window=100x80",
                        "--source", "file:path=sample_mhc.csv,window=10x10",
                        "--beta-db=-10:5:20", "--trials", "200", "--seed", "3",
                        "--threads", "1"]),
    ("simulate_mhc_auto", ["simulate", "--source", "mhc", "--lambda-p", "2",
                           "--d", "0.4", "--beta-db", "0:5:10", "--trials", "200",
                           "--seed", "3", "--threads", "1"]),
    ("simulate_ppp_auto", ["simulate", "--source", "ppp", "--lambda-p", "1",
                           "--beta-db", "0:5:10", "--trials", "200", "--seed", "3",
                           "--threads", "1"]),
    ("simulate_file_guard", ["simulate", "--source", "file", "--file", "sample_grid.csv",
                             "--window", "100x80", "--margin", "5", "--beta-db", "0:5:10",
                             "--trials", "200", "--seed", "3", "--threads", "1"]),
    ("simulate_rerun", ["simulate", "--config", "simulate_multi.csv", "--threads", "1"]),
    ("bound", ["bound", "--kind", "both", "--lambda-p", "3", "--d", "0.5",
               "--beta-db", "10:5:20", *QUAD, "--with-sim", "--trials", "200",
               "--seed", "4", "--threads", "1"]),
    ("bound_window", ["bound", "--kind", "theorem1", "--lambda-p", "3", "--d", "0.5",
                      "--beta-db", "10:5:20", *QUAD, "--with-sim", "--window", "12x12",
                      "--trials", "200", "--seed", "4", "--threads", "1"]),
    ("fit", ["fit", "--target", "simulate_multi.csv",
             "--target-label", "file(sample_mhc.csv)", "--lambda-p-grid", "1,2",
             "--d-grid", "0.4", "--trials", "200", "--seed", "5", "--threads", "1"]),
    ("fit_window", ["fit", "--target", "simulate_multi.csv",
                    "--target-label", "file(sample_mhc.csv)", "--lambda-p-grid", "1,2",
                    "--d-grid", "0.4", "--window", "18x18", "--trials", "200",
                    "--seed", "5", "--threads", "1"]),
    ("validate_rho2", ["validate", "rho2", "--lambda-p", "1", "--d", "0.5",
                       "--realizations", "50", "--seed", "2"]),
    ("validate_void", ["validate", "void", "--lambda-p", "1", "--d", "0.5", "--r", "0.5",
                       "--realizations", "200", "--seed", "2"]),
    ("validate_empty_space", ["validate", "empty-space", "--lambda-p", "2", "--d", "0.1",
                              "--realizations", "800", "--seed", "2"]),
    ("validate_pgfl", ["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.3",
                       "--r", "0.3", "--realizations", "100", "--seed", "2"]),
]
WRITES_FILE = {name for name, argv in CASES if argv[0] != "validate"}


def run_cli(argv) -> tuple[int, bytes]:
    """Exit code and standard output of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(list(argv))
    return rc, buf.getvalue().encode("utf-8")


def case_argv(name: str, argv, to_file: bool = True) -> list[str]:
    return list(argv) + (["-o", f"{name}.csv"] if to_file and name in WRITES_FILE else [])


def run_all(workdir: Path) -> dict[str, tuple[int, bytes, bytes | None]]:
    """Run every case in `workdir`; returns {name: (rc, stdout, file bytes)}."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        results = {}
        for name, argv in CASES:
            rc, out = run_cli(case_argv(name, argv))
            path = Path(f"{name}.csv")
            written = path.read_bytes() if path.exists() else None
            results[name] = (rc, out, written)
        return results
    finally:
        os.chdir(here)


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli_golden")
    return workdir, run_all(workdir)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_cli_output_matches_golden(ran, name):
    _, results = ran
    rc, out, written = results[name]
    assert rc == 0
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    if written is not None:
        assert written == (GOLDEN / f"{name}.csv").read_bytes()


# commands whose output goes to stdout when -o is absent
STDOUT_CASES = ["sample_ppp", "sample_mhc_guard", "sample_grid", "simulate_multi",
                "bound", "fit"]


@pytest.mark.parametrize("name", STDOUT_CASES)
def test_cli_stdout_equals_file_output(ran, name, monkeypatch):
    # without -o a command prints what it prints with -o, then the file's bytes
    workdir, results = ran
    rc, out, written = results[name]
    monkeypatch.chdir(workdir)
    assert run_cli(case_argv(name, dict(CASES)[name], to_file=False)) == (rc, out + written)


def capture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(Path(tmp))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, (rc, out, written) in results.items():
        if rc != 0:
            sys.exit(f"case {name} exited with {rc}")
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        if written is not None:
            (GOLDEN / f"{name}.csv").write_bytes(written)
    print(f"wrote {len(results)} cases to {GOLDEN}")


if __name__ == "__main__":
    capture()
