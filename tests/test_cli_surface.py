"""Guards on the CLI's option surface and on its --config key mapping.

The snapshot pins, for every subcommand of `build_parser()`, each action's
option strings, dest, type, default, choices, nargs and required flag, so a
refactor of how the parser is built cannot add, drop or alter an option
unnoticed. The parity tests run the config keys whose names differ from
their flags (`file`, `n_points`, and fit's `lambda_p` and `d` grids) from a
config file and compare the bytes with the golden flag runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
from pathlib import Path

import pytest

from stochgeo.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "cli"

_CHANNEL = [
    (("--alpha",), "alpha", "float", None, None, None, False),
    (("--sigma2",), "sigma2", "float", None, None, None, False),
    (("--p-t",), "p_t", "float", None, None, None, False),
]
_COMMON = [
    (("--config",), "config", None, None, None, None, False),
    (("-o", "--out"), "out", None, None, None, None, False),
    (("--seed",), "seed", "int", None, None, None, False),
]
_HELP = (("-h", "--help"), "help", None, "==SUPPRESS==", None, 0, False)
_EDGE = (("--edge",), "edge", None, None, ["toroidal", "guard"], None, False)

# (option strings, dest, type name, default, choices, nargs, required)
SURFACE = {
    "sample": [
        _HELP,
        ((), "process", None, None, ["ppp", "mhc", "grid"], "?", False),
        (("--lambda-p",), "lambda_p", "float", None, None, None, False),
        (("--d",), "d", "float", None, None, None, False),
        (("--n",), "n", "int", None, None, None, False),
        (("--window",), "window", None, None, None, None, False),
        _EDGE,
        (("--margin",), "margin", "float", None, None, None, False),
        *_COMMON,
    ],
    "simulate": [
        _HELP,
        (("--source",), "source", None, None, None, None, False),
        (("--lambda-p",), "lambda_p", "float", None, None, None, False),
        (("--d",), "d", "float", None, None, None, False),
        (("--n",), "n", "int", None, None, None, False),
        (("--file",), "file", None, None, None, None, False),
        (("--beta-db",), "beta_db", None, None, None, None, False),
        (("--trials",), "trials", "int", None, None, None, False),
        (("--threads",), "threads", "int", 0, None, None, False),
        (("--window",), "window", None, None, None, None, False),
        _EDGE,
        (("--margin",), "margin", "float", None, None, None, False),
        *_CHANNEL,
        *_COMMON,
    ],
    "bound": [
        _HELP,
        (("--kind",), "kind", None, None, ["theorem1", "proposition1", "both"], None, False),
        (("--lambda-p",), "lambda_p", "float", None, None, None, False),
        (("--d",), "d", "float", None, None, None, False),
        (("--beta-db",), "beta_db", None, None, None, None, False),
        (("--n-r",), "n_r", "int", None, None, None, False),
        (("--n-theta",), "n_theta", "int", None, None, None, False),
        (("--n-upsilon",), "n_upsilon", "int", None, None, None, False),
        (("--r-max",), "r_max", "float", None, None, None, False),
        (("--with-sim",), "with_sim", None, False, None, 0, False),
        (("--trials",), "trials", "int", None, None, None, False),
        (("--threads",), "threads", "int", 0, None, None, False),
        (("--window",), "window", None, None, None, None, False),
        *_CHANNEL,
        *_COMMON,
    ],
    "validate": [
        _HELP,
        ((), "check", None, None, ["empty-space", "rho2", "void", "pgfl-bound"], None, True),
        (("--lambda-p",), "lambda_p", "float", None, None, None, True),
        (("--d",), "d", "float", None, None, None, True),
        (("--r",), "r", "float", None, None, None, False),
        (("--alpha",), "alpha", "float", 4.0, None, None, False),
        (("--beta-db",), "beta_db_value", "float", 0.0, None, None, False),
        (("--realizations",), "realizations", "int", None, None, None, False),
        (("--ks-tol",), "ks_tol", "float", 0.05, None, None, False),
        (("--seed",), "seed", "int", None, None, None, False),
    ],
    "fit": [
        _HELP,
        (("--target",), "target", None, None, None, None, False),
        (("--target-label",), "target_label", None, None, None, None, False),
        (("--lambda-p-grid",), "lambda_p_grid", None, None, None, None, False),
        (("--d-grid",), "d_grid", None, None, None, None, False),
        (("--trials",), "trials", "int", None, None, None, False),
        (("--threads",), "threads", "int", 0, None, None, False),
        (("--window",), "window", None, None, None, None, False),
        *_CHANNEL,
        *_COMMON,
    ],
}

# actions that do not store one value per occurrence
ACTION_KINDS = {("simulate", "source"): "_AppendAction",
                ("bound", "with_sim"): "_StoreTrueAction"}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    sub = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub) == 1 and sub[0].dest == "command" and sub[0].required
    return dict(sub[0].choices)


def test_parser_has_exactly_the_snapshot_subcommands():
    assert list(_subparsers()) == list(SURFACE)


@pytest.mark.parametrize("command", list(SURFACE))
def test_parser_surface_matches_snapshot(command):
    actions = _subparsers()[command]._actions
    got = [(tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
            a.default, a.choices, a.nargs, a.required) for a in actions]
    assert got == SURFACE[command]
    for a in actions:
        kind = ACTION_KINDS.get((command, a.dest))
        if kind is not None:
            assert type(a).__name__ == kind


def _run(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue().encode("utf-8")


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    """A working directory holding the golden inputs the parity runs read."""
    for name in ("simulate_multi.csv", "sample_grid.csv"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _assert_matches_golden(rc, out, written: Path, name: str):
    assert rc == 0
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    assert written.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_fit_from_plain_config_file_matches_flag_run(golden_dir):
    # fit reads --target from `file` and its grids from `lambda_p` and `d`
    (golden_dir / "fit.cfg").write_text(
        "file=simulate_multi.csv\nlambda_p=1,2\nd=0.4\ntrials=200\nseed=5\n",
        encoding="utf-8")
    rc, out = _run(["fit", "--config", "fit.cfg", "--target-label", "file(sample_mhc.csv)",
                    "--threads", "1", "-o", "fit.csv"])
    _assert_matches_golden(rc, out, golden_dir / "fit.csv", "fit")


def test_sample_grid_rerun_reads_n_points(golden_dir):
    rc, out = _run(["sample", "--config", "sample_grid.csv", "-o", "rerun.csv"])
    _assert_matches_golden(rc, out, golden_dir / "rerun.csv", "sample_grid")


def test_simulate_file_source_reads_file_from_config(golden_dir):
    (golden_dir / "sim.cfg").write_text("file=sample_grid.csv\n", encoding="utf-8")
    rc, out = _run(["simulate", "--config", "sim.cfg", "--source", "file",
                    "--window", "100x80", "--margin", "5", "--beta-db", "0:5:10",
                    "--trials", "200", "--seed", "3", "--threads", "1",
                    "-o", "sim.csv"])
    _assert_matches_golden(rc, out, golden_dir / "sim.csv", "simulate_file_guard")
