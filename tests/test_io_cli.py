import contextlib
import io
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochgeo import CoverageCurve, DataError, PointSet, Window, cli, load_deployment
from stochgeo.cli import OPTIONS, _record, main, parse_grid_spec, parse_window
from stochgeo.io import (
    config_lines,
    fmt,
    parse_kv_comments,
    points_csv_text,
    read_config,
    read_curves_csv,
    write_curves_csv,
)


# a simulate CSV that fit can read as its target
GOLDEN_CURVE = Path(__file__).parent / "golden" / "cli" / "simulate_mhc_auto.csv"


def run(args):
    return main(args)


def numeric_lines(path):
    with open(path) as fh:
        return [l for l in fh if not l.startswith("#")]


def test_fmt_round_trips_floats():
    for x in (0.1, 1 / 3, 1.2614395845013864, 1e-12, 123456.789):
        assert float(fmt(x)) == x


def test_parse_grid_spec():
    assert np.allclose(parse_grid_spec("10:1:20"), np.arange(10.0, 21.0))
    assert len(parse_grid_spec("10:1:20")) == 11
    assert np.allclose(parse_grid_spec("-10:5:10"), [-10, -5, 0, 5, 10])
    assert np.allclose(parse_grid_spec("0.5,1.5,2"), [0.5, 1.5, 2.0])
    from stochgeo import ParameterError
    with pytest.raises(ParameterError):
        parse_grid_spec("10:0:20")
    with pytest.raises(ParameterError):
        parse_grid_spec("abc")
    with pytest.raises(ParameterError):
        parse_grid_spec("abc:1:2")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789.-e:,naif ", max_size=16))
def test_parse_grid_spec_fuzzed_gives_finite_values_or_usage_error(spec):
    from stochgeo import ParameterError
    try:
        values = parse_grid_spec(spec)
    except ParameterError:
        return
    assert values.ndim == 1 and values.size > 0 and np.all(np.isfinite(values))


def test_parse_window():
    assert parse_window("20x20") == (20.0, 20.0)
    assert parse_window("100x80") == (100.0, 80.0)


# config values as the CLI records them: no whitespace, which the parser strips
_config_text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")))
_config_float = st.floats(allow_nan=False) | st.none()
_config_int = st.integers() | st.none()


# the value strategy of each recorded config key, from the cast of its first row
_CONFIG_VALUES = {}
for _opt in OPTIONS.values():
    if _opt.key:
        _CONFIG_VALUES.setdefault(_opt.key, {float: _config_float, int: _config_int}.get(
            _opt.cast, _config_text | st.none()))


@given(scenario=_config_text, values=st.fixed_dictionaries(_CONFIG_VALUES))
def test_config_lines_round_trip_through_parse_kv_comments(scenario, values):
    flat = _record(scenario, **values)
    assert list(parse_kv_comments(config_lines(flat)).items()) == list(flat.items())
    assert list(flat) == ["scenario", *(k for k in _CONFIG_VALUES if k in flat)]


def test_config_keys_are_recorded_in_a_fixed_order():
    assert list(_CONFIG_VALUES) == [
        "source", "file", "lambda_p", "d", "n_points", "window", "edge", "margin", "alpha",
        "sigma2", "p_t", "beta_db", "trials", "seed", "kind", "n_r", "n_theta", "n_upsilon",
        "with_sim"]


def test_parse_kv_comments_ignores_data_rows():
    lines = ["# alpha=4.0", "beta_db,p_c,std_err,label", "0.0,0.5,0.01,x",
             "trials=10", "# not a pair"]
    out = parse_kv_comments(lines)
    assert out == {"alpha": "4.0", "trials": "10"}


def test_curves_csv_round_trip(tmp_path):
    beta = np.array([-10.0, 0.0, 10.0])
    mc = CoverageCurve(beta, np.array([0.9, 0.5, 0.1]),
                       np.array([0.01, 0.02, 0.01]), "sim")
    an = CoverageCurve(beta, np.array([0.85, 0.45, 0.09]), None, "theorem1")
    path = tmp_path / "curves.csv"
    write_curves_csv(path, [mc, an], {"alpha": "4.0", "seed": "3"})
    curves, config = read_curves_csv(path)
    assert config["alpha"] == "4.0" and config["seed"] == "3"
    got = {c.label: c for c in curves}
    assert np.array_equal(got["sim"].beta_db, beta)
    assert np.array_equal(got["sim"].p_c, mc.p_c)
    assert np.array_equal(got["sim"].std_err, mc.std_err)
    assert got["theorem1"].std_err is None


# the UTF-8 byte-order mark that spreadsheet tools often put before a CSV export
BOM = b"\xef\xbb\xbf"


@st.composite
def _sampled_point_sets(draw):
    """A point set in a toroidal or guard window, with the config lines
    `sample` records for it."""
    width, height = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    edge = draw(st.sampled_from(["toroidal", "guard"]))
    margin = draw(st.floats(0.0, 0.49)) * min(width, height) if edge == "guard" else 0.0
    window = Window(width, height, edge=edge, margin=margin)
    points = draw(st.lists(st.tuples(st.floats(0.0, width), st.floats(0.0, height)),
                           min_size=1, max_size=20))
    lambda_p, d = draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 10.0))
    seed = draw(st.integers(0, 2 ** 63))
    config = _record("sample", source="mhc", lambda_p=lambda_p, d=d,
                     window=f"{fmt(width)}x{fmt(height)}", edge=edge,
                     margin=margin or None, seed=seed)
    label = f"mhc(lambda_p={lambda_p:g},d={d:g})"
    return PointSet(np.array(points), window, label, seed), config


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sampled=_sampled_point_sets(), bom=st.booleans(), crlf=st.booleans())
def test_points_csv_round_trips_through_load_deployment(sampled, bom, crlf, tmp_path):
    point_set, config = sampled
    data = points_csv_text(point_set, config).encode("utf-8")
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    path = tmp_path / "points.csv"
    path.write_bytes(BOM + data if bom else data)
    loaded = load_deployment(path, point_set.window)
    assert loaded.points.tobytes() == point_set.points.tobytes()


def test_load_deployment_reads_a_bom_prefixed_file(tmp_path):
    text = "# offset_x=-1000 offset_y=-2000 scale=0.001\nx_km,y_km\n6000,4000\n1000,2500\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(BOM + text.encode("utf-8"))
    expected = load_deployment(plain, Window(10, 10)).points
    assert load_deployment(marked, Window(10, 10)).points.tolist() == expected.tolist()
    assert expected.tolist() == [[5.0, 2.0], [0.0, 0.5]]


def test_load_deployment_applies_affine_keys_of_a_later_leading_comment(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("# provenance=survey\n# offset_x=-1000\n\n# offset_y=-2000 scale=0.001\n"
                 "x_km,y_km\n6000,4000\n")
    assert load_deployment(f, Window(10, 10)).points.tolist() == [[5.0, 2.0]]


def test_load_deployment_ignores_affine_keys_after_the_header(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("x_km,y_km\n# offset_x=-1000 scale=0.001\n5,2\n# scale=bad\n")
    assert load_deployment(f, Window(10, 10)).points.tolist() == [[5.0, 2.0]]


def test_load_deployment_bad_affine_value_is_a_data_error(tmp_path):
    f = tmp_path / "dep.csv"
    f.write_text("# scale=abc\nx_km,y_km\n5,2\n")
    with pytest.raises(DataError, match="bad affine value.*scale"):
        load_deployment(f, Window(10, 10))


def test_read_curves_csv_reads_a_bom_prefixed_file(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_curves_csv(plain, [CoverageCurve(np.array([0.0, 5.0]), np.array([0.5, 0.25]),
                                           np.array([0.01, 0.02]), "mhc(lambda_p=2,d=0.4)")],
                     {"alpha": "4.0"})
    marked.write_bytes(BOM + plain.read_bytes())
    (want,), want_config = read_curves_csv(plain)
    (got,), got_config = read_curves_csv(marked)
    assert got_config == want_config == {"alpha": "4.0"}
    assert got.label == want.label
    for field in ("beta_db", "p_c", "std_err"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_cli_config_with_bom_keeps_its_first_key(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(BOM + b"trials=7\nsource=mhc\nlambda_p=2\nd=0.4\nbeta_db=0:5:10\nseed=8\n")
    assert read_config(cfg)["trials"] == "7"
    out = tmp_path / "out.csv"
    assert run(["simulate", "--config", str(cfg), "--threads", "1", "-o", str(out)]) == 0
    (curve,), embedded = read_curves_csv(out)
    assert embedded["trials"] == "7"
    # every coverage estimate is a count of 7 trials
    assert np.array_equal(curve.p_c * 7, np.round(curve.p_c * 7))


def test_cli_sample_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["sample", "mhc", "--lambda-p", "1", "--d", "0.5",
            "--window", "20x20", "--seed", "7"]
    assert run(base + ["-o", str(out1)]) == 0
    assert run(base + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the emitted file round-trips through the deployment loader
    ps = load_deployment(out1, Window(20, 20))
    assert len(ps) > 0


def test_cli_sample_rejects_bad_hardcore(tmp_path, capsys):
    code = run(["sample", "mhc", "--lambda-p", "1", "--d", "-1",
                "--window", "20x20", "--seed", "7"])
    assert code == 2
    assert "d" in capsys.readouterr().err


def test_cli_sample_grid_24(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["sample", "grid", "--n", "24", "--window", "100x80",
                "-o", str(out)]) == 0
    rows = numeric_lines(out)
    assert rows[0].strip() == "x_km,y_km"
    assert len(rows) == 25


def test_cli_simulate_zero_trials(capsys):
    code = run(["simulate", "--source", "ppp", "--lambda-p", "1",
                "--trials", "0", "--seed", "1"])
    assert code == 2


def test_cli_simulate_missing_file(capsys):
    code = run(["simulate", "--source", "file", "--file", "nope.csv",
                "--window", "10x10", "--trials", "10", "--seed", "1"])
    assert code == 1
    assert "nope.csv" in capsys.readouterr().err


def test_cli_simulate_rerun_bit_identical(tmp_path):
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert run(["simulate", "--source", "mhc", "--lambda-p", "2", "--d", "0.4",
                "--beta-db", "0:5:10", "--trials", "2500", "--seed", "3",
                "--threads", "1", "-o", str(out1)]) == 0
    # rerun from the embedded config with a different worker count
    assert run(["simulate", "--config", str(out1), "--threads", "2",
                "-o", str(out2)]) == 0
    assert numeric_lines(out1) == numeric_lines(out2)


def test_cli_simulate_rerun_preserves_explicit_window(tmp_path):
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert run(["simulate", "--source", "ppp", "--lambda-p", "1.3",
                "--window", "22x22", "--beta-db", "0:5:10", "--trials", "1500",
                "--seed", "4", "-o", str(out1)]) == 0
    assert run(["simulate", "--config", str(out1), "-o", str(out2)]) == 0
    assert numeric_lines(out1) == numeric_lines(out2)
    assert read_config(out1)["window"] == "22x22"


def test_cli_multi_source_rerun(tmp_path):
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    assert run(["simulate",
                "--source", "ppp:lambda_p=1.0,window=12x12",
                "--source", "grid:n=9,window=12x12,edge=toroidal",
                "--beta-db", "0:10:10", "--trials", "600", "--seed", "2",
                "-o", str(out1)]) == 0
    assert run(["simulate", "--config", str(out1), "-o", str(out2)]) == 0
    assert numeric_lines(out1) == numeric_lines(out2)


def test_curves_csv_round_trips_comma_labels_with_gap_column(tmp_path):
    beta = np.array([0.0, 5.0])
    sim = CoverageCurve(beta, np.array([0.6, 0.4]), np.array([0.01, 0.02]),
                        "mhc(lambda_p=2,d=0.4)")
    bound = CoverageCurve(beta, np.array([0.5, 0.3]), None, "a,b,c")
    path = tmp_path / "gap.csv"
    write_curves_csv(path, [sim, bound], {"seed": "1"},
                     gaps={"a,b,c": np.array([0.1, 0.1])})
    curves, _ = read_curves_csv(path)
    got = {c.label: c for c in curves}
    assert list(got) == ["mhc(lambda_p=2,d=0.4)", "a,b,c"]
    assert np.array_equal(got["mhc(lambda_p=2,d=0.4)"].std_err, sim.std_err)
    assert np.array_equal(got["a,b,c"].p_c, bound.p_c)
    assert got["a,b,c"].std_err is None


def test_curves_csv_keeps_same_label_curves_apart(tmp_path):
    first = CoverageCurve(np.array([0.0, 5.0]), np.array([0.7, 0.4]), None, "grid(n=25)")
    second = CoverageCurve(np.array([0.0, 5.0]), np.array([0.6, 0.3]), None, "grid(n=25)")
    other = CoverageCurve(np.array([0.0]), np.array([0.5]), None, "x")
    path = tmp_path / "dup.csv"
    write_curves_csv(path, [first, other, first, second], {"seed": "1"})
    curves, _ = read_curves_csv(path)
    assert [c.label for c in curves] == ["grid(n=25)", "x", "grid(n=25)", "grid(n=25)"]
    assert [c.p_c.tolist() for c in curves] == [[0.7, 0.4], [0.5], [0.7, 0.4], [0.6, 0.3]]


@pytest.mark.filterwarnings("ignore")
def test_cli_fit_on_same_label_sources_uses_the_first(tmp_path, capsys):
    dup = tmp_path / "dup.csv"
    assert run(["simulate", "--source", "grid:n=24,window=10x10",
                "--source", "grid:n=24,window=12x12", "--beta-db", "0:5:10",
                "--trials", "50", "--seed", "3", "--threads", "1", "-o", str(dup)]) == 0
    curves, _ = read_curves_csv(dup)
    assert len(curves) == 2 and curves[0].label == curves[1].label
    code = run(["fit", "--target", str(dup), "--lambda-p-grid", "2", "--d-grid", "0.4",
                "--window", "10x10", "--trials", "20", "--seed", "3", "--threads", "1"])
    assert code == 0
    assert capsys.readouterr().out.startswith("best lambda_p=2 d=0.4 ")


@pytest.mark.parametrize("argv", [
    ["--source", "ppp:lambda_p=1e300", "--window", "1x1"],
    ["--source", "ppp:lambda_p=1e12", "--window", "10x10"],
    ["--source", "ppp:lambda_p=1,window=20x20", "--beta-db", "0:1e-300:1"],
    ["--source", "ppp:lambda_p=1,window=20x20", "--beta-db=-1e308:1:1e308"],
])
def test_cli_huge_expected_point_count_is_a_usage_error(argv, capsys):
    assert run(["simulate"] + argv + ["--trials", "1", "--seed", "1", "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap" in err


def test_cli_fit_rejects_nan_coverage_target(tmp_path, capsys):
    # nan fails p >= 0 and p <= 1, so no fit ends in mse=nan
    target = tmp_path / "nan.csv"
    target.write_text(GOLDEN_CURVE.read_text().replace("5.0,0.425,", "5.0,nan,"))
    code = run(["fit", "--target", str(target), "--lambda-p-grid", "2", "--d-grid", "0.4",
                "--trials", "20", "--seed", "3", "--threads", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "[0, 1]" in err


def test_cli_fit_targets_comma_label(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    assert run(["simulate", "--source", "mhc:lambda_p=2,d=0.4,window=12x12",
                "--beta-db", "0:5:10", "--trials", "200", "--seed", "3",
                "--threads", "1", "-o", str(sim)]) == 0
    code = run(["fit", "--target", str(sim), "--target-label", "mhc(lambda_p=2,d=0.4)",
                "--lambda-p-grid", "2", "--d-grid", "0.4", "--window", "12x12",
                "--trials", "200", "--seed", "3", "--threads", "1"])
    assert code == 0
    assert "best lambda_p=2 d=0.4 mse=0" in capsys.readouterr().out


def test_cli_simulate_multiple_sources(tmp_path):
    out = tmp_path / "multi.csv"
    assert run(["simulate",
                "--source", "ppp:lambda_p=1.0,window=10x10",
                "--source", "grid:n=4,window=10x10,edge=toroidal",
                "--beta-db", "0:10:10", "--trials", "500", "--seed", "2",
                "-o", str(out)]) == 0
    curves, config = read_curves_csv(out)
    assert len(curves) == 2
    assert "ppp" in config["source"] and "grid" in config["source"]


def test_cli_bound_row_count(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["bound", "--kind", "both", "--lambda-p", "3", "--d", "0.5",
                "--beta-db", "10:1:20", "--n-r", "32", "--n-theta", "64",
                "--n-upsilon", "64", "-o", str(out)]) == 0
    curves, config = read_curves_csv(out)
    labels = {c.label for c in curves}
    assert labels == {"theorem1", "proposition1"}
    assert all(len(c) == 11 for c in curves)
    assert config["kind"] == "both"


def test_cli_bound_rerun_bit_identical(tmp_path):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    args = ["bound", "--kind", "proposition1", "--lambda-p", "2", "--d", "0.4",
            "--beta-db", "0:5:10", "--n-r", "32", "--n-theta", "64",
            "--n-upsilon", "64"]
    assert run(args + ["-o", str(out1)]) == 0
    assert run(["bound", "--config", str(out1), "-o", str(out2)]) == 0
    assert numeric_lines(out1) == numeric_lines(out2)


def test_cli_bound_config_ignores_tail_tol(tmp_path):
    # configs written before the far field went closed form carry tail_tol, and
    # older bound configs r_max
    args = ["bound", "--kind", "proposition1", "--lambda-p", "2", "--d", "0.4",
            "--beta-db", "0:5:10", "--n-r", "16", "--n-theta", "32", "--n-upsilon", "32"]
    fresh = tmp_path / "fresh.csv"
    assert run(args + ["-o", str(fresh)]) == 0
    old = tmp_path / "old.csv"
    old.write_text("# tail_tol=0.001\n# r_max=1e100\n" + fresh.read_text())
    rerun = tmp_path / "rerun.csv"
    assert run(["bound", "--config", str(old), "-o", str(rerun)]) == 0
    assert numeric_lines(rerun) == numeric_lines(fresh)
    assert "tail_tol" not in read_config(rerun) and "r_max" not in read_config(rerun)


def test_cli_bound_tail_tol_flag_is_gone(capsys):
    assert run(["bound", "--lambda-p", "2", "--d", "0.4", "--tail-tol", "1e-3"]) == 2


def test_cli_bound_bad_config_kind_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("lambda_p=3\nd=0.5\nkind=foo\n")
    assert run(["bound", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "kind" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--source", "ppp:lambda_p=inf", "--window", "6x6", "--trials", "1"],
    ["simulate", "--source", "ppp", "--lambda-p", "inf", "--trials", "1"],
    ["simulate", "--source", "mhc:lambda_p=2,d=nan", "--window", "6x6", "--trials", "1"],
    ["simulate", "--source", "ppp:lambda_p=1", "--window", "6x6", "--trials", "1",
     "--sigma2", "inf"],
    ["simulate", "--source", "ppp:lambda_p=1", "--window", "6x6", "--trials", "1",
     "--alpha", "inf"],
    ["simulate", "--source", "ppp:lambda_p=1", "--window", "6x6", "--trials", "1",
     "--p-t", "inf"],
    ["simulate", "--source", "grid:n=4,margin=nan", "--window", "6x6", "--trials", "1"],
    ["simulate", "--source", "ppp:lambda_p=1", "--window", "infx5", "--trials", "1"],
    ["bound", "--lambda-p", "inf", "--d", "0.5"],
    ["bound", "--lambda-p", "3", "--d", "nan"],
    ["sample", "mhc", "--lambda-p", "3", "--d", "inf", "--window", "6x6"],
    ["simulate", "--source", "ppp:lambda_p=1,window=20x20", "--beta-db", "nan:1:5"],
    ["simulate", "--source", "ppp:lambda_p=1,window=20x20", "--beta-db", "0:1:inf"],
    ["simulate", "--source", "ppp:lambda_p=1,window=20x20", "--beta-db", "0,nan,5"],
    ["bound", "--lambda-p", "3", "--d", "0.5", "--beta-db=-inf,0"],
    ["fit", "--target", str(GOLDEN_CURVE), "--lambda-p-grid", "nan:1:5", "--d-grid", "0.4"],
])
def test_cli_non_finite_parameter_is_a_usage_error(argv, capsys):
    assert run(argv + ["--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ["bound", "--lambda-p", "1e300", "--d", "1e5", "--beta-db", "0"],
    ["simulate", "--source", "mhc:lambda_p=1e300,d=1e5", "--trials", "1"],
])
def test_cli_underflowing_retained_density_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "underflows" in err


@pytest.mark.parametrize("argv, message", [
    # t = lambda_p pi d^2 is inf, so the retained density is 0
    (["simulate", "--source", "mhc", "--lambda-p", "3", "--d", "1e200", "--trials", "5",
      "--threads", "1"], "underflows"),
    (["validate", "void", "--lambda-p", "3", "--d", "1e200", "--r", "1"], "underflows"),
    (["bound", "--lambda-p", "3", "--d", "1e200"], "underflows"),
    # the series branch of rho2 scales by lambda_p^2
    (["bound", "--lambda-p", "1e200", "--d", "1e-102", "--beta-db", "0"], "lambda_p^2"),
    # a window whose area rounds to 0
    (["sample", "grid", "--n", "4", "--window", "1e-300x1e-300"], "area"),
    (["simulate", "--source", "grid", "--n", "4", "--window", "1e-300x1e-300", "--trials",
      "5", "--threads", "1"], "area"),
    (["sample", "ppp", "--lambda-p", "1", "--window", "1e-300x1e-300"], "area"),
    # bins of half-width 0.02 d whose normalizing area rounds to 0
    (["validate", "rho2", "--lambda-p", "1", "--d", "1e-170"], "bin area"),
    # the area is positive, but area / n, the squared lattice spacing, rounds to 0
    (["sample", "grid", "--n", "1000", "--window", "1e-161x1e-161"], "spacing"),
    (["simulate", "--source", "grid", "--n", "1000", "--window", "1e-161x1e-161",
      "--trials", "5", "--threads", "1"], "spacing"),
    # 10^(beta/10) overflows from about 3082.5 dB
    (["simulate", "--source", "ppp", "--lambda-p", "1", "--beta-db", "4000", "--trials", "10",
      "--threads", "1"], "beta_db"),
    (["bound", "--lambda-p", "3", "--d", "0.5", "--beta-db", "4000"], "beta_db"),
    (["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
      "--beta-db", "4000"], "beta_db"),
    # station gains up to R_MIN_KM^-alpha, and (r_max + 2d)^(alpha + 1), overflow
    (["simulate", "--source", "ppp", "--lambda-p", "1", "--alpha", "700", "--beta-db", "0",
      "--trials", "10", "--threads", "1"], "alpha 700"),
    (["bound", "--lambda-p", "3", "--d", "0.5", "--alpha", "600"], "alpha 600"),
    (["bound", "--lambda-p", "3", "--d", "0.5", "--alpha", "52", "--with-sim", "--trials", "10"],
     "alpha 52"),
])
def test_cli_overflowing_or_underflowing_scale_is_a_usage_error(argv, message, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_cli_validate_rho2_passes_where_squared_densities_underflow(capsys):
    # pair densities near 1e-213: their squares, and so a spread taken over
    # densities rather than counts, underflow to 0
    assert run(["validate", "rho2", "--lambda-p", "1e-106", "--d", "1e53", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("PASS rho2: worst |z| = ")
    assert all(float(row.split(",")[4]) <= 3.0 for row in lines[1:-1])


@pytest.mark.parametrize("argv", [
    # 5/sqrt(pi lambda_m) is about 2.8e154: (r + 2d)^2 + r^2 overflows
    ["bound", "--lambda-p", "1e-308", "--d", "0.5"],
    # r^alpha overflows, and the noise factor would compute 0 * inf
    ["bound", "--lambda-p", "1e-200", "--d", "0.5", "--sigma2", "0"],
])
def test_cli_bound_overflowing_serving_distance_range_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err


@pytest.mark.parametrize("factor", ["0", "-1", "nan", "inf"])
def test_cli_bound_bad_quad_scale_is_a_usage_error(factor, capsys):
    # no such flag: doubling --n-r, --n-theta and --n-upsilon refines every grid
    assert run(["bound", "--lambda-p", "3", "--d", "0.5", f"--quad-scale={factor}"]) == 2
    assert "unrecognized arguments: --quad-scale" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bound", "--lambda-p", "3", "--d", "0.5", "--quad-scale", "2"],
    ["bound", "--lambda-p", "3", "--d", "0.5", "--n-theta", "2049"],
    ["bound", "--lambda-p", "3", "--d", "0.5", "--n-theta", "1e3"],
    ["bound", "--kind", "both3"],
    ["validate", "rho2"],
    ["nosuch"],
    [],
    ["bound", "--lambda-p", "3", "--d", "0.5", "--r-max", "1e200"],
    # squared distances across this window would overflow
    ["simulate", "--source", "grid:n=4", "--window", "1e200x1e200", "--trials", "10"],
    # the rho2 bin areas, torus area * 2 pi u * 2h, would overflow
    ["validate", "rho2", "--lambda-p", "1", "--d", "1e100"],
    ["validate", "rho2", "--lambda-p", "1e-300", "--d", "1e8"],
    # r must be finite: an infinite one would size an infinite torus
    ["validate", "void", "--lambda-p", "1", "--d", "0.5", "--r", "inf"],
    ["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.5", "--r", "inf"],
])
def test_cli_usage_error_is_one_error_line(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_help_is_unchanged_by_the_one_line_errors(capsys):
    assert run(["bound", "--help"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: stochgeo bound") and out.err == ""


@pytest.mark.filterwarnings("ignore")
def test_cli_empty_realizations_do_not_abort_the_run():
    assert run(["simulate", "--source", "ppp:lambda_p=0.05,window=4x4", "--beta-db", "0",
                "--trials", "50", "--seed", "1", "--threads", "1"]) == 0


def test_cli_bound_with_sim_gap_column(tmp_path, capsys):
    out = tmp_path / "bs.csv"
    assert run(["bound", "--kind", "proposition1", "--lambda-p", "2",
                "--d", "0.4", "--beta-db", "0:5:10", "--n-r", "24",
                "--n-theta", "64", "--n-upsilon", "64", "--with-sim",
                "--trials", "2000", "--seed", "5", "-o", str(out)]) == 0
    assert "mean |simulated - proposition1|" in capsys.readouterr().out
    header = numeric_lines(out)[0].strip()
    assert header == "beta_db,p_c,std_err,label,gap_to_sim"
    curves, _ = read_curves_csv(out)
    assert {c.label for c in curves} == {"proposition1", "simulated"}
    # with-sim reruns from the embedded config, gap column included
    out2 = tmp_path / "bs2.csv"
    assert run(["bound", "--config", str(out), "-o", str(out2)]) == 0
    assert numeric_lines(out) == numeric_lines(out2)


def test_cli_validate_void_passes(capsys):
    code = run(["validate", "void", "--lambda-p", "1", "--d", "0.5",
                "--r", "0.5", "--realizations", "400", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS void" in out


@pytest.mark.parametrize("argv", [
    ["--lambda-p", "1", "--d", "0.5", "--r", "1e-320", "--realizations", "40"],
    ["--lambda-p", "1e-9", "--d", "0.5", "--r", "0.5", "--realizations", "40"],
])
def test_cli_validate_void_scores_a_unanimous_share_against_the_reference(argv, capsys):
    # every realization agrees, so the share's own binomial SE is 0
    assert run(["validate", "void", *argv]) == 0
    assert capsys.readouterr().out == ("PASS void: empirical=1.0000 +-0.0000, "
                                       "reference=1.0000, z=0.00\n")


def test_cli_validate_pgfl_ppp_limit(capsys):
    code = run(["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.001",
                "--r", "0.3", "--beta-db", "0", "--realizations", "400",
                "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS pgfl-bound" in out


def test_cli_fit_single_candidate(tmp_path, capsys):
    target = tmp_path / "target.csv"
    assert run(["simulate", "--source", "mhc", "--lambda-p", "2", "--d", "0.4",
                "--beta-db", "0:5:10", "--trials", "1500", "--seed", "3",
                "-o", str(target)]) == 0
    table = tmp_path / "table.csv"
    code = run(["fit", "--target", str(target), "--lambda-p-grid", "2",
                "--d-grid", "0.4", "--trials", "800", "--seed", "9",
                "--window", "18x18", "-o", str(table)])
    out = capsys.readouterr().out
    assert code == 0
    assert "best lambda_p=2 d=0.4" in out
    assert table.read_text().startswith("lambda_p,d,mse")


def test_cli_fit_empty_grid(capsys, tmp_path):
    target = tmp_path / "t.csv"
    run(["simulate", "--source", "ppp", "--lambda-p", "1", "--beta-db", "0",
         "--trials", "200", "--seed", "1", "-o", str(target)])
    code = run(["fit", "--target", str(target), "--lambda-p-grid", "",
                "--d-grid", "0.4", "--trials", "100", "--seed", "1"])
    assert code == 2


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("STOCHGEO_SEED", "123")
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    assert run(["sample", "ppp", "--lambda-p", "1", "--window", "10x10",
                "-o", str(out1)]) == 0
    assert run(["sample", "ppp", "--lambda-p", "1", "--window", "10x10",
                "--seed", "123", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_validate_empty_space(capsys):
    code = run(["validate", "empty-space", "--lambda-p", "2", "--d", "0.1",
                "--realizations", "800", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS empty-space: KS=" in out


def test_cli_validate_rho2(capsys):
    code = run(["validate", "rho2", "--lambda-p", "1", "--d", "0.5",
                "--realizations", "300", "--seed", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "upsilon,analytic,empirical,std_err,z" in out
    assert "PASS rho2" in out


def test_cli_fit_recovers_file_deployment(tmp_path, capsys):
    # full file pathway: sample a hardcore deployment, measure its coverage,
    # fit hardcore parameters back to the measured curve
    dep = tmp_path / "dep.csv"
    assert run(["sample", "mhc", "--lambda-p", "2", "--d", "0.4",
                "--window", "18x18", "--seed", "5", "-o", str(dep)]) == 0
    target = tmp_path / "target.csv"
    assert run(["simulate",
                "--source", f"file:path={dep},window=18x18,edge=toroidal",
                "--beta-db", "0:5:15", "--trials", "8000", "--seed", "6",
                "-o", str(target)]) == 0
    capsys.readouterr()
    code = run(["fit", "--target", str(target), "--lambda-p-grid", "1,2,3",
                "--d-grid", "0.4", "--trials", "8000", "--seed", "7",
                "--window", "18x18"])
    out = capsys.readouterr().out
    assert code == 0
    assert "best lambda_p=2 d=0.4" in out


def test_read_config_from_plain_file(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("lambda_p=2\nd=0.4\nbeta_db=0:5:10\ntrials=500\nseed=8\nsource=mhc\n")
    cfg = read_config(f)
    assert cfg["lambda_p"] == "2" and cfg["source"] == "mhc"
    out = tmp_path / "from_cfg.csv"
    assert run(["simulate", "--config", str(f), "-o", str(out)]) == 0
    curves, embedded = read_curves_csv(out)
    assert embedded["trials"] == "500"


@pytest.mark.parametrize("spec", [
    "mhc:lambda_p=abc,d=0.4,window=10x10",
    "mhc:lambda_p=2,window=10x10",
    "grid:n=2.5,window=10x10",
])
def test_cli_bad_inline_source_is_a_usage_error(spec, capsys):
    code = run(["simulate", "--source", spec, "--trials", "10", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


_SOURCE_KEYS = ["lambda_p", "d", "n", "path", "window", "edge", "margin", "junk", ""]
_SOURCE_VALUES = ["abc", "", "2.5", "-1", "0", "1", "0.4", "inf", "nan"]


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["ppp", "mhc", "grid", "file", "bogus"]),
       pairs=st.lists(st.tuples(st.sampled_from(_SOURCE_KEYS), st.sampled_from(_SOURCE_VALUES)),
                      min_size=1, max_size=5))
def test_cli_fuzzed_inline_sources_never_raise(kind, pairs, tmp_path, monkeypatch):
    # no path value names an existing file in the scratch directory
    monkeypatch.chdir(tmp_path)
    spec = kind + ":" + ",".join(f"{key}={value}" for key, value in pairs)
    code = run(["simulate", "--source", spec, "--window", "6x6", "--trials", "1",
                "--beta-db", "0", "--seed", "1"])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("name", ["dep,a.csv", "dep;a.csv"])
def test_cli_simulate_rejects_a_deployment_path_its_source_line_cannot_hold(
        name, tmp_path, monkeypatch, capsys):
    # the recorded source line splits on ',' and ';', so --config could not
    # rerun such a path: simulate refuses it before any trial runs
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.coverage, "simulate_curves", None)
    assert run(["sample", "grid", "--n", "16", "--window", "10x10", "-o", name]) == 0
    capsys.readouterr()
    for source in (["--source", "file", "--file", name], ["--source", f"file:path={name}"]):
        assert run(["simulate", *source, "--window", "10x10", "--trials", "20",
                    "-o", "out.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
    assert not (tmp_path / "out.csv").exists()
    assert run(["simulate", "--config", "out.csv"]) == 1  # nothing to rerun
    assert capsys.readouterr().err.count("\n") == 1


def test_cli_validate_zero_realizations_is_a_usage_error():
    for check in ("empty-space", "rho2", "void", "pgfl-bound"):
        assert run(["validate", check, "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
                    "--realizations", "0", "--seed", "1"]) == 2


HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["simulate", "--source", "ppp:lambda_p=1,window=20x20", "--trials", HUGE],
    ["simulate", "--source", "ppp:lambda_p=1,window=20x20", "--trials", HUGE,
     "--threads", "1"],
    ["simulate", "--source", "ppp:lambda_p=1,window=20x20", "--trials", "10",
     "--threads", "-3"],
    ["bound", "--lambda-p", "3", "--d", "0.5", "--with-sim", "--trials", HUGE],
    ["bound", "--lambda-p", "3", "--d", "0.5", "--with-sim", "--threads", "-1"],
    ["fit", "--target", str(GOLDEN_CURVE), "--lambda-p-grid", "2", "--d-grid", "0.4",
     "--trials", HUGE],
    ["fit", "--target", str(GOLDEN_CURVE), "--lambda-p-grid", "2", "--d-grid", "0.4",
     "--trials", "10", "--threads", "-3"],
] + [["validate", check, "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
      "--realizations", HUGE] for check in ("empty-space", "rho2", "void", "pgfl-bound")])
def test_cli_bad_trial_or_thread_count_is_a_usage_error(argv, capsys):
    assert run(argv + ["--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_validate_zero_alpha_is_a_usage_error():
    assert run(["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
                "--alpha", "0", "--realizations", "100"]) == 2


def test_cli_bad_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("source=grid\nn_points=2.5\nwindow=10x10\ntrials=10\n")
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert "n_points" in capsys.readouterr().err


@pytest.mark.parametrize("beta_db", ["nan", "inf"])
def test_cli_validate_pgfl_non_finite_threshold_is_a_usage_error(beta_db, capsys):
    assert run(["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
                f"--beta-db={beta_db}", "--realizations", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_cli_validate_ks_tol_must_be_finite_and_positive(tol, capsys):
    assert run(["validate", "empty-space", "--lambda-p", "1", "--d", "0.5",
                "--realizations", "100", f"--ks-tol={tol}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 7.28 TiB for an array"),
     "Unable to allocate 7.28 TiB for an array"),
    (MemoryError(), "MemoryError"),
])
@pytest.mark.parametrize("module, name, argv", [
    ("bounds", "coverage_bounds", ["bound", "--lambda-p", "3", "--d", "0.5", "--beta-db", "10",
                                  "--kind", "theorem1"]),
    ("analytics", "empty_space_ks", ["validate", "empty-space", "--lambda-p", "1",
                                     "--d", "0.5"]),
])
def test_cli_out_of_memory_is_a_one_line_data_error(module, name, argv, exc, message,
                                                    monkeypatch, capsys):
    # stands in for an allocation too large for the machine, e.g. --n-theta 1e12
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(getattr(cli, module), name, boom)
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Whole-argument-list fuzz. Each command starts from safe values and argparse
# keeps a flag's last value, so a drawn value can only make a run smaller or
# invalid: at most 2 trials (no worker pool starts below 2000), at most 100
# realizations, quadrature grids of 16 to 32 nodes.
_FUZZ_VALUES = ["inf", "nan", "-1", "0", "1", "2", "0.4", "abc", "", "10x10", "1e200",
                "1e-300x1e-300"]
_FUZZ_PREFIX = {
    "sample": ["--window", "10x10", "--lambda-p", "1", "--d", "0.4", "--n", "4"],
    "simulate": ["--trials", "1", "--threads", "1", "--beta-db", "0", "--source", "mhc",
                 "--lambda-p", "1", "--d", "0.4", "--n", "4"],
    "bound": ["--trials", "1", "--threads", "1", "--n-r", "16", "--n-theta", "16",
              "--n-upsilon", "16", "--lambda-p", "1", "--d", "0.5", "--beta-db", "0"],
    "validate": ["--realizations", "100", "--lambda-p", "1", "--d", "0.5"],
    "fit": ["--trials", "1", "--threads", "1", "--target", str(GOLDEN_CURVE.resolve()),
            "--lambda-p-grid", "2", "--d-grid", "0.4"],
}
_FUZZ_PARSERS = {a.dest: a for a in cli.build_parser()._actions}["command"].choices


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_PREFIX)))
    actions = [a for a in _FUZZ_PARSERS[command]._actions if a.dest != "help"]
    argv = [command]
    for action in actions:
        if not action.option_strings:  # a positional: one of its choices, or none
            argv += draw(st.sampled_from([[c] for c in action.choices]
                                         + ([[]] if action.nargs == "?" else [])))
    argv += _FUZZ_PREFIX[command]
    for action in draw(st.lists(st.sampled_from([a for a in actions if a.option_strings]),
                                max_size=4)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            kinds = ["ppp", "mhc", "grid", "file"] if action.dest == "source" else []
            argv.append(draw(st.sampled_from(list(action.choices or kinds) + _FUZZ_VALUES)))
    return argv


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=60, deadline=None)
@given(argv=_fuzzed_argv())
def test_cli_fuzzed_argument_lists_exit_0_1_or_2(argv):
    here = os.getcwd()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        os.chdir(tmp)  # -o and --config values name files in a fresh directory
        try:
            code = main(argv)
        finally:
            os.chdir(here)
    assert code in (0, 1, 2)
    if code == 2:  # usage and parameter errors alike: one line
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Channel extremes: alpha at and past 51.4, where R_MIN_KM^-alpha overflows;
# thresholds at and past 3082.5 dB, where 10^(beta/10) overflows; noise and
# transmit powers at the ends of the floats.
CHANNEL_EXTREMES = (
    [("--alpha", v) for v in ("2.0000001", "51", "52", "700")]
    + [("--beta-db", v) for v in ("-4000", "3079", "3082", "3083", "4000")]
    + [("--sigma2", v) for v in ("0", "1e-300", "1e300")]
    + [("--p-t", v) for v in ("5e-324", "1e300")]
)
EXTREME_COMMANDS = {
    "sample": ["sample", "ppp", "--lambda-p", "1", "--window", "4x4"],
    "simulate": ["simulate", "--source", "ppp:lambda_p=1,window=10x10", "--beta-db", "0",
                 "--trials", "10", "--threads", "1"],
    "bound": ["bound", "--lambda-p", "3", "--d", "0.5", "--beta-db", "0", "--n-r", "16",
              "--n-theta", "16", "--n-upsilon", "16"],
    "validate": ["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
                 "--realizations", "100"],
    "fit": ["fit", "--target", str(GOLDEN_CURVE), "--lambda-p-grid", "2", "--d-grid", "0.4",
            "--window", "10x10", "--trials", "10", "--threads", "1"],
}


@pytest.mark.parametrize("command", list(EXTREME_COMMANDS))
@pytest.mark.parametrize("flag, value", CHANNEL_EXTREMES)
def test_cli_channel_extremes_end_cleanly(command, flag, value, capsys):
    # a subcommand without the flag ends in a usage error, like any other
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(EXTREME_COMMANDS[command] + [f"{flag}={value}", "--seed", "1"])
    out, err = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not re.search(r"\bnan\b", out, re.IGNORECASE)
    if rc == 0 or (rc == 1 and out.startswith("FAIL pgfl-bound")):
        assert err == ""
    else:
        assert rc in (1, 2) and err.startswith("error: ") and err.count("\n") == 1
