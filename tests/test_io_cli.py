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

from stochgeo import (
    CoverageCurve,
    DataError,
    MhcParams,
    PointSet,
    Window,
    cli,
    load_deployment,
    mhc_density,
)
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
        "sigma2", "p_t", "beta_db", "trials", "seed", "kind", "n_r", "n_upsilon", "with_sim"]


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
    # kappa overflows, but lambda_m = 1/(pi d^2) = 3.2e-11 does not
    ["--source", "mhc:lambda_p=1e300,d=1e5"],
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
                "--beta-db", "10:1:20", "--n-r", "32", "--n-upsilon", "64",
                "-o", str(out)]) == 0
    curves, config = read_curves_csv(out)
    labels = {c.label for c in curves}
    assert labels == {"theorem1", "proposition1"}
    assert all(len(c) == 11 for c in curves)
    assert config["kind"] == "both"


def test_cli_bound_rerun_bit_identical(tmp_path):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    args = ["bound", "--kind", "proposition1", "--lambda-p", "2", "--d", "0.4",
            "--beta-db", "0:5:10", "--n-r", "32", "--n-upsilon", "64"]
    assert run(args + ["-o", str(out1)]) == 0
    assert run(["bound", "--config", str(out1), "-o", str(out2)]) == 0
    assert numeric_lines(out1) == numeric_lines(out2)


def test_cli_bound_config_ignores_tail_tol(tmp_path):
    # configs written before the far field went closed form carry tail_tol, older
    # bound configs r_max, and those before the angular rule was fixed n_theta
    args = ["bound", "--kind", "proposition1", "--lambda-p", "2", "--d", "0.4",
            "--beta-db", "0:5:10", "--n-r", "16", "--n-upsilon", "32"]
    fresh = tmp_path / "fresh.csv"
    assert run(args + ["-o", str(fresh)]) == 0
    old = tmp_path / "old.csv"
    old.write_text("# tail_tol=0.001\n# r_max=1e100\n# n_theta=32\n" + fresh.read_text())
    rerun = tmp_path / "rerun.csv"
    assert run(["bound", "--config", str(old), "-o", str(rerun)]) == 0
    assert numeric_lines(rerun) == numeric_lines(fresh)
    assert not {"tail_tol", "r_max", "n_theta"} & set(read_config(rerun))


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


@pytest.mark.parametrize("argv, message", [
    # t = lambda_p pi d^2 is inf, so the retained density is 0
    (["simulate", "--source", "mhc", "--lambda-p", "3", "--d", "1e200", "--trials", "5",
      "--threads", "1"], "underflows"),
    (["validate", "void", "--lambda-p", "3", "--d", "1e200", "--r", "1"], "underflows"),
    # a window whose area rounds to 0
    pytest.param(["sample", "grid", "--n", "4", "--window", "1e-300x1e-300"], "area",
                 id="argv4-area"),
    pytest.param(["simulate", "--source", "grid", "--n", "4", "--window", "1e-300x1e-300",
                  "--trials", "5", "--threads", "1"], "area", id="argv5-area"),
    pytest.param(["sample", "ppp", "--lambda-p", "1", "--window", "1e-300x1e-300"], "area",
                 id="argv6-area"),
    # bins of half-width 0.02 d whose normalizing area rounds to 0
    pytest.param(["validate", "rho2", "--lambda-p", "1", "--d", "1e-170"], "bin area",
                 id="argv7-bin area"),
    # the area is positive, but area / n, the squared lattice spacing, rounds to 0
    pytest.param(["sample", "grid", "--n", "1000", "--window", "1e-161x1e-161"], "spacing",
                 id="argv8-spacing"),
    pytest.param(["simulate", "--source", "grid", "--n", "1000", "--window", "1e-161x1e-161",
                  "--trials", "5", "--threads", "1"], "spacing", id="argv9-spacing"),
    # 10^(beta/10) overflows from about 3082.5 dB
    pytest.param(["simulate", "--source", "ppp", "--lambda-p", "1", "--beta-db", "4000",
                  "--trials", "10", "--threads", "1"], "beta_db", id="argv10-beta_db"),
    pytest.param(["bound", "--lambda-p", "3", "--d", "0.5", "--beta-db", "4000"], "beta_db",
                 id="argv11-beta_db"),
    pytest.param(["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
                  "--beta-db", "4000"], "beta_db", id="argv12-beta_db"),
    # station gains up to R_MIN_KM^-alpha overflow
    pytest.param(["simulate", "--source", "ppp", "--lambda-p", "1", "--alpha", "700",
                  "--beta-db", "0", "--trials", "10", "--threads", "1"], "alpha 700",
                 id="argv13-alpha 700"),
    pytest.param(["bound", "--lambda-p", "3", "--d", "0.5", "--alpha", "52", "--with-sim",
                  "--trials", "10"], "alpha 52", id="argv15-alpha 52"),
])
def test_cli_overflowing_or_underflowing_scale_is_a_usage_error(argv, message, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


SMALL_QUAD = ["--n-r", "16", "--n-upsilon", "16"]


def bound_p_c(argv, capsys):
    """Every p_c of one `bound` run on small grids, which must end cleanly: exit 0,
    nothing on stderr, no RuntimeWarning, and finite values in [0, 1]."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["bound", *SMALL_QUAD, *argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line for line in out.splitlines() if not line.startswith("#")][1:]
    p_c = np.array([float(row.split(",")[1]) for row in rows])
    assert p_c.size and np.all((p_c >= 0.0) & (p_c <= 1.0))
    return p_c


# The bound depends on (lambda_p, d, sigma2) only through kappa = lambda_p pi d^2
# and the noise at the mean spacing, sigma2 lambda_m^(-alpha/2); its limits are
# MHC(1, 0) where kappa is negligible, the saturated MHC(1e3, 1/sqrt(pi)) (e^-kappa
# is 0) where kappa is huge, each with lambda_m = 1 and that noise, and coverage 0
# where that noise is past 1e19: the noise factor is then 0 at every positive
# serving distance of the grid.
@pytest.mark.parametrize("argv, limit", [
    # the retained density is 3e-11, 3e-401 and 1e-308 (in logs): saturated or not, the
    # noise at the mean spacing is 1e19 or more
    pytest.param(["--lambda-p", "1e300", "--d", "1e5", "--beta-db", "0"], None,
                 id="underflowing-density"),
    pytest.param(["--lambda-p", "3", "--d", "1e200"], None, id="d-1e200"),
    pytest.param(["--lambda-p", "1e-308", "--d", "0.5"], None, id="serving-range-1e154"),
    # the plane rescaled by 1e-100 is MHC(1, 0.01), and its noise 1e-401 is 0
    pytest.param(["--lambda-p", "1e200", "--d", "1e-102", "--beta-db", "0"],
                 ["--lambda-p", "1", "--d", "0.01", "--sigma2", "0", "--beta-db", "0"],
                 id="series-lambda_p-1e200"),
    # kappa = 8e-201: the zero-distance curve
    pytest.param(["--lambda-p", "1e-200", "--d", "0.5", "--sigma2", "0"],
                 ["--lambda-p", "1", "--d", "0", "--sigma2", "0"], id="noise-free-1e-200"),
])
def test_cli_bound_answers_at_scales_its_km_guards_rejected(argv, limit, capsys):
    p_c = bound_p_c(argv, capsys)
    want = np.zeros_like(p_c) if limit is None else bound_p_c(limit, capsys)
    assert np.allclose(p_c, want, rtol=1e-9, atol=0.0)
    if limit is not None:  # a curve, not the zero one
        assert np.all(p_c > 0.0)


def test_cli_bound_answers_at_alpha_600(capsys):
    # the noise factor exp(-beta sigma2 r^alpha) at alpha = 600 is a step at
    # r* = (beta sigma2)^(-1/alpha); at -10 dB interference is negligible and
    # coverage tends to the contact law's P(r < r*) = 1 - exp(-pi lambda_m r*^2),
    # within the default r grid's resolution of the step
    p_c = bound_p_c(["--lambda-p", "3", "--d", "0.5", "--alpha", "600", "--beta-db=-10,0,10,30",
                     "--n-r", "128", "--n-upsilon", "256"], capsys)
    assert np.allclose(p_c, [0.9738447462120909, 0.9724709959105537, 0.965526276648959,
                             0.9215210499636108, 0.9738471849917404, 0.9726554219155039,
                             0.9689497128820077, 0.9575948883223853], rtol=1e-9, atol=0.0)
    r_star = (0.1 * 0.1) ** (-1.0 / 600.0)
    step = 1.0 - math.exp(-math.pi * mhc_density(MhcParams(3.0, 0.5)) * r_star * r_star)
    assert abs(p_c[0] - step) < 2e-3 and abs(p_c[4] - step) < 2e-3


SWEEP_LAMBDA_P = [1e-300, 1e-100, 1.0, 1e100, 1e300]
SWEEP_D = [0.0, 1e-300, 1e-100, 1.0, 1e100, 1e300]


def test_cli_bound_answers_across_the_floats(capsys):
    # every kappa here is 0, at most 3e-100 or at least 3e100, except at (1, 1)
    beta_db = ["--beta-db=-10,10,30"]
    for lambda_p in SWEEP_LAMBDA_P:
        for d in SWEEP_D:
            p_c = bound_p_c(["--lambda-p", repr(lambda_p), "--d", repr(d), *beta_db], capsys)
            kappa = lambda_p * math.pi * d * d
            if 1e-90 < kappa < 1e90:
                continue
            # log lambda_m: lambda_p where kappa is negligible, 1/(pi d^2) where it is huge
            log_lam = math.log(lambda_p) if kappa < 1.0 else -math.log(math.pi) - 2 * math.log(d)
            log_noise = math.log(0.1) - 2.0 * log_lam  # sigma2 = 0.1 and alpha = 4
            if log_noise > math.log(1e19):
                want = np.zeros_like(p_c)
            else:
                limit = ["--d", "0"] if kappa < 1.0 else ["--d", repr(1.0 / math.sqrt(math.pi))]
                want = bound_p_c(["--lambda-p", "1" if kappa < 1.0 else "1e3", *limit,
                                  "--sigma2", repr(math.exp(log_noise)), *beta_db], capsys)
            assert np.allclose(p_c, want, rtol=1e-9, atol=0.0), (lambda_p, d)


def test_cli_validate_rho2_passes_where_squared_densities_underflow(capsys):
    # pair densities near 1e-213: their squares, and so a spread taken over
    # densities rather than counts, underflow to 0
    assert run(["validate", "rho2", "--lambda-p", "1e-106", "--d", "1e53", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("PASS rho2: worst |z| = ")
    assert all(float(row.split(",")[4]) <= 3.0 for row in lines[1:-1])


def test_cli_validate_rho2_table_keeps_its_digits_at_every_scale(capsys):
    # the separations span (1e-100, 2e-100): printed to fixed decimals they all read 0
    assert run(["validate", "rho2", "--lambda-p", "1", "--d", "1e-100",
                "--realizations", "20"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    upsilon = [float(row.split(",")[0]) for row in rows]
    assert len(set(upsilon)) == len(rows) == 10 and all(1e-100 < u < 2e-100 for u in upsilon)


# (argv, a substring of the error line or None)
USAGE_ERRORS = [
    (["bound", "--lambda-p", "3", "--d", "0.5", "--quad-scale", "2"], None),
    # the angular rule is fixed at its converged 10 nodes: --n-theta is gone in
    # every spelling and for every value, in range or not
    (["bound", "--lambda-p", "3", "--d", "0.5", "--n-theta", "16"],
     "unrecognized arguments: --n-theta"),
    (["bound", "--lambda-p", "3", "--d", "0.5", "--n-theta=7"],
     "unrecognized arguments: --n-theta=7"),
    (["bound", "--lambda-p", "3", "--d", "0.5", "--n-theta", "1e3"],
     "unrecognized arguments: --n-theta 1e3"),
    (["bound", "--kind", "both3"], None),
    (["validate", "rho2"], None),
    (["nosuch"], None),
    ([], None),
    (["bound", "--lambda-p", "3", "--d", "0.5", "--r-max", "1e200"], None),
    # squared distances across this window would overflow
    (["simulate", "--source", "grid:n=4", "--window", "1e200x1e200", "--trials", "10"], None),
    # the rho2 bin areas, torus area * 2 pi u * 2h, would overflow
    (["validate", "rho2", "--lambda-p", "1", "--d", "1e100"], None),
    (["validate", "rho2", "--lambda-p", "1e-300", "--d", "1e8"], None),
    # r must be finite: an infinite one would size an infinite torus
    (["validate", "void", "--lambda-p", "1", "--d", "0.5", "--r", "inf"], None),
    (["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.5", "--r", "inf"], None),
    # flags that are gone: the far field has no tail cut, and doubling --n-r
    # and --n-upsilon refines every grid
    (["bound", "--lambda-p", "2", "--d", "0.4", "--tail-tol", "1e-3"],
     "unrecognized arguments: --tail-tol"),
    *[(["bound", "--lambda-p", "3", "--d", "0.5", f"--quad-scale={factor}"],
       "unrecognized arguments: --quad-scale") for factor in ["0", "-1", "nan", "inf"]],
    # the user gives no separations: rho2 builds them in (d, 2d)
    (["validate", "rho2", "--lambda-p", "1", "--d", "0"], "--d must be > 0"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_cli_usage_error_is_one_error_line(argv, message, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message is None or message in err


# (argv with one required input missing, the flag the error names)
MISSING_INPUTS = [
    (["sample", "--window", "10x10"], "process"),
    (["simulate", "--trials", "1"], "--source"),
    (["bound", "--d", "0.5"], "--lambda-p"),
    (["bound", "--lambda-p", "3"], "--d"),
    (["validate", "void", "--d", "0.5", "--r", "1"], "--lambda-p"),
    (["validate", "empty-space", "--lambda-p", "1"], "--d"),
    (["fit", "--lambda-p-grid", "2", "--d-grid", "0.4"], "--target"),
    (["fit", "--target", str(GOLDEN_CURVE), "--d-grid", "0.4"], "--lambda-p-grid"),
    (["fit", "--target", str(GOLDEN_CURVE), "--lambda-p-grid", "2"], "--d-grid"),
]


@pytest.mark.parametrize("argv, flag", MISSING_INPUTS)
def test_cli_missing_required_input_names_its_flag(argv, flag, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} is required\n"


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
                "--n-upsilon", "64", "--with-sim",
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


def test_cli_validate_pgfl_fails_for_the_hardcore_process(capsys):
    # MHC(1, 0.3) at 0 dB: lhs - rhs = -0.0085 against a paired SE of 0.0015
    # (z = -5.8). The old unpaired slack, 3 hypot(lhs_se, rhs_se) = 0.035, let it pass
    assert run(["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
                "--seed", "0"]) == 1
    assert capsys.readouterr().out == "FAIL pgfl-bound: lhs=0.7452+-0.0087 rhs=0.7537+-0.0077\n"


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


def test_env_seed_default(tmp_path, monkeypatch, capsys):
    # the seed's precedence: --seed, then --config, then $STOCHGEO_SEED, then 0
    sample = ["sample", "ppp", "--lambda-p", "1", "--window", "10x10"]
    (tmp_path / "seed.cfg").write_text("seed=7\n")

    def seed_of(*argv):
        out = tmp_path / "out.csv"
        assert run([*sample, *argv, "-o", str(out)]) == 0
        return read_config(out)["seed"]

    assert seed_of() == "0"
    monkeypatch.setenv("STOCHGEO_SEED", "123")
    assert seed_of() == "123"
    assert seed_of("--seed", "5") == "5"
    assert seed_of("--config", str(tmp_path / "seed.cfg")) == "7"
    assert seed_of("--config", str(tmp_path / "seed.cfg"), "--seed", "5") == "5"
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    assert run([*sample, "-o", str(out1)]) == 0
    assert run([*sample, "--seed", "123", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    # a bad STOCHGEO_SEED is a usage error only where the seed is read
    monkeypatch.setenv("STOCHGEO_SEED", "12x")
    assert run(sample) == 2
    assert capsys.readouterr().err == "error: bad seed value '12x' in STOCHGEO_SEED\n"
    assert seed_of("--seed", "5") == "5"


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
    # stands in for an allocation too large for the machine, e.g. --n-upsilon 1e12
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
    "bound": ["--trials", "1", "--threads", "1", "--n-r", "16", "--n-upsilon", "16",
              "--lambda-p", "1", "--d", "0.5", "--beta-db", "0"],
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
              "--n-upsilon", "16"],
    "validate": ["validate", "pgfl-bound", "--lambda-p", "1", "--d", "0.3", "--r", "0.3",
                 "--realizations", "100"],
    "fit": ["fit", "--target", str(GOLDEN_CURVE), "--lambda-p-grid", "2", "--d-grid", "0.4",
            "--window", "10x10", "--trials", "10", "--threads", "1"],
}


def assert_ends_cleanly(argv, capsys):
    """One run ends cleanly: exit 0; or a failed check's FAIL line (exit 1);
    or one `error:` line (exit 1 or 2). Never a traceback or a RuntimeWarning,
    and no NaN or inf in a data row."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(argv)
    out, err = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert not [row for row in rows if re.search(r"\b(nan|inf)\b", row, re.IGNORECASE)], argv
    if rc == 0 or (rc == 1 and "\nFAIL " in "\n" + out):
        assert err == "", argv
    else:
        assert rc in (1, 2) and err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize("command", list(EXTREME_COMMANDS))
@pytest.mark.parametrize("flag, value", CHANNEL_EXTREMES)
def test_cli_channel_extremes_end_cleanly(command, flag, value, capsys):
    # a subcommand without the flag ends in a usage error, like any other
    assert_ends_cleanly(EXTREME_COMMANDS[command] + [f"{flag}={value}", "--seed", "1"], capsys)


# Hardcore parameters across the floats, on every command that draws MHC
# realizations; each runs at every (lambda_p, d) in SWEEP_LAMBDA_P x SWEEP_D.
HARDCORE_COMMANDS = {
    "simulate": ["simulate", "--source", "mhc", "--beta-db", "0", "--trials", "2",
                 "--threads", "1"],
    "sample": ["sample", "mhc", "--window", "4x4"],
    **{check: ["validate", check, "--r", "1", "--realizations", "20"]
       for check in ("empty-space", "rho2", "void")},
    "pgfl-bound": ["validate", "pgfl-bound", "--r", "1", "--realizations", "100"],
}


@pytest.mark.parametrize("command", list(HARDCORE_COMMANDS))
def test_cli_hardcore_parameters_across_the_floats_end_cleanly(command, capsys):
    for lambda_p in SWEEP_LAMBDA_P:
        for d in SWEEP_D:
            assert_ends_cleanly(HARDCORE_COMMANDS[command] + [
                "--lambda-p", repr(lambda_p), "--d", repr(d), "--seed", "1"], capsys)


# Windows across the floats for the fixed and Poisson deployments: each side
# in SWEEP_SIDES, squared diagonals that overflow and areas that underflow included.
SWEEP_SIDES = ["1e-300", "1e-100", "1e-10", "1", "1e10", "1e100", "1e300"]
WINDOW_COMMANDS = {
    "sample-grid": ["sample", "grid", "--n", "4"],
    "simulate-grid": ["simulate", "--source", "grid", "--n", "4", "--beta-db", "0",
                      "--trials", "2", "--threads", "1"],
    "simulate-grid-guard": ["simulate", "--source", "grid", "--n", "4", "--edge", "guard",
                            "--beta-db", "0", "--trials", "2", "--threads", "1"],
    "sample-ppp": ["sample", "ppp", "--lambda-p", "1"],
    "simulate-ppp": ["simulate", "--source", "ppp", "--lambda-p", "1", "--beta-db", "0",
                     "--trials", "2", "--threads", "1"],
}


@pytest.mark.parametrize("command", list(WINDOW_COMMANDS))
def test_cli_windows_across_the_floats_end_cleanly(command, capsys):
    for width in SWEEP_SIDES:
        for height in SWEEP_SIDES:
            assert_ends_cleanly(WINDOW_COMMANDS[command] + [
                "--window", f"{width}x{height}", "--seed", "1"], capsys)
