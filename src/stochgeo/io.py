"""CSV emission and parsing for point sets, coverage curves, and configs.

Formats:
  points: comment lines `# key=value`, header `x_km,y_km`, one point per row.
  curves: comment lines `# key=value`, header `beta_db,p_c,std_err,label`
          (plus an optional trailing `gap_to_sim` column), rows per threshold.
Floats are written with repr precision so a reread reproduces them bit for
bit; embedded config lines let any output be rerun exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .coverage import CoverageCurve
from .errors import DataError
from .pointprocess import PointSet


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def config_lines(config: dict[str, str]) -> list[str]:
    return [f"# {key}={value}" for key, value in config.items()]


def parse_kv_comments(lines) -> dict[str, str]:
    """Collect `key=value` pairs from comment lines (and bare key=value
    lines, so plain config files parse with the same routine)."""
    out = {}
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            line = line[1:].strip()
        if "=" not in line or "," in line.split("=", 1)[0]:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key.isidentifier():
            out[key] = value.strip()
    return out


def read_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_comments(fh)


def points_csv_text(point_set: PointSet, config: dict[str, str] | None = None) -> str:
    """A points CSV as text: provenance, seed and window comment lines, then
    `config`, then the `x_km,y_km` rows."""
    meta = {"provenance": point_set.label}
    if point_set.seed is not None:
        meta["seed"] = str(point_set.seed)
    win = point_set.window
    meta["window"] = f"{fmt(win.width)}x{fmt(win.height)}"
    meta["edge"] = win.edge
    if win.margin:
        meta["margin"] = fmt(win.margin)
    if config:
        meta.update(config)
    lines = config_lines(meta)
    lines.append("x_km,y_km")
    for x, y in point_set.points:
        lines.append(f"{fmt(x)},{fmt(y)}")
    return "\n".join(lines) + "\n"


def curves_csv_text(curves, config: dict[str, str] | None = None,
                    gaps: dict[str, np.ndarray] | None = None) -> str:
    """One or more labeled curves as CSV text; `gaps` adds a per-row
    gap_to_sim column for the labels it covers."""
    lines = config_lines(config or {})
    header = "beta_db,p_c,std_err,label"
    if gaps:
        header += ",gap_to_sim"
    lines.append(header)
    for curve in curves:
        gap = (gaps or {}).get(curve.label)
        for i, beta in enumerate(curve.beta_db):
            se = "" if curve.std_err is None else fmt(curve.std_err[i])
            row = f"{fmt(beta)},{fmt(curve.p_c[i])},{se},{curve.label}"
            if gaps:
                row += "," + ("" if gap is None else fmt(gap[i]))
            lines.append(row)
    return "\n".join(lines) + "\n"


def write_points_csv(path, point_set: PointSet, config: dict[str, str] | None = None):
    Path(path).write_text(points_csv_text(point_set, config), encoding="utf-8")


def write_curves_csv(path, curves, config: dict[str, str] | None = None,
                     gaps: dict[str, np.ndarray] | None = None):
    Path(path).write_text(curves_csv_text(curves, config, gaps), encoding="utf-8")


def read_curves_csv(path) -> tuple[list[CoverageCurve], dict[str, str]]:
    """Parse a curves CSV back into CoverageCurve objects plus the embedded
    config. Curves keep file order. A new curve starts wherever the label
    differs from the previous row's or beta_db stops increasing, so two
    curves that share a label stay apart. Labels are written unquoted and
    may hold commas, so a row's label is everything between std_err and the
    trailing columns the header declares after `label`; those columns are
    ignored."""
    config = {}
    runs: list[tuple[str, list[tuple[float, float, float | None]]]] = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                config.update(parse_kv_comments([line]))
                continue
            if not header_seen:
                cols = [c.strip() for c in line.split(",")]
                if cols[:4] != ["beta_db", "p_c", "std_err", "label"]:
                    raise DataError(f"line {lineno}: expected curve header, got {line!r}")
                n_cols = len(cols)
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) < n_cols:
                raise DataError(f"line {lineno}: expected at least {n_cols} columns")
            try:
                beta = float(parts[0])
                p = float(parts[1])
                se = float(parts[2]) if parts[2] != "" else None
            except ValueError:
                raise DataError(f"line {lineno}: could not parse curve row {line!r}")
            label = ",".join(parts[3:len(parts) - (n_cols - 4)])
            if not runs or runs[-1][0] != label or beta <= runs[-1][1][-1][0]:
                runs.append((label, []))
            runs[-1][1].append((beta, p, se))
    if not runs:
        raise DataError(f"{path}: no curve rows found")
    curves = []
    for label, rows in runs:
        beta = np.array([r[0] for r in rows])
        p = np.array([r[1] for r in rows])
        ses = [r[2] for r in rows]
        se = None if all(s is None for s in ses) else np.array(
            [np.nan if s is None else s for s in ses])
        curves.append(CoverageCurve(beta, p, se, label))
    return curves, config
