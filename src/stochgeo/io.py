"""CSV emission and parsing for point sets, coverage curves, and configs.

Formats:
  points: comment lines `# key=value`, header `x_km,y_km`, one point per row;
          load_deployment reads it back as a fixed deployment.
  curves: comment lines `# key=value`, header `beta_db,p_c,std_err,label`
          (plus an optional trailing `gap_to_sim` column), rows per threshold.
Floats are written with repr precision so a reread reproduces them bit for
bit; embedded config lines let any output be rerun exactly. Every reader
accepts the UTF-8 byte-order mark that spreadsheet exports often add.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .coverage import CoverageCurve
from .errors import DataError
from .pointprocess import PointSet, Window


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
        key, sep, value = raw.strip().removeprefix("#").partition("=")
        if sep and key.strip().isidentifier():
            out[key.strip()] = value.strip()
    return out


def read_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_kv_comments(fh)


def _read_table(path, header: list[str]) -> tuple[list[str], int, list[tuple[int, str]]]:
    """A CSV whose header starts with the `header` columns, as (the `#` lines
    before the header, the header's column count, each data row with its line
    number). Blank lines and later `#` lines are skipped."""
    comments, n_cols, rows = [], 0, []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or (n_cols and line.startswith("#")):
                continue
            if line.startswith("#"):
                comments.append(line)
            elif not n_cols:
                cols = [c.strip() for c in line.split(",")]
                if cols[:len(header)] != header:
                    raise DataError(f"line {lineno}: expected header "
                                    f"{','.join(header)!r}, got {line!r}")
                n_cols = len(cols)
            else:
                rows.append((lineno, line))
    return comments, n_cols, rows


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


def load_deployment(path, window: Window) -> PointSet:
    """Fixed station coordinates from a points CSV. Tokens `offset_x=<v>
    offset_y=<v> scale=<v>` on comment lines before the header declare an
    affine applied before windowing as (x + offset) * scale. Points landing
    outside the window are dropped, with the count reported via a warning."""
    comments, _, body = _read_table(path, ["x_km", "y_km"])
    tokens = parse_kv_comments(tok for line in comments for tok in line.lstrip("#").split())
    affine = {"offset_x": 0.0, "offset_y": 0.0, "scale": 1.0}
    for key in affine:
        try:
            affine[key] = float(tokens.get(key, affine[key]))
        except ValueError:
            raise DataError(f"bad affine value in header comment: {key}={tokens[key]}")
    rows = []
    for lineno, line in body:
        try:
            x, y = line.split(",")[:2]
            rows.append((float(x), float(y)))
        except ValueError:
            raise DataError(f"line {lineno}: could not parse coordinates {line!r}")
    if not rows:
        raise DataError(f"{path}: no coordinate rows found")
    pts = (np.asarray(rows) + [affine["offset_x"], affine["offset_y"]]) * affine["scale"]
    inside = window.contains(pts)
    n_rejected = int((~inside).sum())
    if n_rejected:
        warnings.warn(f"{n_rejected} rejected (outside the "
                      f"{window.width:g}x{window.height:g} window)", stacklevel=2)
    pts = pts[inside]
    if not len(pts):
        raise DataError(f"{path}: no points inside the window")
    return PointSet(pts, window, f"file({path})", None)


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


def write_curves_csv(path, curves, config: dict[str, str] | None = None,
                     gaps: dict[str, np.ndarray] | None = None):
    Path(path).write_text(curves_csv_text(curves, config, gaps), encoding="utf-8")


def read_curves_csv(path) -> tuple[list[CoverageCurve], dict[str, str]]:
    """Parse a curves CSV back into CoverageCurve objects plus the config of
    its comment lines before the header. Curves keep file order. A new curve
    starts wherever the label differs from the previous row's or beta_db
    stops increasing, so two curves that share a label stay apart. Labels
    are written unquoted and may hold commas, so a row's label is everything
    between std_err and the trailing columns the header declares after
    `label`; those columns are ignored."""
    comments, n_cols, body = _read_table(path, ["beta_db", "p_c", "std_err", "label"])
    runs: list[tuple[str, list[tuple[float, float, float | None]]]] = []
    for lineno, line in body:
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
        beta, p, ses = zip(*rows)
        # a missing std_err reads as NaN, and a curve with none has None
        se = None if all(s is None for s in ses) else np.array(ses, dtype=float)
        curves.append(CoverageCurve(np.array(beta), np.array(p), se, label))
    return curves, parse_kv_comments(comments)
