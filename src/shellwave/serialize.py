"""Deterministic artifact writers: CSV, JSON records, plot data, SVG.

Every writer here produces byte-identical output for identical input:
floats are rendered with Python's shortest round-trip repr (locale
independent), line endings are LF, encoding is UTF-8, and JSON keys are
sorted.  Replay equality of whole runs reduces to equality of the numbers.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np


def fmt(value) -> str:
    """Canonical text for one cell: repr of the float (nan, inf and -inf
    included), true/false for bools, plain digits for ints."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def to_plain(obj):
    """Recursively convert numpy scalars/arrays so json can emit them."""
    if isinstance(obj, dict):
        return {str(k): to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _open_lf(path: str):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _column_cells(col) -> list[str]:
    """The text of one column: a column of floats (numpy's included) is
    formatted at once from a list of Python floats, any other by fmt."""
    if all(issubclass(t, (float, np.floating)) for t in set(map(type, col))):
        return list(map(repr, np.array(col, dtype=float).tolist()))
    return list(map(fmt, col))


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines += map(",".join, zip(*(_column_cells(col) for col in zip(*rows))))
    with _open_lf(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_columns(path: str, columns, skip=()) -> None:
    """A dataclass of equal-length columns as a CSV: one column per field
    not in skip, headed by the field's name."""
    names = [f.name for f in dataclasses.fields(columns) if f.name not in skip]
    write_csv(path, names, zip(*(getattr(columns, n) for n in names)))


def write_json(path: str, obj) -> None:
    with _open_lf(path) as fh:
        json.dump(to_plain(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_plot_data(path: str, xlabel: str, ylabel: str, x, y) -> None:
    """Two-column plot file: header line, then one 'x y' row per sample."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("plot columns differ in length")
    body = "".join(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    with _open_lf(path) as fh:
        fh.write(f"{xlabel} {ylabel}\n" + body)


def _ticks(lo: float, hi: float, k: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, k)


def write_svg(path: str, x, y, title: str = "", xlabel: str = "",
              ylabel: str = "") -> None:
    """Single-polyline SVG rendered without any plotting dependency.

    Pixel coordinates are rounded to 0.01 so the output is reproducible
    down to the byte.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 62.0, 18.0, 28.0, 46.0
    pw, ph = width - ml - mr, height - mt - mb
    if x.size == 0:
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 0.0])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px(x).tolist(), py(y).tolist()))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{ml:.1f}" y="{mt:.1f}" width="{pw:.1f}" height="{ph:.1f}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for tv in _ticks(x_lo, x_hi):
        lines.append(
            f'<line x1="{px(tv):.2f}" y1="{mt + ph:.1f}" x2="{px(tv):.2f}" '
            f'y2="{mt + ph + 5:.1f}" stroke="#444" stroke-width="1"/>')
        lines.append(
            f'<text x="{px(tv):.2f}" y="{mt + ph + 18:.1f}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{tv:.4g}</text>')
    for tv in _ticks(y_lo, y_hi):
        lines.append(
            f'<line x1="{ml - 5:.1f}" y1="{py(tv):.2f}" x2="{ml:.1f}" '
            f'y2="{py(tv):.2f}" stroke="#444" stroke-width="1"/>')
        lines.append(
            f'<text x="{ml - 8:.1f}" y="{py(tv) + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{tv:.4g}</text>')
    lines.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                 'stroke-width="1.5"/>')
    if title:
        lines.append(f'<text x="{ml + pw / 2:.1f}" y="{mt - 9:.1f}" font-size="13" '
                     f'text-anchor="middle" font-family="monospace">{title}</text>')
    if xlabel:
        lines.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10:.1f}" '
                     f'font-size="12" text-anchor="middle" '
                     f'font-family="monospace">{xlabel}</text>')
    if ylabel:
        lines.append(f'<text x="14" y="{mt + ph / 2:.1f}" font-size="12" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{ylabel}</text>')
    lines.append("</svg>")
    with _open_lf(path) as fh:
        fh.write("\n".join(lines) + "\n")
