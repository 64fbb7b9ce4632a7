"""Deterministic writers: CSV, JSON, plot data, SVG."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

from shellwave.serialize import (
    fmt,
    to_plain,
    write_csv,
    write_json,
    write_plot_data,
    write_svg,
)


def test_fmt_roundtrip():
    for x in (0.1, 1.0 / 3.0, 2.0**-52, 8.446843652244679, -1e300, 0.0):
        assert float(fmt(x)) == x
    assert fmt(True) == "true" and fmt(False) == "false"
    assert fmt(42) == "42"
    assert fmt(float("nan")) == "nan"
    assert fmt(float("inf")) == "inf"
    assert fmt(np.float64(0.25)) == "0.25"


def test_to_plain_strips_numpy():
    out = to_plain({"a": np.float64(1.5), "b": np.arange(3), "c": (np.int64(2),)})
    assert out == {"a": 1.5, "b": [0, 1, 2], "c": [2]}
    assert json.dumps(out)  # serializable without a custom encoder


def test_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["name", "value"], [["mass_full", 4.0], ["k", 2]])
    data = path.read_bytes()
    assert data == b"name,value\nmass_full,4.0\nk,2\n"


def test_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"z": 1.0 / 3.0, "a": [1, 2], "m": {"y": True, "x": None}}
    write_json(str(a), payload)
    write_json(str(b), dict(reversed(list(payload.items()))))
    raw = a.read_bytes()
    assert raw == b.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    back = json.loads(raw)
    assert back["z"] == 1.0 / 3.0  # floats survive the trip exactly


def test_plot_data_format(tmp_path):
    path = tmp_path / "curve.dat"
    x = np.linspace(0.0, 1.0, 5)
    y = x**2
    write_plot_data(str(path), "s", "u(s)", x, y)
    lines = path.read_text().splitlines()
    assert lines[0] == "s u(s)"
    assert len(lines) == 6
    for ln, xi, yi in zip(lines[1:], x, y):
        sx, sy = ln.split()
        assert float(sx) == xi and float(sy) == yi


def test_svg_wellformed_and_stable(tmp_path):
    x = np.linspace(0.0, 10.0, 200)
    y = np.sin(x) * np.exp(-0.1 * x)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_svg(str(p1), x, y, "decay", "s", "u")
    write_svg(str(p2), x, y, "decay", "s", "u")
    raw = p1.read_bytes()
    assert raw == p2.read_bytes()
    root = ET.fromstring(raw)
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1
    pts = polylines[0].attrib["points"].split()
    assert len(pts) == len(x)
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "decay" in texts and "s" in texts and "u" in texts


def test_svg_handles_flat_series(tmp_path):
    path = tmp_path / "flat.svg"
    x = np.linspace(0.0, 1.0, 7)
    write_svg(str(path), x, np.full_like(x, 2.5), "flat", "x", "y")
    root = ET.fromstring(path.read_bytes())
    coords = [
        float(c)
        for el in root.iter() if el.tag.endswith("polyline")
        for pair in el.attrib["points"].split()
        for c in pair.split(",")
    ]
    assert all(math.isfinite(c) for c in coords)


def plain_fmt(value) -> str:
    """The per-cell formatter, numpy scalars included, with its explicit
    non-finite branch: the reference the list-based writers must match."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
        return repr(v)
    return str(value)


def plain_points(x, y) -> str:
    """write_svg's polyline, one numpy scalar at a time."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    return " ".join(f"{62.0 + (a - x_lo) / (x_hi - x_lo) * 560.0:.2f},"
                    f"{28.0 + (y_hi - b) / (y_hi - y_lo) * 346.0:.2f}"
                    for a, b in zip(x, y))


CELLS = np.array([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
                  2.2250738585072014e-308 / 3.0, 1.0 / 3.0, -1e300, 12.0, 7.0,
                  8.446843652244679])


def test_writers_match_per_cell_reference(tmp_path):
    ints = np.arange(-4, CELLS.size - 4)
    bools = ints % 3 == 0
    words = tuple(f"w{k}" for k in range(CELLS.size))
    path = tmp_path / "t.csv"
    want = "x,i,b,s\n" + "".join(
        ",".join(plain_fmt(v) for v in row) + "\n"
        for row in zip(CELLS, ints, bools, words))
    for rows in (zip(CELLS, ints, bools, words),
                 zip(CELLS.tolist(), ints.tolist(), bools.tolist(), words)):
        write_csv(str(path), ("x", "i", "b", "s"), rows)
        assert path.read_bytes() == want.encode()

    dat = tmp_path / "t.dat"
    for x, y in ((CELLS, CELLS[::-1]), (ints, bools), (list(CELLS), ints.tolist())):
        write_plot_data(str(dat), "x", "y", x, y)
        want = "x y\n" + "".join(
            f"{plain_fmt(float(a))} {plain_fmt(float(b))}\n"
            for a, b in zip(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
        assert dat.read_bytes() == want.encode()

    svg = tmp_path / "t.svg"
    for x, y in ((CELLS, np.arange(CELLS.size) % 4), (ints, bools), (CELLS[3:8], CELLS[3:8])):
        write_svg(str(svg), x, y)
        root = ET.fromstring(svg.read_bytes())
        (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert line.attrib["points"] == plain_points(x, y)
