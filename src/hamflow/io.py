"""Tabular persistence and SVG rendering.

All outputs are deterministic bytes given (config, seed): CSV for tables of
means, line-delimited JSON for records, SVG for plots.  A record is a dict
whose values are JSON values or numpy arrays and scalars (the records of
``hamflow.experiments``); a table row is a tuple (label, regularity,
estimate, standard error, samples).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_TABLE_HEADER = "label,regularity,estimate,stderr,samples"

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400", "#16a085",
            "#7f8c8d", "#2c3e50", "#e67e22", "#2980b9", "#c2185b", "#558b2f")


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def write_table(rows, path) -> None:
    """CSV with six significant digits, rows ordered by (label, regularity)."""
    lines = [_TABLE_HEADER]
    for label, regularity, estimate, stderr, samples in sorted(rows, key=lambda r: r[:2]):
        lines.append(f"{label},{_fmt(regularity)},{_fmt(estimate)},{_fmt(stderr)},{samples}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_records(records, path) -> None:
    """Line-delimited JSON records, keys sorted; a numpy array or scalar is
    written as its ``tolist()``."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=lambda v: v.tolist()) + "\n")


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_SIZE = 640.0


def _canvas():
    """A framed, empty SVG root element.

    The renderers import ``xml.etree`` when they run, not with this module:
    most commands draw nothing, and the import costs every command about
    4 ms and 0.4 MiB.
    """
    import xml.etree.ElementTree as ET
    root = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                      width=str(int(_SIZE)), height=str(int(_SIZE)),
                      viewBox=f"0 0 {_SIZE} {_SIZE}")
    ET.SubElement(root, "rect", x="0", y="0", width=str(_SIZE), height=str(_SIZE),
                  fill="white", stroke="#404040")
    return root


def _to_canvas(x: float, y: float) -> tuple:
    # y axis points up in torus coordinates, down in SVG
    return _SIZE * x, _SIZE * (1.0 - y)


def render_field_svg(draw, t: float, path, arrow_grid: int = 20) -> None:
    """Quiver plot of the Hamiltonian vector field at time t.

    The longest arrow is normalized to one lattice spacing; a zero field
    degenerates to dots.
    """
    import xml.etree.ElementTree as ET
    root = _canvas()
    coords = (np.arange(arrow_grid) + 0.5) / arrow_grid
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    vel = draw.vector_field(float(t), pts)
    vmax = float(np.linalg.norm(vel, axis=1).max())
    scale = (1.0 / arrow_grid) / vmax if vmax > 0 else 0.0
    for (x, y), (u, v) in zip(pts, vel):
        x0, y0 = _to_canvas(x, y)
        x1, y1 = _to_canvas(x + scale * u, y + scale * v)
        ET.SubElement(root, "circle", cx=_fmt(x0), cy=_fmt(y0), r="1.2", fill="#1b6ca8")
        ET.SubElement(root, "line", x1=_fmt(x0), y1=_fmt(y0), x2=_fmt(x1), y2=_fmt(y1),
                      stroke="#1b6ca8", attrib={"stroke-width": "1"})
    ET.ElementTree(root).write(path)


def _wrapped_subpaths(vertices: np.ndarray):
    """Split a lift polyline into unit-square pieces at domain boundaries."""
    pieces = []
    current = []
    offset = np.floor(vertices[0])
    current.append(vertices[0] - offset)
    for a, b in zip(vertices[:-1], vertices[1:]):
        seg = b - a
        # crossing times of integer planes within this segment
        cuts = [0.0, 1.0]
        for dim in range(2):
            if seg[dim] != 0.0:
                lo = math.floor(min(a[dim], b[dim]))
                hi = math.ceil(max(a[dim], b[dim]))
                for plane in range(lo, hi + 1):
                    s = (plane - a[dim]) / seg[dim]
                    if 1e-12 < s < 1.0 - 1e-12:
                        cuts.append(s)
        cuts = sorted(set(cuts))
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            mid = a + 0.5 * (s0 + s1) * seg
            new_offset = np.floor(mid)
            end = a + s1 * seg
            if not np.array_equal(new_offset, offset):
                pieces.append(current)
                offset = new_offset
                current = [a + s0 * seg - offset]
            current.append(end - offset)
    pieces.append(current)
    return [np.array(p) for p in pieces if len(p) >= 2]


def render_curves_svg(curves, path) -> None:
    """Draw curves, each given by its (V, 2) lift vertices, in the unit
    square, one path element per curve, wrap-split at fundamental-domain
    boundaries."""
    import xml.etree.ElementTree as ET
    root = _canvas()
    for i, vertices in enumerate(curves):
        parts = []
        for piece in _wrapped_subpaths(np.asarray(vertices, dtype=float)):
            cmds = []
            for j, (x, y) in enumerate(piece):
                cx, cy = _to_canvas(x, y)
                cmds.append(f"{'M' if j == 0 else 'L'} {_fmt(cx)} {_fmt(cy)}")
            parts.append(" ".join(cmds))
        ET.SubElement(root, "path", d=" ".join(parts), fill="none",
                      stroke=_PALETTE[i % len(_PALETTE)],
                      attrib={"stroke-width": "1.3"})
    ET.ElementTree(root).write(path)


def render_histogram_svg(values, path, bins: int = 40, title: str = "") -> None:
    """Simple bar histogram (tail diagnostics)."""
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=bins)
    import xml.etree.ElementTree as ET
    root = _canvas()
    if counts.max() > 0:
        for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
            x0 = _SIZE * (e0 - edges[0]) / (edges[-1] - edges[0])
            x1 = _SIZE * (e1 - edges[0]) / (edges[-1] - edges[0])
            h = 0.9 * _SIZE * c / counts.max()
            ET.SubElement(root, "rect", x=_fmt(x0), y=_fmt(_SIZE - h),
                          width=_fmt(max(x1 - x0 - 1.0, 0.5)), height=_fmt(h),
                          fill="#1b6ca8")
    if title:
        el = ET.SubElement(root, "text", x="10", y="20", attrib={"font-size": "14"})
        el.text = title
    ET.ElementTree(root).write(path)
