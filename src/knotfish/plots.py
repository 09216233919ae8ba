"""Deterministic CSV and SVG emitters for the (v2, v3) fish plots.

SVG is emitted as primitive shapes with all numbers formatted to six
significant digits, so identical inputs give byte-identical files.
Convention: v2 runs horizontally, v3 vertically; mirror images reflect
across the v2-axis, so fish scatters get a symmetric vertical range.
"""

from __future__ import annotations

import csv
import io
from math import gcd
from pathlib import Path

from .errors import InputError
from .table import KnotRecord
from .torus import torus_curve_samples, torus_v2v3

__all__ = ["PlotSpec", "emit_csv", "emit_fish_svg", "emit_torus_overlay_svg"]

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22")


def _fmt(x: float) -> str:
    out = f"{x:.6g}"
    return "0" if out in ("-0", "-0.0") else out


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class PlotSpec:
    """Points, curves, axis ranges, and title of one plot.

    ``points`` and ``curves`` default to new empty lists.
    """

    def __init__(self,
                 points: list[tuple[float, float, str]] | None = None,
                 curves: list[tuple[str, list[tuple[float, float]]]] | None = None,
                 x_range: tuple[float, float] | None = None,
                 y_range: tuple[float, float] | None = None,
                 title: str = ""):
        self.points = [] if points is None else points
        self.curves = [] if curves is None else curves
        self.x_range = x_range
        self.y_range = y_range
        self.title = title

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"PlotSpec({fields})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def resolve_ranges(self) -> tuple[tuple[float, float], tuple[float, float]]:
        xs = [p[0] for p in self.points] + [x for _, pts in self.curves for x, _ in pts]
        ys = [p[1] for p in self.points] + [y for _, pts in self.curves for _, y in pts]
        if self.x_range is not None:
            lo, hi = self.x_range
            if xs and (min(xs) < lo or max(xs) > hi):
                raise InputError("explicit x range does not contain all points")
            x_range = (lo, hi)
        else:
            lo = min(xs, default=-1.0)
            hi = max(xs, default=1.0)
            pad = 0.5 + 0.05 * (hi - lo)
            x_range = (lo - pad, hi + pad)
        if self.y_range is not None:
            lo, hi = self.y_range
            if ys and (min(ys) < lo or max(ys) > hi):
                raise InputError("explicit y range does not contain all points")
            y_range = (lo, hi)
        else:
            m = max((abs(y) for y in ys), default=1.0)
            pad = 0.5 + 0.05 * (2 * m)
            y_range = (-m - pad, m + pad)   # symmetric about v3 = 0
        return x_range, y_range


def _render_svg(spec: PlotSpec) -> str:
    (x0, x1), (y0, y1) = spec.resolve_ranges()
    iw = _WIDTH - 2 * _MARGIN
    ih = _HEIGHT - 2 * _MARGIN

    def sx(x: float) -> float:
        return _MARGIN + (x - x0) / (x1 - x0) * iw

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y0) / (y1 - y0) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{iw}" height="{ih}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]
    if spec.title:
        parts.append(f'<text x="{_WIDTH // 2}" y="{_MARGIN - 16}" font-size="14" '
                     'text-anchor="middle" font-family="sans-serif">'
                     f'{_xml_text(spec.title)}</text>')
    # zero axes when inside the frame
    if x0 < 0 < x1:
        parts.append(f'<line x1="{_fmt(sx(0))}" y1="{_MARGIN}" x2="{_fmt(sx(0))}" '
                     f'y2="{_HEIGHT - _MARGIN}" stroke="#999999" stroke-width="0.7"/>')
    if y0 < 0 < y1:
        parts.append(f'<line x1="{_MARGIN}" y1="{_fmt(sy(0))}" x2="{_WIDTH - _MARGIN}" '
                     f'y2="{_fmt(sy(0))}" stroke="#999999" stroke-width="0.7"/>')
    parts.append(f'<text x="{_WIDTH - _MARGIN + 6}" y="{_fmt(sy(0) if y0 < 0 < y1 else _HEIGHT - _MARGIN)}" '
                 'font-size="12" font-family="sans-serif">v2</text>')
    parts.append(f'<text x="{_fmt(sx(0) if x0 < 0 < x1 else _MARGIN)}" y="{_MARGIN - 4}" '
                 'font-size="12" font-family="sans-serif">v3</text>')
    for idx, (label, pts) in enumerate(spec.curves):
        color = _PALETTE[idx % len(_PALETTE)]
        d = "M " + " L ".join(f"{_fmt(sx(x))} {_fmt(sy(y))}" for x, y in pts)
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.2">'
                     f'<title>{_xml_text(label)}</title></path>')
    for x, y, label in spec.points:
        title = f"<title>{_xml_text(label)}</title>" if label else ""
        parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                     f'fill="#1f77b4" fill-opacity="0.75" stroke="none">{title}</circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_csv(records: list[KnotRecord], out: str | Path) -> Path:
    """Write ``name,crossings,v2,v3`` rows in input order, LF endings;
    names are quoted where CSV needs it.  Takes ``compute_all`` output; a
    record without invariants raises before the file is written.
    """
    out = Path(out)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("name", "crossings", "v2", "v3"))
    for rec in records:
        writer.writerow((rec.name, rec.crossing_number,
                         rec.invariants.v2, rec.invariants.v3))
    out.write_bytes(buf.getvalue().encode("utf-8"))
    return out


def emit_fish_svg(records: list[KnotRecord], crossing_number: int,
                  out: str | Path, include_mirrors: bool = True) -> Path:
    """Scatter of (v2, v3) for the knots with the given crossing number.

    Tables store one chirality per knot, so by default each record also
    contributes its mirror point (v2, -v3); pass include_mirrors=False
    to plot the stored chirality only.
    """
    pts = []
    for rec in records:
        if rec.crossing_number != crossing_number:
            continue
        v2, v3 = rec.invariants.v2, rec.invariants.v3
        pts.append((float(v2), float(v3), rec.name))
        if include_mirrors and v3 != 0:
            pts.append((float(v2), float(-v3), f"mirror({rec.name})"))
    pts.sort()
    spec = PlotSpec(points=pts, title=f"prime knots with {crossing_number} crossings")
    out = Path(out)
    out.write_bytes(_render_svg(spec).encode("utf-8"))
    return out


def _torus_points_with_unknotting(u: int):
    pts = []
    for a in range(1, 2 * u + 1):
        if (2 * u) % a:
            continue
        p, q = a + 1, (2 * u) // a + 1
        if p < q and gcd(p, q) == 1:
            pair = torus_v2v3((p, q))
            pts.append((p, q, pair))
    return pts


def _torus_points_with_crossing(c: int):
    pts = []
    for d in range(1, c + 1):
        if c % d:
            continue
        p, q = d + 1, c // d
        if 2 <= p < q and gcd(p, q) == 1:
            pair = torus_v2v3((p, q))
            pts.append((p, q, pair))
    return pts


def emit_torus_overlay_svg(u_values: list[int], c_values: list[int],
                           out: str | Path, samples: int = 120) -> Path:
    """Fixed-u and fixed-c torus curves with their lattice points overlaid.

    Each curve is drawn as its +v3 and -v3 branches; every torus knot with
    the given unknotting or crossing number is marked on its curve.
    """
    curves = []
    points = []
    for u in u_values:
        plus, minus = torus_curve_samples("unknotting", u, samples)
        curves.append((f"u={u} (+)", plus))
        curves.append((f"u={u} (-)", minus))
        for p, q, pair in _torus_points_with_unknotting(u):
            points.append((float(pair.v2), float(pair.v3), f"T({p},{q})"))
            points.append((float(pair.v2), float(-pair.v3), f"T({p},-{q})"))
    for c in c_values:
        plus, minus = torus_curve_samples("crossing", c, samples)
        curves.append((f"c={c} (+)", plus))
        curves.append((f"c={c} (-)", minus))
        for p, q, pair in _torus_points_with_crossing(c):
            points.append((float(pair.v2), float(pair.v3), f"T({p},{q})"))
            points.append((float(pair.v2), float(-pair.v3), f"T({p},-{q})"))
    points.sort()
    title_bits = []
    if u_values:
        title_bits.append("torus unknotting-number curves")
    if c_values:
        title_bits.append("torus crossing-number curves")
    spec = PlotSpec(points=points, curves=curves, title=", ".join(title_bits))
    out = Path(out)
    out.write_bytes(_render_svg(spec).encode("utf-8"))
    return out
