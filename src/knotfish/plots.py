"""Deterministic CSV and SVG emitters for the (v2, v3) fish plots.

SVG is emitted as primitive shapes with all numbers formatted to six
significant digits, so identical inputs give byte-identical files.  Each
coordinate is mapped and formatted in one f-string; screen coordinates are
at least 48, so no "-0" can arise.  Every emitter builds its text in memory
and writes it through ``_write``: UTF-8 bytes, LF line endings, and the
output path returned.
Convention: v2 runs horizontally, v3 vertically; mirror images reflect
across the v2-axis, so fish scatters get a symmetric vertical range.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .table import KnotRecord
from .torus import _torus_pairs, torus_curve_samples, torus_v2v3

__all__ = ["emit_csv", "emit_fish_svg", "emit_torus_overlay_svg"]

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22")


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ranges(points, curves) -> tuple[tuple[float, float], tuple[float, float]]:
    """Padded axis ranges around every point and curve sample; the v3
    range is symmetric about 0."""
    xs = [p[0] for p in points] + [x for _, pts in curves for x, _ in pts]
    ys = [p[1] for p in points] + [y for _, pts in curves for _, y in pts]
    lo = min(xs, default=-1.0)
    hi = max(xs, default=1.0)
    pad = 0.5 + 0.05 * (hi - lo)
    m = max((abs(y) for y in ys), default=1.0)
    y_pad = 0.5 + 0.05 * (2 * m)
    return (lo - pad, hi + pad), (-m - y_pad, m + y_pad)


def _render_svg(points: list[tuple[float, float, str]],
                curves: list[tuple[str, list[tuple[float, float]]]],
                title: str) -> str:
    (x0, x1), (y0, y1) = _ranges(points, curves)
    dx, dy = x1 - x0, y1 - y0
    iw = _WIDTH - 2 * _MARGIN
    ih = _HEIGHT - 2 * _MARGIN
    bottom = _HEIGHT - _MARGIN
    zx = _MARGIN + (0 - x0) / dx * iw     # the screen x of v2 = 0
    zy = bottom - (0 - y0) / dy * ih      # the screen y of v3 = 0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{iw}" height="{ih}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH // 2}" y="{_MARGIN - 16}" font-size="14" '
                     'text-anchor="middle" font-family="sans-serif">'
                     f'{_xml_text(title)}</text>')
    # zero axes; the v3 range is symmetric, so the v2-axis is always inside
    if x0 < 0 < x1:
        parts.append(f'<line x1="{zx:.6g}" y1="{_MARGIN}" x2="{zx:.6g}" '
                     f'y2="{bottom}" stroke="#999999" stroke-width="0.7"/>')
    parts.append(f'<line x1="{_MARGIN}" y1="{zy:.6g}" x2="{_WIDTH - _MARGIN}" '
                 f'y2="{zy:.6g}" stroke="#999999" stroke-width="0.7"/>')
    parts.append(f'<text x="{_WIDTH - _MARGIN + 6}" y="{zy:.6g}" '
                 'font-size="12" font-family="sans-serif">v2</text>')
    parts.append(f'<text x="{zx if x0 < 0 < x1 else _MARGIN:.6g}" y="{_MARGIN - 4}" '
                 'font-size="12" font-family="sans-serif">v3</text>')
    for idx, (label, pts) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        d = "M " + " L ".join(f"{_MARGIN + (x - x0) / dx * iw:.6g} "
                              f"{bottom - (y - y0) / dy * ih:.6g}" for x, y in pts)
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.2">'
                     f'<title>{_xml_text(label)}</title></path>')
    for x, y, label in points:
        tip = f"<title>{_xml_text(label)}</title>" if label else ""
        parts.append(f'<circle cx="{_MARGIN + (x - x0) / dx * iw:.6g}" '
                     f'cy="{bottom - (y - y0) / dy * ih:.6g}" r="3" '
                     f'fill="#1f77b4" fill-opacity="0.75" stroke="none">{tip}</circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write(out: str | Path, text: str) -> Path:
    """Write ``text`` to ``out`` as UTF-8 bytes, line endings as given."""
    out = Path(out)
    out.write_bytes(text.encode("utf-8"))
    return out


def emit_csv(records: list[KnotRecord], out: str | Path) -> Path:
    """Write ``name,crossings,v2,v3`` rows in input order, LF endings;
    names are quoted where CSV needs it.  Takes ``compute_all`` output; a
    record without invariants raises before the file is written.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("name", "crossings", "v2", "v3"))
    for rec in records:
        writer.writerow((rec.name, rec.crossing_number,
                         rec.invariants.v2, rec.invariants.v3))
    return _write(out, buf.getvalue())


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
    title = f"prime knots with {crossing_number} crossings"
    return _write(out, _render_svg(pts, [], title))


def emit_torus_overlay_svg(u_values: list[int], c_values: list[int],
                           out: str | Path, samples: int = 120) -> Path:
    """Fixed-u and fixed-c torus curves with their lattice points overlaid.

    Each curve is drawn as its +v3 and -v3 branches; every torus knot with
    the given unknotting or crossing number is marked on its curve.
    """
    curves = []
    points = []
    for mode, values, scale, shift in (("unknotting", u_values, 2, 1),
                                       ("crossing", c_values, 1, 0)):
        for v in values:
            plus, minus = torus_curve_samples(mode, v, samples)
            curves.append((f"{mode[0]}={v} (+)", plus))
            curves.append((f"{mode[0]}={v} (-)", minus))
            for p, q in _torus_pairs(scale * v, shift):
                pair = torus_v2v3((p, q))
                points.append((float(pair.v2), float(pair.v3), f"T({p},{q})"))
                points.append((float(pair.v2), float(-pair.v3), f"T({p},-{q})"))
    points.sort()
    title_bits = []
    if u_values:
        title_bits.append("torus unknotting-number curves")
    if c_values:
        title_bits.append("torus crossing-number curves")
    return _write(out, _render_svg(points, curves, ", ".join(title_bits)))
