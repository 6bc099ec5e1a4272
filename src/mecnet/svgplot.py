"""Minimal native SVG charts, no plotting dependency.

Just enough for the experiment reports: multi-series line charts and
grouped bar charts with axes, ticks and a legend.  Output is a plain SVG
string, deterministic for identical input.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["line_chart", "grouped_bars"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 60


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text(s: str) -> str:
    """``s`` escaped for an SVG text node."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(vals: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(vals), max(vals)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def _axes(
    title: str, xlabel: str, ylabel: str, xlo, xhi, ylo, yhi, xticks=True
) -> tuple[list[str], Callable[[float], float], Callable[[float], float]]:
    """The frame, title, labels and grid, and the data-to-pixel maps."""
    px = lambda x: _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)
    py = lambda y: _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)
    out = [
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2}" y="24" text-anchor="middle" font-size="16">{_text(title)}</text>',
        f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" stroke="black"/>',
        f'<text x="{_W/2}" y="{_H-16}" text-anchor="middle" font-size="13">{_text(xlabel)}</text>',
        f'<text x="18" y="{_H/2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_H/2})">{_text(ylabel)}</text>',
    ]
    for i in range(5):
        xv = xlo + (xhi - xlo) * i / 4
        yv = ylo + (yhi - ylo) * i / 4
        if xticks:
            out.append(
                f'<text x="{px(xv):.1f}" y="{_H-_MB+18}" text-anchor="middle" '
                f'font-size="11">{_fmt(xv)}</text>'
            )
        out.append(
            f'<text x="{_ML-8}" y="{py(yv)+4:.1f}" text-anchor="end" '
            f'font-size="11">{_fmt(yv)}</text>'
        )
        out.append(
            f'<line x1="{_ML}" y1="{py(yv):.1f}" x2="{_W-_MR}" y2="{py(yv):.1f}" '
            f'stroke="#dddddd"/>'
        )
    return out, px, py


def _svg(parts: list[str], names: Sequence[str]) -> str:
    """The chart ``parts`` with a legend of the series ``names``, as one document."""
    for i, name in enumerate(names):
        y = _MT + 8 + 16 * i
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<rect x="{_W-_MR-150}" y="{y-9}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{_W-_MR-132}" y="{y+2}" font-size="12">{_text(name)}</text>')
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">\n'
        f"{body}\n</svg>\n"
    )


def line_chart(
    series: dict[str, list[tuple[float, float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    xlo, xhi = _scale(xs)
    ylo, yhi = _scale(ys)
    parts, px, py = _axes(title, xlabel, ylabel, xlo, xhi, ylo, yhi)
    for i, (name, pts) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = sorted(pts)
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
    return _svg(parts, list(series))


def grouped_bars(
    groups: list[str],
    series: dict[str, list[float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    ys = [v for vals in series.values() for v in vals]
    ylo, yhi = 0.0, (max(ys) if ys else 1.0) * 1.1 or 1.0
    parts, _, py = _axes(title, xlabel, ylabel, -0.5, len(groups) - 0.5, ylo, yhi, xticks=False)
    nseries = max(len(series), 1)
    span = (_W - _ML - _MR) / max(len(groups), 1)
    barw = span * 0.7 / nseries
    for si, (name, vals) in enumerate(series.items()):
        color = _COLORS[si % len(_COLORS)]
        for gi, v in enumerate(vals):
            x = _ML + gi * span + span * 0.15 + si * barw
            parts.append(
                f'<rect x="{x:.1f}" y="{py(v):.1f}" width="{barw:.1f}" '
                f'height="{(_H-_MB)-py(v):.1f}" fill="{color}"/>'
            )
    for gi, label in enumerate(groups):
        x = _ML + gi * span + span / 2
        parts.append(
            f'<text x="{x:.1f}" y="{_H-_MB+18}" text-anchor="middle" font-size="11">{_text(label)}</text>'
        )
    return _svg(parts, list(series))
