"""Hand-emitted SVG line charts: no renderer dependency, diff-able output."""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

#: chart size in pixels, and about how many ticks each axis gets
_WIDTH, _HEIGHT = 720, 440
_TICKS = 6


def escape(text: str) -> str:
    """Escape &, < and > for SVG text (ampersands first).  xml.sax.saxutils
    does the same, but importing it loads urllib, http and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def line_chart(
    series,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    hlines=(),
    vlines=(),
) -> str:
    """Render labeled (xs, ys) series plus reference lines as an SVG string.

    series: iterable of (label, xs, ys).  hlines/vlines: iterables of
    (label, value) drawn dashed.  Every title, axis label and line label is
    written, an empty one as an empty text element.  Output is deterministic
    for fixed inputs.
    """
    series = [(str(lbl), np.asarray(xs, float), np.asarray(ys, float)) for lbl, xs, ys in series]
    if not series or any(xs.size == 0 or xs.size != ys.size for _, xs, ys in series):
        raise ValueError("need at least one nonempty series with matching x/y lengths")
    xlo = min(float(xs.min()) for _, xs, _ in series)
    xhi = max(float(xs.max()) for _, xs, _ in series)
    ylo = min(float(ys.min()) for _, _, ys in series)
    yhi = max(float(ys.max()) for _, _, ys in series)
    for _, v in hlines:
        ylo, yhi = min(ylo, float(v)), max(yhi, float(v))
    if xhi == xlo:
        xhi = xlo + 1.0
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad

    ml, mr, mt, mb = 62, 16, 34, 46
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def px(x: float) -> float:
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y: float) -> float:
        return mt + (yhi - y) / (yhi - ylo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    out.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>')
    # axes and ticks
    out.append(
        f'<path d="M {ml} {mt} V {mt + ph} H {ml + pw}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in _nice_ticks(xlo, xhi):
        if xlo <= t <= xhi:
            x = px(t)
            out.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 4}" stroke="black"/>')
            out.append(f'<text x="{x:.2f}" y="{mt + ph + 17}" text-anchor="middle">{t:g}</text>')
    for t in _nice_ticks(ylo, yhi):
        if ylo <= t <= yhi:
            y = py(t)
            out.append(f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
            out.append(f'<text x="{ml - 7}" y="{y + 4:.2f}" text-anchor="end">{t:g}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle">{escape(xlabel)}</text>')
    out.append(
        f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{escape(ylabel)}</text>'
    )
    for label, v in hlines:
        y = py(float(v))
        out.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" '
            f'stroke="#555" stroke-dasharray="6 3"/>'
        )
        out.append(f'<text x="{ml + pw - 4}" y="{y - 4:.2f}" text-anchor="end" fill="#555">{escape(str(label))}</text>')
    for label, v in vlines:
        x = px(float(v))
        out.append(
            f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + ph}" '
            f'stroke="#999" stroke-dasharray="4 3"/>'
        )
        out.append(f'<text x="{x + 4:.2f}" y="{mt + 12}" fill="#777">{escape(str(label))}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{ml + pw - 4}" y="{mt + 16 + 14 * i}" text-anchor="end" fill="{color}">{escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
