"""Minimal static SVG line charts (axes, polylines, legend). No interactivity."""

from __future__ import annotations

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 55
_PALETTE = ("#000000", "#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_DASHES = ("none", "8,4", "2,3", "6,2,2,2", "none")


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def line_chart_svg(series, x_label: str, y_label: str, title: str) -> str:
    """Render (name, xs, ys) series of finite floats as a static SVG string.

    Every label is drawn. A series of fewer than two points draws no
    polyline, only its legend entry.
    """
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_MT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>'
    )
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT + plot_h}" x2="{px:.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MT + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(xt)}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_ML - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_fmt(yt)}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MT + plot_h / 2:.1f})">{y_label}</text>'
    )
    for idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        dash = _DASHES[idx % len(_DASHES)]
        points = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)]
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        if len(points) >= 2:
            parts.append(
                f'<polyline points="{" ".join(points)}" fill="none" '
                f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
            )
        ly = _MT + 16 + 18 * idx
        lx = _ML + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly}" font-family="sans-serif" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
