"""The sweep's static SVG line chart (axes, polylines, legend). No interactivity."""

from __future__ import annotations

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 55
#: legend name, field of the aggregates, stroke color and dash attribute of each series
_SERIES = (
    ("welfare", "welfare", "#000000", ""),
    ("operating mass", "m", "#1f77b4", ' stroke-dasharray="8,4"'),
    ("avg productivity", "phi_tilde", "#d62728", ' stroke-dasharray="2,3"'),
)


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def line_chart_svg(records) -> str:
    """Welfare, operating mass and average productivity of solved sweep
    records, each over its own max, against precision, as a static SVG string.

    A chart of one record draws no polylines, only the legend.
    """
    xs = [r.rho for r in records]
    series = []
    for name, field, color, dash_attr in _SERIES:
        values = [getattr(r.agg, field) for r in records]
        # positive: an ok point has welfare > 0, so m > 0 and phi_tilde > 0
        top = max(values)
        series.append((name, [v / top for v in values], color, dash_attr))
    all_y = [y for _, ys, _, _ in series for y in ys]
    x_lo, x_hi = min(xs), max(xs)
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
        'font-family="sans-serif" font-size="15">welfare, variety, and selection vs precision'
        "</text>"
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
        'font-family="sans-serif" font-size="13">verification precision</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MT + plot_h / 2:.1f})">series / own max</text>'
    )
    for idx, (name, ys, color, dash_attr) in enumerate(series):
        points = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)]
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
