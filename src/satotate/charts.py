"""Chart emission: dependency-free SVG line charts of density against x,
matplotlib PNGs, and the one CSV writer.

The SVG writer produces a fixed 800x500 viewBox with a log-scaled x axis,
one polyline per series, and dashed horizontal reference lines; it is plain
text generation, so re-runs are byte-identical.  When matplotlib is
importable the same data is also rendered to PNG for quick viewing.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .records import Record

#: fixed color cycle (series are assigned in order)
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 55


class Series(Record):
    name: str
    ys: tuple
    prediction: float


def _nice_ylim(series_list):
    values = [y for s in series_list for y in (*s.ys, s.prediction)]
    lo, hi = min(values), max(values)
    pad = max(0.02, 0.15 * (hi - lo))
    return lo - pad, hi + pad


def render_svg(path, xs, series_list, title):
    """Write a line chart; x values are plotted on a log10 scale."""
    y_lo, y_hi = _nice_ylim(series_list)
    lx = [math.log10(x) for x in xs]
    x_lo, x_hi = min(lx), max(lx)
    if x_hi == x_lo:  # a one-point grid: centre it in one decade
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + plot_w * (math.log10(x) - x_lo) / (x_hi - x_lo)

    def py(y):
        return _MARGIN_T + plot_h * (y_hi - y) / (y_hi - y_lo)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="13">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>'
    )
    # x ticks at powers of ten
    for e in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = 10**e
        out.append(
            f'<line x1="{px(x):.1f}" y1="{_MARGIN_T + plot_h}" x2="{px(x):.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{px(x):.1f}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle">1e{e}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle">x</text>'
    )
    # y ticks
    step = 0.05 if y_hi - y_lo < 0.6 else 0.1
    tick = math.ceil(y_lo / step) * step
    while tick <= y_hi + 1e-12:
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py(tick):.1f}" x2="{_MARGIN_L}" '
            f'y2="{py(tick):.1f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 9}" y="{py(tick) + 4:.1f}" text-anchor="end">{tick:.2f}</text>'
        )
        tick += step
    out.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">density</text>'
    )
    legend_y = _MARGIN_T + 10
    for i, s in enumerate(series_list):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, s.ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{py(s.prediction):.1f}" '
            f'x2="{_MARGIN_L + plot_w}" y2="{py(s.prediction):.1f}" '
            f'stroke="{color}" stroke-width="1.2" stroke-dasharray="6,4" opacity="0.7"/>'
        )
        lx0 = _MARGIN_L + plot_w + 10
        out.append(
            f'<line x1="{lx0}" y1="{legend_y}" x2="{lx0 + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx0 + 28}" y="{legend_y + 4}">{s.name}</text>')
        legend_y += 20
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def render_png(path, xs, series_list, title):
    """Matplotlib rendering of the same chart; returns False if unavailable."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    fig, ax = plt.subplots(figsize=(8, 5))
    for i, s in enumerate(series_list):
        color = COLORS[i % len(COLORS)]
        ax.plot(xs, s.ys, color=color, label=s.name, lw=1.6)
        ax.axhline(s.prediction, color=color, ls="--", lw=1.1, alpha=0.7)
    ax.set_xscale("log")
    ax.set_title(title)
    ax.set_xlabel("x")
    ax.set_ylabel("density")
    ax.legend(loc="best", fontsize=9)
    ax.grid(alpha=0.25)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)
    return True


def write_csv(path, header, rows):
    """The one CSV writer: comma-separated lines ending in a newline, a cell
    quoted only when it holds a comma or a quote (RFC 4180); a float cell is
    written as .12g, any other as str."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{c:.12g}" if isinstance(c, float) else str(c) for c in row] for row in rows)


def write_multi_series_csv(path, xs, pi_xs, named_columns):
    """CSV with x, pi_x and (emp, pred) column pairs per series."""
    header = ["x", "pi_x", *(f"{kind}_{name}" for name in named_columns for kind in ("emp", "pred"))]
    columns = [column for ys, pred in named_columns.values() for column in (ys, [pred] * len(xs))]
    write_csv(path, header, zip(xs, pi_xs, *columns))
