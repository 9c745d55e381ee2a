"""SVG line charts of smoothed growth-rate series, no plotting service needed.

Output is plain SVG 1.1 text: diffable in tests and deterministic for fixed
inputs. Each series draws one labeled line of smoothed log growth rate
against bin start year, with a dotted rule at zero; masked points are
omitted and break the line.
"""

from __future__ import annotations

import json
import re
from typing import Optional, Sequence

from .errors import TermflowError
from .trend import GrowthSeries


class EmptySeriesSet(TermflowError):
    pass


_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
)

_WIDTH, _HEIGHT = 960, 540
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 70, 210, 40, 60


# Code points XML 1.0 forbids: C0 controls other than tab, LF and CR,
# surrogates, U+FFFE and U+FFFF. CR is written as a reference because parsers
# turn a raw CR into LF.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_XML_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;"}
)


def _escape(text: str) -> str:
    return _XML_FORBIDDEN.sub("\ufffd", text).translate(_XML_ESCAPES)


def growth_chart_svg(
    series: Sequence[GrowthSeries],
    title: str = "term growth rates",
    config: Optional[dict] = None,
) -> str:
    """Render the series set as an SVG document string.

    Each series is labeled ``<query> / <discipline>``.
    """
    plotted = []
    for s in series:
        points = [(b.start_year, v) for _, b, v in s.unmasked_points()]
        if points:
            label = f"{s.freq.query.label()} / {s.freq.discipline}"
            plotted.append((label, s.freq.bins[0].width_years, points))
    if not plotted:
        raise EmptySeriesSet("no unmasked growth points to plot")

    xs = [x for _, _, pts in plotted for x, _ in pts]
    ys = [y for _, _, pts in plotted for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [0.0])
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    pad = 0.08 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    bottom = _HEIGHT - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return bottom - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    ]
    if config is not None:
        metadata = json.dumps(config, sort_keys=True, allow_nan=False)
        out.append("<metadata>" + _escape(metadata) + "</metadata>")
    out.append('<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="18" font-family="sans-serif">{_escape(title)}</text>'
    )

    # axes
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{bottom}" x2="{_WIDTH - _MARGIN_RIGHT}" '
        f'y2="{bottom}" stroke="#000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{bottom}" stroke="#000" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 18}" '
        f'text-anchor="middle" font-size="13" font-family="sans-serif">year</text>'
    )
    out.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f"smoothed log growth rate</text>"
    )

    # dotted zero rule
    zero_y = py(0.0)
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{zero_y:.2f}" x2="{_WIDTH - _MARGIN_RIGHT}" '
        f'y2="{zero_y:.2f}" stroke="#555" stroke-width="1" stroke-dasharray="2,5"/>'
    )

    # y ticks
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{py(v) + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{v:.2f}</text>'
        )
    # x ticks on round years
    step = max(2, int(round((x_hi - x_lo) / 8 / 2)) * 2)
    year = x_lo + (-x_lo) % step
    while year <= x_hi:
        out.append(
            f'<line x1="{px(year):.2f}" y1="{bottom}" x2="{px(year):.2f}" '
            f'y2="{bottom + 5}" stroke="#000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px(year):.2f}" y="{bottom + 20}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{year}</text>'
        )
        year += step

    legend_x = _WIDTH - _MARGIN_RIGHT + 18
    for i, (label, bin_width, points) in enumerate(plotted):
        color = _COLORS[i % len(_COLORS)]
        # break the polyline where masked bins interrupt the series
        segments: list[list[tuple[int, float]]] = [[points[0]]]
        for (x_prev, _), (x, y) in zip(points, points[1:]):
            if x - x_prev > bin_width:
                segments.append([])
            segments[-1].append((x, y))
        for seg in segments:
            if len(seg) == 1:
                x, y = seg[0]
                out.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>'
                )
            else:
                coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in seg)
                out.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                    f'points="{coords}"/>'
                )
        ly = _MARGIN_TOP + 16 + i * 22
        out.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
