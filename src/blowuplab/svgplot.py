"""Minimal self-contained SVG scatter/line output (plots are a convenience;
the CSV files are the data contract)."""

from __future__ import annotations

import numpy as np

from .fileio import atomic_open


def svg_scatter(path, series, title=""):
    """series: list of dicts with keys points ((n,2) array), color, marker
    ('o' or 'x'), label."""
    size, margin = 480, 40      # square canvas and frame inset, in pixels
    pts = np.vstack([np.zeros((0, 2))]
                    + [np.reshape(s["points"], (-1, 2)) for s in series])
    if len(pts) == 0:
        pts = np.zeros((1, 2))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    lo = lo - 0.08 * span
    hi = hi + 0.08 * span
    span = hi - lo

    def to_px(p):
        x = margin + (p[0] - lo[0]) / span[0] * (size - 2 * margin)
        y = size - margin - (p[1] - lo[1]) / span[1] * (size - 2 * margin)
        return x, y

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">',
           f'<rect width="{size}" height="{size}" fill="white"/>',
           f'<text x="{size / 2}" y="20" text-anchor="middle" '
           f'font-family="sans-serif" font-size="13">{title}</text>']
    # axes frame
    out.append(f'<rect x="{margin}" y="{margin}" width="{size - 2 * margin}" '
               f'height="{size - 2 * margin}" fill="none" stroke="#999"/>')
    legend_y = margin + 14
    for s in series:
        color = s.get("color", "#1f6fb2")
        marker = s.get("marker", "o")
        for p in np.reshape(s["points"], (-1, 2)):
            x, y = to_px(p)
            if marker == "o":
                out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
            else:
                out.append(f'<path d="M{x - 4:.2f},{y - 4:.2f} L{x + 4:.2f},{y + 4:.2f} '
                           f'M{x - 4:.2f},{y + 4:.2f} L{x + 4:.2f},{y - 4:.2f}" '
                           f'stroke="{color}" stroke-width="1.5"/>')
        if s.get("label"):
            out.append(f'<text x="{size - margin - 4}" y="{legend_y}" text-anchor="end" '
                       f'font-family="sans-serif" font-size="11" fill="{color}">'
                       f'{s["label"]}</text>')
            legend_y += 14
    out.append("</svg>")
    with atomic_open(path) as fh:
        fh.write("\n".join(out))

