"""CSV and SVG artifact writers.

Every artifact is a pure function of its input data, so identical runs
produce byte-identical files.  Files are written atomically (temp + rename).
"""
from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

from .costs import CostWeights
from .sim import SlotReport

REPORT_HEADER = (
    "slot,seed,alpha,beta,gamma,active_racks,active_pms,migrations,"
    "c_ene,c_rel,g_rel,objective,wall_time"
)


class OutputError(RuntimeError):
    pass


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def report_row(report: SlotReport, seed, weights: CostWeights) -> str:
    fields = [
        report.slot,
        seed,
        weights.alpha,
        weights.beta,
        weights.gamma,
        report.active_racks,
        report.active_pms,
        report.n_migrations,
        report.c_ene,
        report.c_rel,
        report.g_rel,
        report.objective,
        report.wall_time,
    ]
    return ",".join(_fmt(f) for f in fields)


def mean_row(reports: list[SlotReport], weights: CostWeights) -> str:
    """`report_row` of the first report, with "mean" as its seed and each
    count and cost replaced by its mean over `reports`."""
    n = len(reports)
    means = {name: sum(getattr(r, name) for r in reports) / n
             for name in ("active_racks", "active_pms", "n_migrations", "c_ene", "c_rel",
                          "g_rel", "objective", "wall_time")}
    return report_row(replace(reports[0], **means), "mean", weights)


def write_report_csv(path: str | Path, rows: list[str]) -> None:
    if not rows:
        raise OutputError("refusing to write an empty report CSV")
    write_text(path, REPORT_HEADER + "\n" + "\n".join(rows) + "\n")


def write_placement_csv(path: str | Path, hosts) -> None:
    lines = ["vm_id,pm_id"] + [f"{v},{int(p)}" for v, p in enumerate(hosts)]
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# minimal deterministic SVG plotting

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in vals]


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _axes(title: str, xlabel: str, ylabel: str, xlo, xhi, ylo, yhi) -> list[str]:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>',
    ]
    for t in _ticks(xlo, xhi):
        (x,) = _scale([t], xlo, xhi, _ML, _W - _MR)
        out.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 4}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle">{t:.4g}</text>')
    for t in _ticks(ylo, yhi):
        (y,) = _scale([t], ylo, yhi, _H - _MB, _MT)
        out.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{t:.4g}</text>')
    return out


def svg_line_plot(title: str, xlabel: str, ylabel: str,
                  series: list[tuple[str, list[float], list[float]]]) -> str:
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    xlo, xhi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    ylo, yhi = (min(ys_all + [0.0]), max(ys_all + [0.0])) if ys_all else (0.0, 1.0)
    out = _axes(title, xlabel, ylabel, xlo, xhi, ylo, yhi)
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        px = _scale(xs, xlo, xhi, _ML, _W - _MR)
        py = _scale(ys, ylo, yhi, _H - _MB, _MT)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(px, py):
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>')
        out.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 16 * (i + 1)}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def svg_bar_plot(title: str, ylabel: str, categories: list[str],
                 series: list[tuple[str, list[float]]]) -> str:
    ys_all = [y for _, ys in series for y in ys]
    ylo, yhi = 0.0, (max(ys_all) if ys_all else 1.0)
    out = _axes(title, "", ylabel, 0.0, float(len(categories)), ylo, yhi)
    n_groups = len(categories)
    n_series = max(len(series), 1)
    group_w = (_W - _ML - _MR) / max(n_groups, 1)
    bar_w = group_w * 0.8 / n_series
    for i, (label, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        for g, y in enumerate(ys):
            x0 = _ML + g * group_w + group_w * 0.1 + i * bar_w
            (y_top,) = _scale([y], ylo, yhi, _H - _MB, _MT)
            h = (_H - _MB) - y_top
            out.append(
                f'<rect x="{x0:.2f}" y="{y_top:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="{color}"/>'
            )
        out.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 16 * (i + 1)}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    for g, cat in enumerate(categories):
        x = _ML + (g + 0.5) * group_w
        out.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle">{cat}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
