"""Report documents, serialization, and plot-data export.

Reports are canonical: keys sorted, floats via repr, no timestamps, so
the same inputs always produce byte-identical output.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__

__all__ = ["ReportDocument", "plain", "emit_report", "emit_plot_data", "render_svg"]


def plain(obj: Any) -> Any:
    """Convert dataclasses/numpy containers to JSON-ready primitives."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return str(obj)


@dataclass(frozen=True)
class ReportDocument:
    """One report; emit_report converts each part with plain, once."""

    command: str
    config: Any
    tolerances: Any
    result: Any


def emit_report(doc: ReportDocument, fmt: str = "json") -> str:
    if fmt == "json":
        body = {
            "tool": {"name": "envcert", "version": __version__},
            "command": doc.command,
            "config": plain(doc.config),
            "tolerances": plain(doc.tolerances),
            "result": plain(doc.result),
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        rows: list[tuple[str, str]] = [("tool", "envcert"), ("version", __version__),
                                       ("command", doc.command)]
        _flatten("config", plain(doc.config), rows)
        _flatten("tolerances", plain(doc.tolerances), rows)
        _flatten("result", plain(doc.result), rows)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("key", "value"))
        for k, v in rows:
            w.writerow((k, v))
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}; choose json or csv")


def _flatten(prefix: str, val: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(val, dict):
        for k in sorted(val):
            _flatten(f"{prefix}.{k}", val[k], rows)
    elif isinstance(val, (list, tuple)):
        for i, item in enumerate(val):
            _flatten(f"{prefix}[{i}]", item, rows)
    elif val is None:
        rows.append((prefix, ""))
    elif isinstance(val, float):
        rows.append((prefix, repr(val)))
    else:
        rows.append((prefix, str(val)))


def emit_plot_data(
    columns: Sequence[tuple[str, Callable[[np.ndarray], np.ndarray]]],
    interval: tuple[float, float],
    samples: int = 512,
) -> tuple[str, dict[str, np.ndarray]]:
    """Tabulate named curves on a shared grid as CSV.

    Evaluation failures become empty cells and are flagged in a header
    comment.  Returns the CSV text and the raw column arrays (for the
    SVG renderer).
    """
    lo, hi = float(interval[0]), float(interval[1])
    xs = np.linspace(lo, hi, samples)
    data: dict[str, np.ndarray] = {}
    failed: list[str] = []
    for name, fn in columns:
        with np.errstate(all="ignore"):
            try:
                vals = np.asarray(fn(xs), dtype=float)
            except Exception:
                vals = np.full_like(xs, np.nan)
        if not np.isfinite(vals).all():
            failed.append(name)
        data[name] = vals

    buf = io.StringIO()
    if failed:
        buf.write(f"# empty cells mark evaluation failures in: {', '.join(failed)}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["x"] + [name for name, _ in columns])
    for i, x in enumerate(xs):
        row = [repr(float(x))]
        for name, _ in columns:
            v = data[name][i]
            row.append(repr(float(v)) if np.isfinite(v) else "")
        w.writerow(row)
    return buf.getvalue(), {"x": xs, **data}


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")


def render_svg(arrays: dict[str, np.ndarray], title: str = "") -> str:
    """Minimal standalone line plot: one polyline per column vs x."""
    xs = arrays["x"]
    names = [k for k in arrays if k != "x"]
    finite_vals = np.concatenate(
        [arrays[n][np.isfinite(arrays[n])] for n in names] or [np.array([0.0, 1.0])]
    )
    if finite_vals.size == 0:
        finite_vals = np.array([0.0, 1.0])
    y_lo, y_hi = float(finite_vals.min()), float(finite_vals.max())
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())

    W, H, M = 800, 600, 56

    def sx(x: float) -> float:
        return M + (x - x_lo) / (x_hi - x_lo) * (W - 2 * M)

    def sy(y: float) -> float:
        return H - M - (y - y_lo) / (y_hi - y_lo) * (H - 2 * M)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" stroke="black"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{W // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{H - M + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{M - 6}" y="{sy(yv):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.3g}</text>'
        )
    for idx, name in enumerate(names):
        color = _PALETTE[idx % len(_PALETTE)]
        ys = arrays[name]
        segs: list[list[str]] = [[]]
        for x, y in zip(xs, ys):
            if np.isfinite(y):
                segs[-1].append(f"{sx(float(x)):.2f},{sy(float(y)):.2f}")
            elif segs[-1]:
                segs.append([])
        for seg in segs:
            if len(seg) >= 2:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        parts.append(
            f'<text x="{W - M - 6}" y="{M + 16 * idx}" font-family="sans-serif" '
            f'font-size="11" fill="{color}" text-anchor="end">{_esc(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
