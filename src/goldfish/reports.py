"""Serialisation of runs: JSON reports, trajectory CSV, and plain SVG plots.

Reports are deterministic: fields appear in fixed insertion order and no
timestamps are embedded unless timing is explicitly requested, so reruns
with the same configuration and seed are byte-identical.  Exact rationals
serialise as ``"numerator/denominator"`` strings; complex numbers as
``[re, im]`` pairs.
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "jsonify",
    "make_report",
    "render_report",
    "write_report",
    "write_trajectory_csv",
    "write_trajectory_svg",
]

SCHEMA_VERSION = 1


def jsonify(value):
    """Map values onto the JSON-friendly forms used by all reports."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.complexfloating,)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def make_report(command: str, parameters: dict, results, failures=(), wall_clock_s=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": jsonify(parameters),
        "results": jsonify(results),
        "failures": jsonify(list(failures)),
        "wall_clock_s": wall_clock_s,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_report(report: dict, path=None) -> str:
    text = render_report(report)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# trajectory CSV


def write_trajectory_csv(times, values, path=None, label="z", velocities=None):
    """CSV with header ``t,re_<label>1,im_<label>1,...`` and 17 significant
    digits per value (full double round-trip precision)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=complex)
    n = values.shape[1]
    cols = [f"re_{label}{k + 1},im_{label}{k + 1}" for k in range(n)]
    if velocities is not None:
        velocities = np.asarray(velocities, dtype=complex)
        cols += [f"re_d{label}{k + 1},im_d{label}{k + 1}" for k in range(n)]
    lines = ["t," + ",".join(cols)]
    for j, t in enumerate(times):
        row = [f"{t:.17g}"]
        for z in values[j]:
            row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        if velocities is not None:
            for z in velocities[j]:
                row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# SVG plot of complex-plane curves

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)


def write_trajectory_svg(values, path=None):
    """Static complex-plane plot, 640 pixels square: one polyline per column of ``values``."""
    size = 640
    values = np.asarray(values, dtype=complex)
    xs, ys = values.real, values.imag
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    span = max(x1 - x0, y1 - y0, 1e-6)
    pad = 0.05 * span
    x0, y0 = x0 - pad, y0 - pad
    span += 2 * pad

    def sx(x):
        return (x - x0) / span * size

    def sy(y):
        # SVG y axis points down
        return size - (y - y0) / span * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for k in range(values.shape[1]):
        pts = " ".join(
            f"{sx(float(x)):.3f},{sy(float(y)):.3f}" for x, y in zip(xs[:, k], ys[:, k])
        )
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
