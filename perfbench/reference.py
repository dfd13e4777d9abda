"""A fixed reference computation that measures how fast the host runs now.

The host these figures come from is shared, and for minutes at a time it
runs everything up to 1.7x slower than at other times.  `run.py` and
`worker.py` time this computation next to the program's work, in the same
process, and scale the times they report by ``NOMINAL_S / reference time``:
a time of the program on the host as it ran at that moment becomes a time
on a host that runs one reference unit in `NOMINAL_S` seconds.  The
reference does not use the package, so a faster or slower program moves
the scaled times as it moves the real ones.

One unit mixes what the package's workloads do: scalar math on small numpy
arrays and frozen dataclasses (the trajectory kernels), elementwise math on
a grid with a reduction (the oracle), and float formatting to CSV and JSON
(the CLI).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = 0.005  # time of one reference unit that the scaled figures assume


@dataclass(frozen=True)
class _Point:
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("non-finite angle")


_THETA = np.linspace(0.0, math.pi, 100)[:, None]
_PHI = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)[None, :]


def _scalar(k: int) -> float:
    acc = 0.0
    for i in range(50):
        t = 0.013 * (i + k)
        a = np.array([math.sin(t) * math.cos(2 * t), math.sin(t) * math.sin(2 * t), math.cos(t)])
        b = np.cross(a, (0.0, 0.0, 1.0))
        n = float(np.linalg.norm(b)) + 1e-12
        c = max(-1.0, min(1.0, float(np.dot(a, b / n)) + float(a[2])))
        p = _Point(math.acos(c), t % (2.0 * math.pi))
        q = min(1.0 - 1e-12, max(1e-12, 0.5 * (1.0 + math.cos(p.theta))))
        acc += -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)
    return acc


def _grid() -> float:
    dot = np.sin(_THETA) * np.cos(_PHI) * 0.6 + np.cos(_THETA) * 0.8
    p = np.clip(0.5 * (1.0 + dot), 1e-12, 1.0 - 1e-12)
    h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return float(np.where(np.abs(h - 0.5) <= 0.1, h, np.inf).min())


def _text(k: int) -> int:
    rows = [f"{0.01 * i!r},{math.sin(0.01 * i + k)!r},{math.cos(0.01 * i)!r}" for i in range(150)]
    doc = json.dumps([{"index": i, "value": math.exp(-0.01 * i)} for i in range(60)])
    return len("\n".join(rows)) + len(doc)


def unit(k: int = 0) -> float:
    """One reference unit; returns a value so that no part is skipped."""
    return _scalar(k) + _grid() + _text(k)


def seconds(units: int) -> float:
    """Mean wall time of one unit over `units` units run back to back."""
    t0 = time.perf_counter()
    for k in range(units):
        unit(k)
    return (time.perf_counter() - t0) / units
