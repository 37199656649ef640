"""A fixed piece of pure-Python work that measures how fast the machine runs now.

The machine the benchmark was written on shares two cores with other
work and switches between speeds that differ by a factor of about two,
for under a second to minutes at a time; an operation's time moves with
it.  The benchmark therefore runs this reference next to every operation
and scales the operation's time by REFERENCE_NS over the reference's
time, which gives the time the operation would take when the reference
takes REFERENCE_NS.  The work imitates the program's mix: text parsed into
validated frozen dataclasses and formatted back, and a float loop.

This file must not change between two measurements that are compared.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

#: Reference time the scaled timings refer to: the median of
#: :func:`reference_ns` on a shared 2-core x86_64 machine (Python 3.11) in its
#: faster state.
REFERENCE_NS = 600_000

_TEXT = "\n".join(f"{i * 0.01!r} {math.sin(i)!r} {math.cos(i)!r} {i * 1e-3!r}" for i in range(40))


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError("non-finite component")


def _text_work() -> int:
    rows = []
    for line in _TEXT.split("\n"):
        _, x, y, z = (float(p) for p in line.split())
        rows.append(_Point(x, y, z))
    return len("\n".join(" ".join(f"{v:.12g}" for v in (r.x, r.y, r.z)) for r in rows))


def _float_work() -> float:
    a, b, c = 0.1, 0.2, 0.3
    for _ in range(2000):
        a, b, c = b * 0.5 + c * 0.25, c - a * 0.125, a * b + 0.5
    return a


def reference_ns() -> int:
    """Run the reference once; its wall time in nanoseconds."""
    start = time.perf_counter_ns()
    _text_work()
    _float_work()
    return time.perf_counter_ns() - start
