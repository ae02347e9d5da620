"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of this process drifts: identical job batches
took anywhere from 0.94 s to 1.50 s within a few minutes, and CPU time
drifted just as much as wall time (so the cause is not CPU steal).  The
run therefore times a fixed calibration task between every two jobs and
divides each job's time by the mean of the calibration times just before
and just after it.  The quotient is expressed in reference-speed
milliseconds: times as they would read if the calibration task took
REFERENCE_S.

The task imitates nsfd's instruction mix (closure calls, float arithmetic
with division, tuples, attribute access, try/except, float formatting and
small numpy arrays) but never calls nsfd.  So a change to the package moves
the job times and leaves the calibration alone.  Editing this file
rescales every reported time: it is a change to the benchmark.
"""

import gc
import time

import numpy as np

REFERENCE_S = 1.5e-3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _task():
    a, b, c = 2.0, 1.0, 0.7
    f_minus = lambda x, y: b * x + a * y / (c + x)  # noqa: E731
    g_plus = lambda x, y: x / (c + x)  # noqa: E731

    def step(x, y, h):
        return (x * (1.0 + h * b) / (1.0 + h * f_minus(x, y)),
                y * (1.0 + h * g_plus(x, y)) / (1.0 + h * 0.2))

    x, y = 0.4, 0.4
    lines, points = [], []
    for i in range(600):
        try:
            x, y = step(x, y, 0.5)
        except ZeroDivisionError:
            x = y = 0.5
        p = _Point(x, y)
        points.append((p.x, p.y))
        if i % 4 == 0:
            lines.append(f"{i},{x:.17g},{y:.17g}")
    arr = np.array(points)
    for _ in range(40):
        arr = np.sqrt(arr * arr + 1e-3) * 0.999
    return len("\n".join(lines)) + float(arr.sum())


def sample():
    """Seconds the calibration task takes now (garbage collection held off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before, after):
    """Factor that turns a time measured between two samples into reference-speed time."""
    return REFERENCE_S / (0.5 * (before + after))
