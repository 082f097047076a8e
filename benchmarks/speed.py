"""Machine-speed reference for the hcimpact benchmark.

On a shared virtual machine the CPU speed a process gets drifts with its
neighbours' load, in phases of seconds to minutes, by up to about 1.7×.
A whole run can fall in a fast or a slow phase, so raw wall times of two
runs of the same code can differ by more than any change worth
measuring.

``Speed`` times a fixed reference kernel right before and right after
every timed task (an operation or a set-up). The kernel does no
``hcimpact`` work: a pure-Python dictionary and float loop, small numpy
array arithmetic and CSV-like float parsing, the three kinds of work the
engine does. A task's speed factor is ``REF_PASS_S`` over the mean time
of one kernel pass in the two measurements around it, and its normalised
time is its raw time times that factor: the time the task would take on
a machine where one pass takes ``REF_PASS_S``. The kernel never changes,
so a change to the engine moves the normalised times and a change of
machine speed, which moves task and kernel alike, cancels.
"""

from __future__ import annotations

import time

import numpy as np

REF_PASS_S = 0.020  # nominal time of one kernel pass

_VECTOR = np.linspace(0.1, 2.0, 20)
_TEXT = "\n".join(",".join(f"{(i * 7 + j) % 1000 / 7:.6f}" for j in range(12)) for i in range(400))


def kernel_pass() -> float:
    """One pass of the reference kernel; returns a checksum so no work is skipped."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(20_000):
        k = i % 97
        acc += table.get(k, 0.5) * 1.000001
        table[k] = acc % 3.0
    for i in range(2_000):
        shifted = _VECTOR * 1.01 + i
        acc += float(np.sum(shifted[1:] * _VECTOR[:-1]))
    for line in _TEXT.split("\n"):
        acc += sum(float(x) for x in line.split(","))
    return acc


class Speed:
    """Reference-kernel timings around timed tasks."""

    def __init__(self, passes: int) -> None:
        self.passes = passes
        self.pass_s: list[float] = []  # every measurement, in order
        self.refresh()

    def measure(self) -> float:
        """Mean wall time of one kernel pass over ``passes`` passes."""
        t0 = time.perf_counter()
        for _ in range(self.passes):
            kernel_pass()
        s = (time.perf_counter() - t0) / self.passes
        self.pass_s.append(s)
        return s

    def refresh(self) -> None:
        """Measure now, as the 'before' of the next task."""
        self.last = self.measure()

    def factor(self) -> float:
        """Speed factor of the task that just ended: measures once more."""
        before = self.last
        self.refresh()
        return REF_PASS_S / ((before + self.last) / 2)
