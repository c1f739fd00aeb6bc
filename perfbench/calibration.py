"""Calibration loops: scale a CPU time to a reference machine speed.

On a shared host the speed of a vCPU swings with the load of other guests,
in CPU time as well as in wall time.  On a 2-vCPU Intel Xeon virtual
machine, one d1 = 9 analyze-curve job repeated for a minute had 2-second
medians spread over 59% of their overall median (1.6x from slowest to
fastest); the same job's time divided by a Python-integer loop timed next
to it spread over 11%.  A prime-scan point count spread over 27%, and over
13% once divided by a numpy loop.  So every time the benchmark reports is

    CPU seconds of the job * REFERENCE_S[kind] / CPU seconds of the loop,

with the loop timed right before and right after the job: the job's time
on a machine where the loop takes REFERENCE_S[kind].  The loops are the
benchmark's own code and never call the program, so the scale factor
depends on the machine alone and a change to the program moves the scaled
time in the same proportion as its CPU time.

Two kinds of loop match the two kinds of work in the workloads:

    python  arbitrary-precision integer arithmetic in an interpreter loop
            (the Bareiss discriminants of curve-sweep, prime-scan's
            verify, which does not recount, and the imports and job
            generation of set-up)
    numpy   elementwise int64 array arithmetic (the point counts of
            prime-scan and the obstruction sweep of dio-sweep)
"""

from __future__ import annotations

import statistics
import time

_M521 = (1 << 521) - 1
_ARRAY_LEN = 1 << 13

# About the CPU seconds each loop takes on a 2-vCPU Intel Xeon virtual
# machine; they fix the unit of the scaled times, nothing else.
REFERENCE_S = {"python": 0.0005, "numpy": 0.0005}


def _python_loop() -> int:
    acc, x = 1, 0x9E3779B97F4A7C15F39CC0605CEDC834
    for i in range(600):
        acc = (acc * x + i) % _M521
        x ^= acc & 0xFFFF
    return acc


_array = None


def _numpy_loop() -> int:
    global _array
    import numpy

    if _array is None:
        _array = numpy.arange(_ARRAY_LEN, dtype=numpy.int64)
    a = _array
    for _ in range(12):
        a = (a * a + 7) % 1_000_003
    return int(a[-1])


_LOOPS = {"python": _python_loop, "numpy": _numpy_loop}


class Calibration:
    """Times one kind of loop and scales CPU times measured beside it."""

    def __init__(self, kind: str):
        self.kind = kind
        self._loop = _LOOPS[kind]
        self.samples: list[float] = []

    def probe(self) -> float:
        """CPU seconds of one pass of the loop (also kept in `samples`)."""
        t = time.process_time()
        self._loop()
        took = time.process_time() - t
        self.samples.append(took)
        return took

    def scale(self, cpu_s: float, before: float, after: float) -> float:
        """`cpu_s`, measured between probes `before` and `after`, at reference speed."""
        return cpu_s * REFERENCE_S[self.kind] * 2 / (before + after)

    def describe(self, what: str) -> str:
        ref = REFERENCE_S[self.kind]
        med = statistics.median(self.samples)
        return (f"calibration of {what}, {self.kind} loop: median {med * 1e3:.4f} ms over "
                f"{len(self.samples)} probes, reference {ref * 1e3:.4f} ms "
                f"(times scaled by about {ref / med:.3f})")
