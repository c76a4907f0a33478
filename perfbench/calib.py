"""Host-speed calibration.

The host this benchmark runs on drifts: the same fixed Python loop can run
noticeably faster or slower from one minute to the next.  Every host-time
figure is therefore corrected by a calibration rate measured right around
the operation that produced it.  The kernel is pure Python, so it slows
down with the interpreter-bound code under test when the host is busy.

``corrected time = raw time * (measured rate / REFERENCE_RATE)``, and the
inverse for rates (MIPS, jobs per second).
"""

from __future__ import annotations

import time

#: Kernel iterations per second on the reference host (a 2-vCPU x86-64
#: container, CPython 3.11).  A corrected figure reads as "what this would
#: have taken on the reference host"; only ratios between runs matter.
REFERENCE_RATE = 2.4e6

#: Iterations per calibration sample (about half a millisecond).
_ITERATIONS = 2000


def _kernel(n: int) -> int:
    regs = [0] * 32
    table: dict[int, int] = {}
    acc = 1
    for i in range(n):
        r = i & 31
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        regs[r] = (regs[r] + (acc >> 7)) & 0xFFFF
        if acc & 1:
            table[r] = regs[r]
        else:
            acc ^= table.get(r, 0)
    return acc


def sample() -> float:
    """One calibration rate in kernel iterations per second (best of 3)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _kernel(_ITERATIONS)
        best = min(best, time.perf_counter() - started)
    return _ITERATIONS / best


class Calibrator:
    """Brackets operations with calibration samples.

    ``bracket()`` returns the factor for the operation that just ended: the
    mean of the rates sampled before and after it, over the reference rate.
    Consecutive operations share the sample between them.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []
        self._last = sample()

    def restart(self) -> None:
        self._last = sample()

    def bracket(self) -> float:
        after = sample()
        rate = (self._last + after) / 2
        self._last = after
        self.rates.append(rate)
        return rate / REFERENCE_RATE
