"""Register-window overflow analysis (experiment E6).

Replays the call/return trace of a real program run against register files
with different window counts and reports how often a call overflows (and a
return underflows), plus the spill traffic in registers.  This is the
measurement behind the paper's choice of eight windows: with enough
windows, the call-depth *excursions* of real programs almost never leave
the file.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

#: A call trace: ("call" | "ret", depth-after-event), as produced by
#: ``CPU(trace_calls=True)``.
Trace = Sequence[tuple[str, int]]


@dataclasses.dataclass(frozen=True)
class WindowStats:
    """Outcome of replaying one trace against one window count."""

    num_windows: int
    calls: int
    returns: int
    overflows: int
    underflows: int
    registers_spilled: int
    max_depth: int

    @property
    def overflow_rate(self) -> float:
        """Fraction of calls that caused a window overflow."""
        return self.overflows / self.calls if self.calls else 0.0


def replay(trace: Trace, num_windows: int, regs_per_window: int = 16) -> WindowStats:
    """Replay a call trace against a ``num_windows``-window file."""
    if num_windows < 2:
        raise ValueError("need at least 2 windows")
    max_resident = num_windows - 1
    resident = 1
    calls = returns = overflows = underflows = 0
    spilled = 0
    max_depth = depth = 1
    for event, _depth in trace:
        if event == "call":
            calls += 1
            depth += 1
            max_depth = max(max_depth, depth)
            if resident == max_resident:
                overflows += 1
                spilled += regs_per_window
            else:
                resident += 1
        elif event == "ret":
            returns += 1
            depth -= 1
            if resident == 1:
                underflows += 1
            else:
                resident -= 1
        else:
            raise ValueError(f"unknown trace event {event!r}")
    return WindowStats(
        num_windows=num_windows,
        calls=calls,
        returns=returns,
        overflows=overflows,
        underflows=underflows,
        registers_spilled=spilled,
        max_depth=max_depth,
    )


def sweep(trace: Trace, window_counts: Iterable[int] = (2, 4, 6, 8, 12, 16)) -> list[WindowStats]:
    """Replay one trace across several window counts."""
    return [replay(trace, count) for count in window_counts]
