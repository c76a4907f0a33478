"""E6 — register-window overflow rates vs. number of windows.

Replays the measured call traces of the call-heavy benchmarks against 2,
4, 6, 8, 12 and 16-window register files.  The paper's design point: with
eight windows, real programs almost never overflow; with two, every other
call spills.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.analysis.windows import sweep
from repro.experiments import common

#: programs with interesting call behaviour (deep recursion included on
#: purpose — it stresses windows far harder than the paper's traces)
TRACED_WORKLOADS = ("ackermann", "towers", "qsort", "puzzle_subscript", "sed")

WINDOW_COUNTS = (2, 4, 6, 8, 12, 16)


def run(scale: str = "default") -> Table:
    table = Table(
        title="E6: % of calls causing window overflow vs. window count",
        headers=["program", "calls", "max depth"]
        + [f"{w} win" for w in WINDOW_COUNTS],
    )
    for name in TRACED_WORKLOADS:
        trace, _ = common.traced_run(name, scale)
        stats = sweep(trace, WINDOW_COUNTS)
        table.add_row(
            name,
            stats[0].calls,
            stats[0].max_depth,
            *[100.0 * s.overflow_rate for s in stats],
        )
    table.add_note("cells are percentages of calls that overflow the register file")
    return table
