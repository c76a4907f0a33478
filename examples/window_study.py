"""Design-space study: how many register windows does a workload need?

Reproduces the analysis behind the paper's eight-window decision: run each
benchmark once with call tracing, replay the trace against hypothetical
register files of 2..16 windows, and report the overflow rate and the
total spill traffic.  Deep recursion (Ackermann) is deliberately included
as the pathological case the paper acknowledges.

Run:  python examples/window_study.py
"""

from repro.analysis.windows import sweep
from repro.experiments import common

WORKLOADS = ("towers", "qsort", "sed", "puzzle_subscript", "ackermann")
WINDOW_COUNTS = (2, 3, 4, 6, 8, 12, 16)

print(f"{'program':<18} {'calls':>7} {'depth':>6}  " +
      "  ".join(f"{w:>3}w" for w in WINDOW_COUNTS))
print("-" * 78)
for name in WORKLOADS:
    trace, _ = common.traced_run(name, "default")
    stats = sweep(trace, WINDOW_COUNTS)
    rates = "  ".join(f"{100 * s.overflow_rate:4.0f}" for s in stats)
    print(f"{name:<18} {stats[0].calls:>7} {stats[0].max_depth:>6}  {rates}")

print("""
Reading: cells are the percentage of calls that overflow the register
file.  Ordinary programs stop overflowing by 6-8 windows — the paper's
design point — while unbounded recursion keeps thrashing any finite file
(the spills then behave like a conventional calling convention's saves).
""")

# spill traffic view for one program
name = "towers"
trace, _ = common.traced_run(name, "default")
print(f"spill traffic for {name!r} (registers written to memory):")
for stats in sweep(trace, WINDOW_COUNTS):
    bar = "#" * int(60 * stats.registers_spilled / (16 * stats.calls or 1))
    print(f"  {stats.num_windows:>2} windows: {stats.registers_spilled:>6} regs {bar}")
