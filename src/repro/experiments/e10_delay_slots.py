"""E10 — delayed-jump slot utilization.

RISC I's delayed jumps only pay off if the compiler can put useful work in
the slot after each control transfer.  Two measurements per benchmark:

* static: what fraction of delay slots the peephole optimizer filled
  (by slot kind — the RETURN slot is always filled with the frame pop,
  CALL slots are conservatively never filled);
* dynamic: instructions and cycles actually saved, from running the same
  program compiled with and without the optimizer — both on the
  architectural cycle counter and through the :mod:`repro.uarch`
  pipeline model, where every squashed slot is a real fetched bubble.
"""

from __future__ import annotations

from repro.analysis.report import Table
from repro.cc.driver import compile_ir, compile_to_ir, run_compiled
from repro.experiments import common
from repro.uarch import UarchConfig
from repro.workloads import ALL_WORKLOADS, BENCHMARK_SUITE


def run(scale: str = "default") -> Table:
    table = Table(
        title="E10: delay-slot filling (static fill rate, dynamic savings)",
        headers=[
            "program",
            "slots",
            "filled",
            "fill rate %",
            "insts saved %",
            "cycles saved %",
            "pipe cycles saved %",
        ],
    )
    base = UarchConfig()
    for name in BENCHMARK_SUITE:
        source = common.workload_source(name, scale)
        ir_program = compile_to_ir(source)
        optimized = compile_ir(ir_program, "risc1", fill_delay_slots=True, source=source)
        raw = compile_ir(ir_program, "risc1", fill_delay_slots=False, source=source)
        run_optimized = common.executed(name, "risc1", scale)
        # live re-runs under the pipeline probe: the farm result carries
        # no pipeline stats, and the raw compile must run anyway
        pipe_optimized = run_compiled(optimized, max_steps=500_000_000, uarch=base)
        run_raw = run_compiled(raw, max_steps=500_000_000, uarch=base)
        expected = ALL_WORKLOADS[name].expected_output(
            **(ALL_WORKLOADS[name].bench_params if scale == "bench" else {})
        )
        assert run_raw.output == expected, f"unoptimized {name} wrong"
        stats = optimized.delay_stats
        insts_saved = 100.0 * (
            1 - run_optimized.stats.instructions / run_raw.stats.instructions
        )
        cycles_saved = 100.0 * (
            1 - run_optimized.stats.cycles / run_raw.stats.cycles
        )
        pipe_saved = 100.0 * (
            1 - pipe_optimized.pipeline.cycles / run_raw.pipeline.cycles
        )
        table.add_row(
            name,
            stats.total_slots,
            stats.total_filled,
            100.0 * stats.fill_rate,
            insts_saved,
            cycles_saved,
            pipe_saved,
        )
    table.add_note(
        "window rotation is deferred past the delay slot, so call slots "
        "carry argument moves and return slots the result move / frame pop"
    )
    table.add_note(
        f"pipe cycles saved: same two programs timed by the {base.label} "
        "pipeline model, where an unfilled slot is a fetched nop bubble"
    )
    return table
