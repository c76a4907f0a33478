"""Benchmark harness for the uarch pipeline model's cost.

Runs quicksort on the RISC I simulator three ways — no pipeline model,
one probe (the default ``bht2/full`` configuration), and the full
five-probe experiment sweep — and emits ``BENCH_pipeline.json``.  The
load-bearing number is the *disabled* path: ``run(uarch=None)`` attaches
nothing, so throughput must stay within noise of the plain run.  The
probe factors are informational (a probe appends every retire to a
buffer and replays it through Python accounting in chunks, so a real
slowdown is expected and recorded, not asserted).
"""

import json
import time

from repro.cc.driver import compile_program
from repro.core.cpu import CPU
from repro.farm.jobs import workload_source
from repro.uarch import UarchConfig, standard_sweep

WORKLOAD = "qsort"
REPEATS = 5


def _steps_per_s(program, uarch):
    best = 0.0
    for _ in range(REPEATS):
        cpu = CPU()
        cpu.load(program)
        started = time.perf_counter()
        result = cpu.run(max_steps=500_000_000, uarch=uarch)
        elapsed = time.perf_counter() - started
        assert result.exit_code == 0
        best = max(best, result.instructions / elapsed)
    return best


def _sweep_steps_per_s(program):
    from repro.uarch import run_with_pipeline

    best = 0.0
    for _ in range(REPEATS):
        cpu = CPU()
        cpu.load(program)
        started = time.perf_counter()
        result, stats = run_with_pipeline(
            cpu, standard_sweep(), max_steps=500_000_000
        )
        elapsed = time.perf_counter() - started
        assert result.exit_code == 0
        assert len(stats) == 5
        best = max(best, result.instructions / elapsed)
    return best


def test_pipeline_overhead(scale, capsys, bench_json):
    program = compile_program(workload_source(WORKLOAD, scale)).program

    baseline = _steps_per_s(program, None)
    off = _steps_per_s(program, None)  # second sample of the same path
    one_probe = _steps_per_s(program, UarchConfig())
    sweep = _sweep_steps_per_s(program)

    results = {
        "workload": WORKLOAD,
        "scale": scale,
        "repeats": REPEATS,
        "baseline_steps_per_s": round(baseline),
        "uarch_off_steps_per_s": round(off),
        "uarch_one_probe_steps_per_s": round(one_probe),
        "uarch_sweep5_steps_per_s": round(sweep),
        "uarch_off_overhead_pct": round((baseline - off) / baseline * 100.0, 2),
        "one_probe_slowdown_x": round(baseline / one_probe, 2),
        "sweep5_slowdown_x": round(baseline / sweep, 2),
    }
    bench_json("BENCH_pipeline.json", results)
    with capsys.disabled():
        print("\n" + json.dumps(results, indent=2))

    # the acceptance bar: uarch=None attaches nothing, so the fast
    # engine must stay within noise of the plain run
    assert off >= 0.90 * baseline, results
    # sanity: the probes actually measured something
    assert one_probe > 0 and sweep > 0
