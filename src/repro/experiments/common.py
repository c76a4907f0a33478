"""Shared plumbing for the experiment harnesses.

Compilation and simulation results are cached in two layers: a
per-process ``functools.lru_cache`` (L1, so experiments sharing
measurements — E8 and E9, for instance — pay for each run once per
process) over the farm's content-addressed on-disk cache (L2, so
nothing is recompiled or re-simulated across invocations unless the
workload source or the toolchain changed).  Submissions flow through
the process-wide :func:`repro.farm.api.shared_client`, so every
in-process consumer shares one in-flight dedupe map and the workload
arguments use the common ``NAME[:ARG]`` spec grammar.
Set ``REPRO_FARM_CACHE=0`` to disable the on-disk layer.

Every simulated run here resolves its execution engine from
``$REPRO_ENGINE`` (set by ``risc1-experiments --engine``) rather than a
threaded-through parameter: the engines are differentially identical, so
neither the L1 caches nor the farm's artifact keys need an engine
component.
"""

from __future__ import annotations

import functools

from repro.analysis.windows import CallTracer
from repro.cc.driver import CompiledProgram
from repro.cc.irvm import IRResult
from repro.core.cpu import CPU
from repro.farm.api import JobSpec, shared_client
from repro.farm.jobs import workload_source
from repro.obs.ledger import ledger_context
from repro.obs.metrics import MetricsRegistry, record_machine_run
from repro.workloads import ALL_WORKLOADS

__all__ = [
    "CISC_CYCLE_NS",
    "RISC_CYCLE_NS",
    "cisc_ms",
    "compiled",
    "enable_metrics",
    "executed",
    "ir_profile",
    "metrics_registry",
    "profiled",
    "risc_ms",
    "traced_run",
    "workload_source",
]

#: simulated clock periods, as in the paper's comparison
RISC_CYCLE_NS = 400.0
CISC_CYCLE_NS = 200.0

#: process-wide metrics sink; ``None`` until :func:`enable_metrics` is called
_metrics: MetricsRegistry | None = None


def enable_metrics() -> MetricsRegistry:
    """Turn on run accounting for this process; returns the shared registry.

    Once enabled, every *distinct* workload run that flows through
    :func:`executed` (one per L1-cache entry, so re-reads of the same
    measurement are not double-counted) is folded into the registry.
    """
    global _metrics
    if _metrics is None:
        _metrics = MetricsRegistry()
    return _metrics


def metrics_registry() -> MetricsRegistry | None:
    """The shared registry, or ``None`` when metrics are disabled."""
    return _metrics


@functools.lru_cache(maxsize=None)
def compiled(name: str, target: str, scale: str = "default") -> CompiledProgram:
    """Compile a ``NAME[:ARG]`` workload spec through the shared farm client."""
    spec = JobSpec(workload=name, kind="compile", target=target, scale=scale)
    return shared_client().submit(spec).result()


@functools.lru_cache(maxsize=None)
def executed(name: str, target: str, scale: str = "default"):
    """Run a workload on its target simulator (output-verified by the farm)."""
    spec = JobSpec(workload=name, kind="execute", target=target, scale=scale)
    result = shared_client().submit(spec).result()
    if _metrics is not None:
        record_machine_run(_metrics, result)
    return result


@functools.lru_cache(maxsize=None)
def ir_profile(name: str, scale: str = "default") -> IRResult:
    """Dynamic IR profile of a workload (verified against the oracle)."""
    return shared_client().submit(JobSpec(workload=name, kind="ir", scale=scale)).result()


@functools.lru_cache(maxsize=None)
def profiled(spec: str, target: str = "risc1"):
    """Profile a ``NAME[:ARG]`` workload spec on one machine.

    Returns ``(profile, run_result)``.  Not farm-cached: the profile is
    built streaming off the live run, and one L1 entry per (spec, target)
    keeps repeated report forms free within a process.
    """
    from repro.cc.driver import compile_program
    from repro.obs.profile import profile_run
    from repro.workloads import ALL_WORKLOADS, parse_workload_spec

    name, overrides = parse_workload_spec(spec)
    source = ALL_WORKLOADS[name].source(**overrides)
    compiled_program = compile_program(source, target=target, filename=f"{name}.c")
    with ledger_context(workload=spec, source="experiments"):
        return profile_run(compiled_program, max_steps=500_000_000, workload=spec)


@functools.lru_cache(maxsize=None)
def traced_run(name: str, scale: str = "default", num_windows: int = 8):
    """Run a workload on RISC I and collect its call trace.

    Returns ``(trace, run_result)``, the trace as
    :class:`~repro.analysis.windows.CallTracer` collects it.  Not
    farm-cached: the trace is built off the live run.
    """
    program = compiled(name, "risc1", scale)
    tracer = CallTracer()
    cpu = CPU(num_windows=num_windows, tracer=tracer)
    cpu.load(program.program)
    with ledger_context(workload=name, scale=scale, source="experiments"):
        result = cpu.run(max_steps=500_000_000)
    return tracer.trace, result


def risc_ms(cycles: int) -> float:
    return cycles * RISC_CYCLE_NS / 1e6


def cisc_ms(cycles: int) -> float:
    return cycles * CISC_CYCLE_NS / 1e6
