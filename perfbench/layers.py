"""Compile and simulate operations, timed from outside the program.

Each operation calls the layers' public functions; a traced operation
calls the compiler one phase at a time so every phase gets its own span.
Checks compare against computations made apart from the program under
test: the pure-Python references of ``repro.workloads``, agreement of
three back ends, the paper's cycle rule and the pipeline model's
invariants.
"""

from __future__ import annotations

import dataclasses
import time

from repro.asm.assembler import assemble
from repro.baselines.vax.assembler import assemble_vax
from repro.baselines.vax.cpu import VaxCPU
from repro.cc import compile_program
from repro.cc.ciscgen import generate_cisc_assembly
from repro.cc.delay import optimize
from repro.cc.irgen import generate_ir
from repro.cc.irvm import run_ir
from repro.cc.parser import parse
from repro.cc.riscgen import generate_risc_assembly
from repro.cc.sema import analyze
from repro.core.cpu import CPU

#: RISC I instructions that touch data memory take two cycles, every other
#: instruction one; a window overflow or underflow trap costs its entry
#: and exit (8 cycles) plus 16 two-cycle register transfers.  This is the
#: paper's timing rule, restated here apart from ``repro.core.timing``.
MEMORY_OPCODES = frozenset(
    ("LDL", "LDSU", "LDSS", "LDBU", "LDBS", "STL", "STS", "STB")
)
WINDOW_TRAP_CYCLES = 8 + 16 * 2

#: The pipeline model configuration of the observed runs.
UARCH = True


@dataclasses.dataclass
class Image:
    """What one compile yields for one target."""

    program: object
    ir: object
    delay_stats: object
    assembly: str


def compile_op(source: str, label: str, tracer) -> tuple[Image, Image]:
    """One compile operation: the program for both targets."""
    filename = f"{label}.c"
    if not tracer.enabled:
        return tuple(
            Image(c.program, c.ir, c.delay_stats, c.assembly)
            for c in (compile_program(source, target, filename=filename)
                      for target in ("risc1", "cisc"))
        )
    span = tracer.span
    out = []
    for target in ("risc1", "cisc"):
        with span("cc.parse"):
            unit = parse(source)
        with span("cc.sema"):
            info, analyzer = analyze(unit)
        with span("cc.irgen"):
            ir = generate_ir(info, analyzer)
        if target == "risc1":
            with span("cc.riscgen"):
                asm = generate_risc_assembly(ir)
            with span("cc.delay"):
                asm, delay_stats = optimize(asm)
            with span("asm.assemble"):
                program = assemble(asm)
        else:
            delay_stats = None
            with span("cc.ciscgen"):
                asm = generate_cisc_assembly(ir)
            with span("vax.assemble"):
                program = assemble_vax(asm)
        out.append(Image(program, ir, delay_stats, asm))
    return out[0], out[1]


@dataclasses.dataclass
class SimResult:
    risc: object
    vax: object
    risc_observed: object
    vax_observed: object
    #: (seconds, calibration factor) of each run
    risc_exec: tuple
    vax_exec: tuple
    risc_obs: tuple
    vax_obs: tuple


def _load(cls, image: Image):
    machine = cls()
    machine.load(image.program)
    return machine


def simulate_op(risc: Image, cisc: Image, tracer, calibrator) -> SimResult:
    """One simulate operation: both machines on the fast engine, then both
    again with the pipeline model attached.  Each run is bracketed by
    calibration samples of its own."""
    span = tracer.span
    clock = time.perf_counter
    runs = []
    for layer, cls, image, options in (
        ("risc", CPU, risc, {}), ("vax", VaxCPU, cisc, {}),
        ("risc", CPU, risc, {"uarch": UARCH}), ("vax", VaxCPU, cisc, {"uarch": UARCH}),
    ):
        with span(layer + ".load"):
            machine = _load(cls, image)
        with span(layer + (".observed" if options else ".execute")):
            started = clock()
            result = machine.run(**options)
            elapsed = clock() - started
        with span("bench.calibrate"):
            runs.append((result, (elapsed, calibrator.bracket())))
    (r, r_t), (v, v_t), (ro, ro_t), (vo, vo_t) = runs
    return SimResult(r, v, ro, vo, r_t, v_t, ro_t, vo_t)


def reference_run(risc: Image, tracer):
    """The RISC reference ``step()`` loop on the same program."""
    with tracer.span("risc.load"):
        cpu = _load(CPU, risc)
    with tracer.span("risc.reference"):
        return cpu.run(engine="reference")


# -- checks ------------------------------------------------------------------------


def check_output(label: str, result, expected: str, exit_code: int) -> list[str]:
    errors = []
    if result.output != expected:
        errors.append(f"{label}: {result.machine} output {result.output[:60]!r} "
                      f"!= reference {expected[:60]!r}")
    if result.exit_code != exit_code:
        errors.append(f"{label}: {result.machine} exit {result.exit_code} != {exit_code}")
    return errors


def check_cycles(label: str, stats) -> list[str]:
    """The paper's RISC I timing rule, recomputed from the opcode counts."""
    errors = []
    counted = sum(stats.by_opcode.values())
    if counted != stats.instructions:
        errors.append(f"{label}: sum(by_opcode) {counted} != instructions {stats.instructions}")
    expected = sum(
        count * (2 if opcode.name in MEMORY_OPCODES else 1)
        for opcode, count in stats.by_opcode.items()
    ) + (stats.window_overflows + stats.window_underflows) * WINDOW_TRAP_CYCLES
    if expected != stats.cycles:
        errors.append(f"{label}: cycles {stats.cycles} != timing rule {expected}")
    return errors


def check_pipeline(label: str, result) -> list[str]:
    pipe = result.pipeline
    errors = []
    if pipe is None:
        return [f"{label}: {result.machine} observed run has no pipeline stats"]
    if pipe.instructions != result.stats.instructions:
        errors.append(f"{label}: {result.machine} pipeline retired {pipe.instructions} "
                      f"!= {result.stats.instructions}")
    if pipe.cycles < pipe.instructions + pipe.fill_cycles:
        errors.append(f"{label}: {result.machine} pipeline cycles {pipe.cycles} "
                      f"< instructions + fill {pipe.instructions + pipe.fill_cycles}")
    return errors


def check_agreement(label: str, risc: Image, cisc: Image) -> list[str]:
    """Generated programs have no reference: the RISC fast engine, the VAX
    fast engine and the IR interpreter must agree on output and exit code."""
    ir = run_ir(risc.ir)
    errors = []
    for result in (_load(CPU, risc).run(), _load(VaxCPU, cisc).run()):
        errors += check_output(label, result, ir.output, ir.exit_code)
        if result.machine == "risc1":
            errors += check_cycles(label, result.stats)
    return errors


def check_ir(label: str, risc: Image, expected: str) -> list[str]:
    """The IR interpreter against the pure-Python reference."""
    result = run_ir(risc.ir)
    if result.output != expected or result.exit_code != 0:
        return [f"{label}: IR interpreter output {result.output[:60]!r} != reference"]
    return []


def check_simulation(label: str, sim: SimResult, expected: str) -> list[str]:
    """Every check of one simulate operation; an empty list means it passed."""
    errors = []
    for result in (sim.risc, sim.vax):
        errors += check_output(label, result, expected, 0)
    for fast, observed in ((sim.risc, sim.risc_observed), (sim.vax, sim.vax_observed)):
        if observed.output != fast.output or observed.stats.to_dict() != fast.stats.to_dict():
            errors.append(f"{label}: {fast.machine} observed run differs from the untraced run")
        errors += check_pipeline(label, observed)
    errors += check_cycles(label, sim.risc.stats)
    return errors
