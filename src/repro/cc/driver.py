"""Compiler driver: mini-C source to a runnable program image.

Targets:

* ``"risc1"`` — the paper's machine (laid out by :mod:`repro.asm`);
* ``"cisc"`` — the VAX-like baseline (laid out by
  :mod:`repro.baselines.vax.assembler`).

Only the lexer reads text.  :func:`compile_ir` lowers one IR for a
target: the code generator's statement list goes through the delay-slot
filler to the layout pass; the assembly text is a rendering of it.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Optional

from repro.asm.core import render
from repro.cc.delay import DelayStats, fill_delay_slots as fill_slots
from repro.cc.errors import CompileError
from repro.cc.ir import IRProgram
from repro.cc.irgen import generate_ir
from repro.cc.parser import parse
from repro.cc.sema import analyze
from repro.core.program import Program
from repro.obs.profiling import span

TARGETS = ("risc1", "cisc")


@dataclasses.dataclass
class CompiledProgram:
    """Everything the experiments need from one compilation."""

    target: str
    assembly: str
    program: Program
    ir: IRProgram
    delay_stats: Optional[DelayStats] = None
    #: the mini-C source text, kept so the profiler can annotate it
    source: str = ""

    @property
    def code_size(self) -> int:
        """Code bytes — the paper's program-size metric."""
        return self.program.code_size

    #: All compiled-program constituents are plain dataclasses of
    #: primitives, so the whole artifact is pickle-stable across worker
    #: processes and cache generations (protocol pinned for portability).
    PICKLE_PROTOCOL = 4

    def to_blob(self) -> bytes:
        """Serialize for the farm's content-addressed artifact cache."""
        return pickle.dumps(self, protocol=self.PICKLE_PROTOCOL)

    @classmethod
    def from_blob(cls, blob: bytes) -> "CompiledProgram":
        value = pickle.loads(blob)
        if not isinstance(value, cls):
            raise TypeError(f"blob decodes to {type(value).__name__}, not {cls.__name__}")
        return value


def compile_to_ir(source: str, tracer=None) -> IRProgram:
    """Front half of the compiler: source -> IR."""
    with span(tracer, "cc.parse"):
        unit = parse(source)
    with span(tracer, "cc.sema"):
        info, analyzer = analyze(unit)
    with span(tracer, "cc.irgen"):
        return generate_ir(info, analyzer)


def compile_to_assembly(source: str, target: str = "risc1") -> str:
    """Compile mini-C to assembly text for the chosen target."""
    return compile_program(source, target).assembly


def compile_program(
    source: str,
    target: str = "risc1",
    fill_delay_slots: bool = True,
    tracer=None,
    filename: str = "<source>",
) -> CompiledProgram:
    """Compile mini-C to a loadable program image for the chosen target.

    An optional ``tracer`` records each compiler phase as a timed PHASE
    event (parse, sema, irgen, codegen, delay-slot fill, assemble).
    ``filename`` names the source in the program's line table (profiler
    reports only; nothing is read from disk).
    """
    if target not in TARGETS:
        raise CompileError(f"unknown target {target!r}; expected one of {TARGETS}")
    return compile_ir(
        compile_to_ir(source, tracer),
        target,
        fill_delay_slots=fill_delay_slots,
        tracer=tracer,
        filename=filename,
        source=source,
    )


def compile_ir(
    ir_program: IRProgram,
    target: str = "risc1",
    *,
    fill_delay_slots: bool = True,
    tracer=None,
    filename: str = "<source>",
    source: str = "",
) -> CompiledProgram:
    """Back half of the compiler: IR -> program image for one target.

    The IR is only read, so one :func:`compile_to_ir` result can be
    lowered for both targets.  ``source`` is kept on the result for the
    profiler; the other options are those of :func:`compile_program`.
    """
    if target not in TARGETS:
        raise CompileError(f"unknown target {target!r}; expected one of {TARGETS}")
    delay_stats = None
    if target == "risc1":
        from repro.asm.assembler import Assembler
        from repro.cc.riscgen import RiscCodegen

        with span(tracer, "cc.riscgen", target=target):
            statements = RiscCodegen(ir_program).generate()
        if fill_delay_slots:
            with span(tracer, "cc.delay"):
                statements, delay_stats = fill_slots(statements)
        assembler = Assembler()
    else:
        from repro.baselines.vax.assembler import VaxAssembler
        from repro.cc.ciscgen import CiscCodegen

        with span(tracer, "cc.ciscgen", target=target):
            statements = CiscCodegen(ir_program).generate()
        assembler = VaxAssembler()
    with span(tracer, "asm.assemble", target=target):
        asm = render(statements)
        program = assembler.assemble_statements(statements)
    program = dataclasses.replace(program, source_file=filename)
    return CompiledProgram(target, asm, program, ir_program, delay_stats, source=source)


def run_compiled(
    compiled: CompiledProgram,
    *,
    max_steps: int | None = None,
    tracer=None,
    metrics=None,
    engine: str | None = None,
    record=None,
    uarch=None,
):
    """Execute a compiled program on its target's simulator.

    Returns the unified :class:`repro.core.api.RunResult` for either
    target; ``tracer``/``metrics`` are handed to the machine.  ``engine``
    picks the execution path (``None`` defers to ``$REPRO_ENGINE``, then
    the fast default); both engines are differentially identical.
    ``record`` opts the run into the persistent run ledger (``None``
    defers to ``$REPRO_LEDGER``; see :mod:`repro.obs.ledger`).  ``uarch``
    opts the run into the pipeline timing model (a spec string, ``True``
    for the default configuration, or a ``UarchConfig``); the resulting
    ``PipelineStats`` lands on ``result.pipeline``.
    """
    if compiled.target == "risc1":
        from repro.core.cpu import CPU

        cpu = CPU(tracer=tracer, metrics=metrics)
    else:
        from repro.baselines.vax.cpu import VaxCPU

        cpu = VaxCPU(tracer=tracer, metrics=metrics)
    cpu.load(compiled.program)
    return cpu.run(max_steps=max_steps, engine=engine, record=record, uarch=uarch)
