"""Differential tests: the fast engines must be bit-identical to reference.

Every scenario here runs twice — once with ``engine="reference"`` (the
plain ``step()`` loop) and once with ``engine="fast"`` (the predecoded
RISC engine of ``repro.core.engine`` / the translating VAX engine of
``repro.baselines.vax.engine``) — and asserts that *all* observable
state agrees: the run result, every stats field, the memory traffic
counters, the final architectural state, and the complete tracer event
stream (timestamps included).
"""

import functools
import hashlib

import pytest

from repro.asm.assembler import assemble
from repro.baselines.vax.assembler import assemble_vax
from repro.baselines.vax.cpu import VaxCPU
from repro.baselines.vax.isa import INSTRUCTIONS
from repro.cc.driver import compile_program
from repro.core.api import StepLimitExceeded
from repro.core.cpu import CPU
from repro.isa.encoding import EncodingError
from repro.machine.traps import Trap, TrapKind
from repro.obs.tracer import Tracer
from repro.workloads import ALL_WORKLOADS

WORKLOADS = sorted(ALL_WORKLOADS)
TRACED_WORKLOADS = ["towers", "qsort", "ackermann", "sed"]


@functools.lru_cache(maxsize=None)
def workload_program(name: str, target: str):
    return compile_program(ALL_WORKLOADS[name].source(), target=target).program


def _outcome(run):
    """Run a machine; classify how it ended, keeping the comparable bits."""
    try:
        result = run()
        return ("halt", result.to_dict())
    except StepLimitExceeded as exc:
        return ("limit", exc.limit, exc.pc, exc.stats.to_dict())
    except Trap as trap:
        return ("trap", trap.kind, trap.detail, trap.pc)
    except EncodingError as exc:
        return ("encoding", str(exc))


def run_risc(program, engine, *, windows=8, traced=False, max_steps=5_000_000,
             hook_factory=None, interrupt_at=None):
    cpu = CPU(num_windows=windows)
    tracer = Tracer(capacity=1 << 14) if traced else None
    cpu.load(program)
    if hook_factory is not None:
        cpu.on_execute = hook_factory(cpu, program)
    if interrupt_at is not None:
        cpu.raise_interrupt(interrupt_at)
    outcome = _outcome(
        lambda: cpu.run(max_steps=max_steps, tracer=tracer, engine=engine)
    )
    return {
        "outcome": outcome,
        "stats": cpu.stats.to_dict(),
        "mem": (
            cpu.memory.stats.inst_fetches,
            cpu.memory.stats.data_reads,
            cpu.memory.stats.data_writes,
        ),
        "pc": (cpu.pc, cpu.npc),
        "regs": list(cpu.regs._regs),
        "cwp": cpu.regs.cwp,
        "psw": (cpu.psw.pack(), cpu.psw.interrupts_enabled),
        "console": "".join(cpu._console),
        "interrupts": cpu.interrupts_taken,
        "events": list(tracer.events) if tracer else None,
        "dropped": tracer.dropped if tracer else 0,
    }


def assert_risc_identical(program, **kwargs):
    reference = run_risc(program, "reference", **kwargs)
    fast = run_risc(program, "fast", **kwargs)
    assert fast == reference
    return reference


def run_vax(program, engine, *, traced=False, max_steps=5_000_000, hook_factory=None):
    cpu = VaxCPU()
    tracer = Tracer(capacity=1 << 14) if traced else None
    cpu.load(program)
    if hook_factory is not None:
        cpu.on_execute = hook_factory(cpu, program)
    outcome = _outcome(
        lambda: cpu.run(max_steps=max_steps, tracer=tracer, engine=engine)
    )
    return {
        "outcome": outcome,
        "stats": cpu.stats.to_dict(),
        "mem": (cpu.memory.stats.data_reads, cpu.memory.stats.data_writes),
        "pc": cpu.pc,
        "regs": list(cpu.regs),
        "flags": (cpu.n, cpu.z, cpu.v, cpu.c),
        "depth": cpu._depth,
        "console": "".join(cpu._console),
        "image": hashlib.sha256(cpu.memory._bytes).hexdigest(),
        "events": list(tracer.events) if tracer else None,
        "dropped": tracer.dropped if tracer else 0,
    }


def assert_vax_identical(program, **kwargs):
    reference = run_vax(program, "reference", **kwargs)
    fast = run_vax(program, "fast", **kwargs)
    assert fast == reference
    return reference


class TestWorkloadParity:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_risc_untraced(self, name):
        reference = assert_risc_identical(workload_program(name, "risc1"))
        assert reference["outcome"][0] == "halt"

    @pytest.mark.parametrize("name", TRACED_WORKLOADS)
    def test_risc_traced(self, name):
        reference = assert_risc_identical(workload_program(name, "risc1"), traced=True)
        assert reference["events"]

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_vax_untraced(self, name):
        reference = assert_vax_identical(workload_program(name, "cisc"))
        assert reference["outcome"][0] == "halt"

    @pytest.mark.parametrize("name", TRACED_WORKLOADS)
    def test_vax_traced(self, name):
        reference = assert_vax_identical(workload_program(name, "cisc"), traced=True)
        assert reference["events"]


class TestWindowTraffic:
    """Deep recursion under few windows: overflow and underflow handling."""

    @pytest.mark.parametrize("windows", [2, 3])
    @pytest.mark.parametrize("traced", [False, True])
    def test_towers_under_window_pressure(self, windows, traced):
        reference = assert_risc_identical(
            workload_program("towers", "risc1"), windows=windows, traced=traced
        )
        stats = reference["stats"]
        assert stats["window_overflows"] > 0
        assert stats["window_underflows"] > 0


INTERRUPT_PROGRAM = """
; count to 100 in a loop; the handler bumps a memory cell
main:
    add r2, r0, #0
loop:
    add r2, r2, #1
    cmp r2, #100
    jne loop
    nop
    set r3, cell
    ldl r4, 0(r3)
    puti r2
    putc r0
    puti r4
    halt r2

handler:
    set r16, cell
    ldl r17, 0(r16)
    add r17, r17, #1
    stl r17, 0(r16)
    retint r26, #0
    nop

.data
cell: .word 0
"""


class TestInterruptParity:
    @pytest.mark.parametrize("traced", [False, True])
    def test_hook_driven_interrupts(self, traced):
        program = assemble(INTERRUPT_PROGRAM)

        def hook_factory(cpu, prog):
            handler = prog.symbol("handler")
            count = [0]

            def hook(pc, inst):
                count[0] += 1
                if count[0] in (20, 75, 130):
                    cpu.raise_interrupt(handler)

            return hook

        reference = assert_risc_identical(
            program, hook_factory=hook_factory, traced=traced
        )
        assert reference["interrupts"] == 3
        assert reference["console"].endswith("3")

    def test_prelatched_interrupt_batched_path(self):
        """An interrupt pending at entry, no hook: an unobserved run delivers."""
        program = assemble(INTERRUPT_PROGRAM)
        reference = assert_risc_identical(
            program, interrupt_at=program.symbol("handler")
        )
        assert reference["interrupts"] == 1
        assert reference["console"].endswith("1")


class TestTrapParity:
    def _assert_trap(self, source, kind=None, traced=False):
        reference = assert_risc_identical(assemble(source), traced=traced)
        assert reference["outcome"][0] == "trap"
        if kind is not None:
            assert reference["outcome"][1] == kind
        return reference

    @pytest.mark.parametrize("traced", [False, True])
    def test_misaligned_load(self, traced):
        self._assert_trap(
            """
            main:
                add r2, r0, #2
                ldl r3, 0(r2)
                halt r0
            """,
            traced=traced,
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_bus_error_load(self, traced):
        self._assert_trap(
            """
            main:
                set r2, #0x100000
                ldl r3, 0(r2)
                halt r0
            """,
            traced=traced,
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_unknown_mmio_store(self, traced):
        reference = self._assert_trap(
            """
            main:
                set r2, #0x7F000008
                stl r0, 0(r2)
                halt r0
            """,
            traced=traced,
        )
        # the faulting PC is attached (satellite fix) on both engines
        assert reference["outcome"][3] is not None

    @pytest.mark.parametrize("traced", [False, True])
    def test_call_in_delay_slot(self, traced):
        self._assert_trap(
            """
            main:
                callr sub
                callr sub
                halt r0
            sub:
                ret
                nop
            """,
            traced=traced,
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_return_from_outermost_frame(self, traced):
        self._assert_trap(
            """
            main:
                ret
                nop
            """,
            traced=traced,
        )

    def test_illegal_instruction_word(self):
        reference = assert_risc_identical(
            assemble(
                """
                main:
                    jmp target
                    nop
                .data
                target: .word 0
                """
            )
        )
        # jumping into data executes whatever decodes there; outside the
        # predecoded range the fast engine falls back to step(), so both
        # engines agree however it ends
        assert reference["outcome"][0] in ("trap", "encoding")


#: One program per way a VAX step can trap: ``fault`` labels the
#: instruction that traps (``None``: the PC is given in the third field).
VAX_TRAPS = {
    "bus_error_read": ("fault: movl @#0x200000, r1", TrapKind.BUS_ERROR, None),
    "bus_error_write": ("fault: movl #1, @#0x200000", TrapKind.BUS_ERROR, None),
    "bus_error_fetch": ("jmp @#0x100000", TrapKind.BUS_ERROR, 0x100000),
    "write_to_immediate": ("fault: movl r1, #5", TrapKind.ILLEGAL_INSTRUCTION, None),
    "divide_by_zero": (
        "movl #7, r1\n clrl r2\nfault: divl2 r2, r1", TrapKind.ILLEGAL_INSTRUCTION, None
    ),
    "unknown_mmio": ("fault: movl #0, @#0x7F000010", TrapKind.BUS_ERROR, None),
    "illegal_opcode": ("fault: .byte 0xff", TrapKind.ILLEGAL_INSTRUCTION, None),
    "bad_specifier": ("fault: .byte 0xd0, 0x41, 0x51", TrapKind.ILLEGAL_INSTRUCTION, None),
    "jmp_register": ("fault: jmp r1", TrapKind.ILLEGAL_INSTRUCTION, None),
    "calls_stack_overflow": (
        "movl #8, sp\nfault: calls #0, @#proc\nproc: .word 0\n ret",
        TrapKind.BUS_ERROR,
        None,
    ),
    # the third pop faults after RET has already moved the PC
    "ret_frame_overflow": ("movl #0xFFFF8, fp\nfault: ret", TrapKind.BUS_ERROR, None),
}


class TestVaxTrapParity:
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("case", sorted(VAX_TRAPS))
    def test_trap_parity_and_pc(self, case, traced):
        """Both engines trap alike, and the trap carries the address of
        the faulting instruction (the TRAP event's PC)."""
        body, kind, pc = VAX_TRAPS[case]
        program = assemble_vax(f"__start:\n{body}\n halt\n")
        reference = assert_vax_identical(program, traced=traced)
        outcome, trap_kind, _detail, trap_pc = reference["outcome"]
        expected = program.symbol("fault") if pc is None else pc
        assert (outcome, trap_kind, trap_pc) == ("trap", kind, expected)
        for engine in ("reference", "fast"):
            cpu = VaxCPU()
            cpu.load(program)
            with pytest.raises(Trap) as excinfo:
                cpu.run(engine=engine)
            assert f"at pc={expected:#010x}" in str(excinfo.value)


SELF_MODIFYING_PROGRAM = """
; the instruction at `patch` starts as `add r6, r6, #1`; the loop
; overwrites it with `add r6, r6, #5` after the first iteration
main:
    set r2, patch
    set r3, newinst
    ldl r4, 0(r3)
    add r5, r0, #3
    add r6, r0, #0
loop:
patch:
    add r6, r6, #1
    stl r4, 0(r2)
    sub! r5, r5, #1
    jne loop
    nop
    halt r6

.data
newinst: .word 0
"""


class TestSelfModifyingCode:
    @pytest.mark.parametrize("traced", [False, True])
    def test_patched_instruction_reexecutes(self, traced):
        from repro.isa.encoding import Instruction, encode
        from repro.isa.opcodes import Opcode

        # plant the replacement word (add r6, r6, #5) in the data cell
        patched = encode(Instruction.short(Opcode.ADD, dest=6, rs1=6, s2=5, imm=True))
        program = assemble(
            SELF_MODIFYING_PROGRAM.replace(".word 0", f".word {patched:#x}")
        )
        reference = assert_risc_identical(program, traced=traced)
        # 1 (original) + 5 + 5 (patched re-executions)
        assert reference["outcome"][1]["exit_code"] == 11


#: Every mnemonic and addressing mode, specifiers with side effects on a
#: register the same instruction reads, byte and word forms, dynamic shift
#: counts, CALLS/RET saving registers, and each branch taken and not.
VAX_INSTRUCTION_MIX = """
__start:
        moval @#table, r1
        movl #-5, r2
        movl #0x12345678, r3
        addl2 4(r1), (r1)+
        addl3 (r1)+, (r1)+, r4
        movl -(r1), r5
        subl2 r1, (r1)+
        cmpl r1, -(r1)
        movl (r1), -(sp)
        movl (sp)+, r6
        movb #0x7f, r3
        movw @#table, r3
        cvtbl @#table+3, r4
        cvtwl @#table+2, r5
        movzbl @#table+3, r6
        movzwl @#table+2, r7
        cmpb r3, r4
        cmpw r4, r3
        movb r2, @#cell
        movw r2, @#cell+2
        movl #-3, r8
        ashl r8, r3, r9
        ashl #31, #1, r9
        ashl r8, #-64, r10
        ashl #-2, r2, r10
        mull3 r2, r3, r4
        mull2 #3, r4
        divl3 #3, r3, r5
        divl2 #-2, r5
        mnegl r5, r6
        mcoml r6, r7
        incl r7
        decl @#cell
        tstl @#cell
        clrl @#cell
        bisl3 #0xF0, r3, r4
        bisl2 r4, r3
        xorl3 r4, #3, r5
        xorl2 r4, r3
        andl3 #0xFF0, r3, r5
        andl2 #0xFF, r3
        subl3 #1, r3, r6
        addl3 r2, #0x7fffffff, r6
        movl r6, @#0x7F000004
        pushl r3
        pushl @#cell
        calls #2, @#proc
        movl r0, @#0x7F000004
        movl #-1, r2
        movl #1, r3
        clrl r11
        cmpl r2, r3
        blss b1
        incl r11
b1: bleq b2
        incl r11
b2: bgtr b3
        incl r11
b3: bgeq b4
        incl r11
b4: blssu b5
        incl r11
b5: blequ b6
        incl r11
b6: bgtru b7
        incl r11
b7: bgequ b8
        incl r11
b8: cmpl r3, r3
        beql b9
        incl r11
b9: bneq b10
        incl r11
b10: brb b11
        incl r11
b11: brw b12
        incl r11
b12: movl r11, @#0x7F000004
        moval b13, r1
        jmp (r1)
        incl r11
b13: movl r11, r0
        halt
proc:
        .word 0x001C
        movl 4(ap), r2
        addl3 8(ap), r2, r0
        movl #99, r3
        ret
.data
table: .long 0x01028384, 0x05060708, 0x090a0b0c, 0x0d0e0f10
cell: .long 0
"""


class TestVaxInstructionParity:
    @pytest.mark.parametrize("traced", [False, True])
    def test_instruction_mix(self, traced):
        reference = assert_vax_identical(assemble_vax(VAX_INSTRUCTION_MIX), traced=traced)
        assert reference["outcome"][0] == "halt"

    def test_instruction_mix_operands_seen_by_hook(self):
        program = assemble_vax(VAX_INSTRUCTION_MIX)
        recordings = {}
        for engine in ("reference", "fast"):
            seen = recordings[engine] = []

            def hook_factory(cpu, prog, seen=seen):
                def hook(pc, info, operands, branch_disp):
                    seen.append(
                        (pc, info.mnemonic, [(op.kind, op.value) for op in operands],
                         branch_disp, cpu.pc, list(cpu.regs))
                    )

                return hook

            run_vax(program, engine, hook_factory=hook_factory)
        assert recordings["fast"] == recordings["reference"]
        assert {mnemonic for _pc, mnemonic, *_rest in recordings["fast"]} == set(INSTRUCTIONS)


VAX_SELF_MODIFYING_PROGRAM = """
; `patch` starts as `addl2 #1, r6`; the loop rewrites its literal to 5
__start:
    movl #3, r5
    clrl r6
loop:
patch:
    addl2 #1, r6
    movb #5, @#patch+1
    decl r5
    bneq loop
    movl r6, r0
    movl r0, @#0x7F00000C
"""


class TestVaxSelfModifyingCode:
    @pytest.mark.parametrize("traced", [False, True])
    def test_store_over_translated_instruction(self, traced):
        reference = assert_vax_identical(assemble_vax(VAX_SELF_MODIFYING_PROGRAM), traced=traced)
        # 1 (original) + 5 + 5 (the rewritten instruction, re-executed)
        assert reference["outcome"][1]["exit_code"] == 11


class TestPswParity:
    def test_getpsw_putpsw_round_trip(self):
        reference = assert_risc_identical(
            assemble(
                """
                main:
                    add! r2, r0, #0
                    getpsw r3
                    putpsw r3
                    getpsw r4
                    halt r4
                """
            )
        )
        assert reference["outcome"][0] == "halt"


class TestStepLimitParity:
    @pytest.mark.parametrize("traced", [False, True])
    def test_partial_stats_attached_and_identical(self, traced):
        program = workload_program("towers", "risc1")
        reference = run_risc(program, "reference", max_steps=1_000, traced=traced)
        fast = run_risc(program, "fast", max_steps=1_000, traced=traced)
        assert fast == reference
        kind, limit, pc, stats = reference["outcome"]
        assert kind == "limit"
        assert limit == 1_000
        assert stats["instructions"] == 1_000

    def test_vax_partial_stats(self):
        program = workload_program("towers", "cisc")
        reference = run_vax(program, "reference", max_steps=500)
        fast = run_vax(program, "fast", max_steps=500)
        assert fast == reference
        assert reference["outcome"][0] == "limit"
        assert reference["outcome"][3]["instructions"] == 500

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("limit", [1, 2, 37, 1_000, 4_321])
    def test_vax_limits(self, limit, traced):
        program = workload_program("qsort", "cisc")
        reference = run_vax(program, "reference", max_steps=limit, traced=traced)
        assert run_vax(program, "fast", max_steps=limit, traced=traced) == reference
        assert reference["outcome"][3]["instructions"] == limit

    def test_vax_limit_just_after_calls(self):
        """The budget runs out on a CALLS: the callee's frame is built."""
        program = workload_program("towers", "cisc")
        mnemonics = []
        cpu = VaxCPU()
        cpu.load(program)
        cpu.on_execute = lambda pc, info, operands, disp: mnemonics.append(info.mnemonic)
        cpu.run(max_steps=5_000_000)
        calls = [step for step, mnemonic in enumerate(mnemonics) if mnemonic == "calls"]
        for count, limit in ((1, calls[0] + 1), (4, calls[3] + 1)):
            reference = run_vax(program, "reference", max_steps=limit)
            assert run_vax(program, "fast", max_steps=limit) == reference
            assert reference["outcome"][3]["calls"] == count

    @pytest.mark.parametrize("chunk", [1, 97])
    def test_vax_chunked_runs_match_one_run(self, chunk):
        """Translations kept across ``run()`` calls change nothing."""
        program = workload_program("ackermann", "cisc")
        reference = run_vax(program, "reference")
        cpu = VaxCPU()
        cpu.load(program)
        while True:
            try:
                result = cpu.run(max_steps=chunk, engine="fast")
                break
            except StepLimitExceeded:
                pass
        assert result.to_dict() == reference["outcome"][1]
        assert list(cpu.regs) == reference["regs"]
        assert (cpu.n, cpu.z, cpu.v, cpu.c) == reference["flags"]


class TestHookSeesLiveStats:
    """A hook reads ``instructions``/``cycles`` mid-run; the fast engine
    must advance both per step exactly where the reference loop does."""

    @pytest.mark.parametrize("name", ["towers", "quicksort_i"])
    def test_hook_recordings_identical(self, name):
        program = workload_program(name, "risc1")
        runs, recordings = {}, {}
        for engine in ("reference", "fast"):
            seen = recordings[engine] = []

            def hook_factory(cpu, prog, seen=seen):
                def hook(pc, inst):
                    seen.append((pc, cpu.stats.instructions, cpu.stats.cycles))

                return hook

            # four windows: spills and fills add cycles between steps
            runs[engine] = run_risc(program, engine, windows=4, hook_factory=hook_factory)
        assert runs["fast"] == runs["reference"]
        assert recordings["fast"] == recordings["reference"]
        # the last call precedes the halting store's own retire
        instructions = runs["fast"]["stats"]["instructions"]
        assert recordings["fast"][-1][1] == instructions - 1
        assert len(recordings["fast"]) == instructions


class TestVaxHookSeesLiveStats:
    """The VAX hook fires after operand evaluation, with ``cpu.pc`` at the
    fall-through; the fast engine keeps the stats live for it."""

    @pytest.mark.parametrize("name", ["towers", "quicksort_i"])
    def test_hook_recordings_identical(self, name):
        program = workload_program(name, "cisc")
        runs, recordings = {}, {}
        for engine in ("reference", "fast"):
            seen = recordings[engine] = []

            def hook_factory(cpu, prog, seen=seen):
                def hook(pc, info, operands, branch_disp):
                    stats = cpu.stats
                    seen.append(
                        (pc, stats.instructions, stats.cycles, stats.inst_bytes, cpu.pc)
                    )

                return hook

            runs[engine] = run_vax(program, engine, hook_factory=hook_factory)
        assert runs["fast"] == runs["reference"]
        assert recordings["fast"] == recordings["reference"]
        instructions = runs["fast"]["stats"]["instructions"]
        assert len(recordings["fast"]) == instructions


class TestPipelineParity:
    """The uarch timing model rides the retired-instruction hook, so its
    accounting must be bit-identical across engines for both machines —
    a hooked run is observed, so the fast engines keep their stats per
    step for it."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_risc_pipeline_stats(self, name):
        program = workload_program(name, "risc1")
        runs = {}
        for engine in ("reference", "fast"):
            cpu = CPU()
            cpu.load(program)
            result = cpu.run(max_steps=5_000_000, engine=engine, uarch=True)
            runs[engine] = result.pipeline.to_dict()
        assert runs["fast"] == runs["reference"]
        assert runs["fast"]["instructions"] > 0
        assert runs["fast"]["cycles"] >= runs["fast"]["instructions"]

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_vax_pipeline_stats(self, name):
        program = workload_program(name, "cisc")
        runs = {}
        for engine in ("reference", "fast"):
            cpu = VaxCPU()
            cpu.load(program)
            result = cpu.run(max_steps=5_000_000, engine=engine, uarch=True)
            runs[engine] = result.pipeline.to_dict()
        assert runs["fast"] == runs["reference"]
        assert runs["fast"]["instructions"] > 0

    def test_risc_pipeline_under_window_pressure(self):
        """Window spill/fill drain cycles must agree across engines too."""
        program = workload_program("towers", "risc1")
        runs = {}
        for engine in ("reference", "fast"):
            cpu = CPU(num_windows=2)
            cpu.load(program)
            result = cpu.run(max_steps=5_000_000, engine=engine, uarch=True)
            runs[engine] = result.pipeline.to_dict()
        assert runs["fast"] == runs["reference"]
        assert runs["fast"]["window_stalls"] > 0


# -- fuzz corpus ---------------------------------------------------------------
#
# Every file in tests/fuzz_corpus/ is a minimized repro of a divergence the
# differential fuzzer once found (and this repo then fixed).  Cross-checking
# each one across all five oracles keeps every fixed bug fixed: a regression
# turns the file's report divergent again and names the disagreeing oracles.

from pathlib import Path

FUZZ_CORPUS = sorted((Path(__file__).parent / "fuzz_corpus").glob("*.c"))


@pytest.mark.parametrize("path", FUZZ_CORPUS, ids=lambda p: p.stem)
def test_fuzz_corpus_stays_clean(path):
    from repro.fuzz.crosscheck import crosscheck_source

    report = crosscheck_source(path.read_text(encoding="utf-8"), max_steps=2_000_000)
    assert report.status == "ok", report.render()


# -- snapshot / restore --------------------------------------------------------
#
# The Machine.snapshot()/restore() contract is bit-exact resumability: a
# restored machine is indistinguishable from the original — same future
# execution, stats, traffic counters and output — whichever engine runs it.
# That contract is what makes checkpointed time travel (repro.dbg) sound.

import json as _json


def _partial_run(cpu, engine, budget):
    try:
        cpu.run(max_steps=budget, engine=engine)
    except StepLimitExceeded:
        pass


class TestSnapshotRestore:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_risc_roundtrip(self, name, engine):
        program = workload_program(name, "risc1")
        cpu = CPU()
        cpu.load(program)
        _partial_run(cpu, engine, 2000)
        snap = _json.loads(_json.dumps(cpu.snapshot()))  # prove JSON-safety
        other = CPU()
        other.load(program)
        other.restore(snap)
        assert other.snapshot() == snap
        # identical futures under the same engine, bounded budget
        a = _outcome(lambda: cpu.run(max_steps=3000, engine=engine))
        b = _outcome(lambda: other.run(max_steps=3000, engine=engine))
        assert a == b
        assert other.snapshot() == cpu.snapshot()

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_vax_roundtrip(self, name, engine):
        program = workload_program(name, "cisc")
        cpu = VaxCPU()
        cpu.load(program)
        _partial_run(cpu, engine, 2000)
        snap = _json.loads(_json.dumps(cpu.snapshot()))
        other = VaxCPU()
        other.load(program)
        other.restore(snap)
        assert other.snapshot() == snap
        a = _outcome(lambda: cpu.run(max_steps=3000, engine=engine))
        b = _outcome(lambda: other.run(max_steps=3000, engine=engine))
        assert a == b
        assert other.snapshot() == cpu.snapshot()

    @pytest.mark.parametrize("name", TRACED_WORKLOADS)
    def test_cross_engine_resume(self, name):
        """A fast-engine snapshot resumed on the reference engine (and the
        reverse) must still converge to the identical final state."""
        for target, make in (("risc1", CPU), ("cisc", VaxCPU)):
            program = workload_program(name, target)
            cpu = make()
            cpu.load(program)
            _partial_run(cpu, "fast", 1500)
            snap = cpu.snapshot()
            finals = {}
            for engine in ("fast", "reference"):
                other = make()
                other.load(program)
                other.restore(snap)
                _outcome(lambda: other.run(max_steps=3000, engine=engine))
                finals[engine] = other.snapshot()
            assert finals["fast"] == finals["reference"]

    def test_restore_rejects_mismatched_shape(self):
        program = workload_program("towers", "risc1")
        cpu = CPU(num_windows=8)
        cpu.load(program)
        snap = cpu.snapshot()
        with pytest.raises(ValueError):
            CPU(num_windows=4).restore(snap)
        with pytest.raises(ValueError):
            CPU(memory_size=1 << 16).restore(snap)
        with pytest.raises(ValueError):
            VaxCPU().restore(snap)

    def test_restore_rejects_unknown_schema(self):
        cpu = CPU()
        cpu.load(workload_program("towers", "risc1"))
        snap = cpu.snapshot()
        snap["schema"] = 999
        with pytest.raises(ValueError):
            cpu.restore(snap)

    def test_risc_restore_under_window_pressure(self):
        """Snapshots taken mid-spill-pressure (2 windows) restore exactly."""
        program = workload_program("towers", "risc1")
        cpu = CPU(num_windows=2)
        cpu.load(program)
        _partial_run(cpu, "fast", 5000)
        assert cpu.stats.to_dict()["window_overflows"] > 0
        snap = cpu.snapshot()
        other = CPU(num_windows=2)
        other.load(program)
        other.restore(snap)
        a = _outcome(lambda: cpu.run(max_steps=5_000_000))
        b = _outcome(lambda: other.run(max_steps=5_000_000))
        assert a == b
