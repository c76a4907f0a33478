"""Tests for the VAX-like baseline: assembler, addressing modes, flags,
and the CALLS/RET procedure linkage; and the fast engine's lifetime,
which the machine shell keeps alike on both machines."""

import gc
import weakref

import pytest

from repro.asm.assembler import assemble
from repro.baselines.vax.assembler import AssemblerError, assemble_vax, parse_operand
from repro.baselines.vax.cpu import VaxCPU
from repro.baselines.vax.isa import INSTRUCTIONS
from repro.baselines.vax.timing import VaxTiming
from repro.core import blockcache
from repro.core.api import StepLimitExceeded
from repro.core.cpu import CPU
from tests import test_engine_diff as diff


def run(source, **kwargs):
    cpu = VaxCPU(**kwargs)
    cpu.load(assemble_vax(source))
    return cpu, cpu.run(max_steps=2_000_000)


HALT = "movl r0, @#0x7F00000C"


class TestOperandParsing:
    CASES = {
        "#5": ("literal", 5),
        "#100": ("immediate", 100),
        "#-3": ("immediate", -3),
        "r5": ("register", 5),
        "sp": ("register", 14),
        "(r3)": ("deferred", 3),
        "(r3)+": ("autoinc", 3),
        "-(sp)": ("autodec", 14),
        "8(fp)": ("disp", 8),
        "-4(fp)": ("disp", -4),
        "@#0x1000": ("absolute", 0x1000),
    }

    @pytest.mark.parametrize("text,expected", CASES.items())
    def test_operand_kinds(self, text, expected):
        kind, value = expected
        operand = parse_operand(text, 1)
        assert operand.kind == kind
        if kind in ("literal", "immediate", "disp", "absolute"):
            assert operand.value == value
        elif kind != "symbol":
            assert operand.reg == value

    def test_symbols(self):
        assert parse_operand("main", 1).kind == "symbol"
        assert parse_operand("@#main", 1).symbol == "main"
        assert parse_operand("#main", 1).kind == "immediate"

    def test_bad_operand(self):
        with pytest.raises(AssemblerError):
            parse_operand("12(34)", 1)


class TestVariableLengthEncoding:
    def sizes(self, line):
        prog = assemble_vax(f"__start:\n    {line}\n    halt\n")
        return prog.code_size - 1  # minus the trailing HALT byte

    def test_short_literal_is_one_byte(self):
        # opcode + spec(1) + reg spec(1) = 3
        assert self.sizes("movl #5, r1") == 3

    def test_immediate_is_five_bytes(self):
        # opcode + spec+imm32(5) + reg(1) = 7
        assert self.sizes("movl #100, r1") == 7

    def test_displacement_width_scales(self):
        assert self.sizes("movl 4(fp), r1") == 4       # disp8
        assert self.sizes("movl 400(fp), r1") == 5     # disp16
        assert self.sizes("movl 70000(fp), r1") == 7   # disp32

    def test_three_operand_arithmetic(self):
        assert self.sizes("addl3 r1, r2, r3") == 4


class TestExecution:
    def test_movl_and_halt_code(self):
        _, result = run(f"__start:\n    movl #42, r0\n    {HALT}\n")
        assert result.exit_code == 42

    def test_memory_operands_and_three_address(self):
        source = f"""
        __start:
            movl #7, @#x
            movl #8, @#y
            addl3 @#x, @#y, r0
            {HALT}
        .data
        x: .long 0
        y: .long 0
        """
        _, result = run(source)
        assert result.exit_code == 15

    def test_subl3_operand_order(self):
        # SUBL3 sub, min, dif: dif = min - sub
        _, result = run(f"__start:\n    subl3 #3, #10, r0\n    {HALT}\n")
        assert result.exit_code == 7

    def test_divl3_truncates(self):
        _, result = run(f"__start:\n    divl3 #7, #-45, r0\n    {HALT}\n")
        assert result.exit_code == -6

    def test_divide_by_zero_traps(self):
        from repro.machine.traps import Trap

        with pytest.raises(Trap):
            run(f"__start:\n    divl3 #0, #1, r0\n    {HALT}\n")

    def test_autoincrement_walks_memory(self):
        source = f"""
        __start:
            moval @#table, r1
            clrl r0
            addl2 (r1)+, r0
            addl2 (r1)+, r0
            addl2 (r1)+, r0
            {HALT}
        .data
        table: .long 10, 20, 30
        """
        _, result = run(source)
        assert result.exit_code == 60

    def test_push_pop_with_autodec_autoinc(self):
        source = f"""
        __start:
            movl #99, -(sp)
            movl (sp)+, r0
            {HALT}
        """
        _, result = run(source)
        assert result.exit_code == 99

    def test_byte_conversions(self):
        source = f"""
        __start:
            movl #0xFF, @#cell
            movzbl @#cell+3, r1      ; big-endian: low byte is at +3
            cvtbl @#cell+3, r2
            subl3 r2, r1, r0         ; 255 - (-1) = 256
            {HALT}
        .data
        cell: .long 0
        """
        _, result = run(source)
        assert result.exit_code == 256

    def test_branches_signed_and_unsigned(self):
        source = f"""
        __start:
            movl #-1, r1
            cmpl r1, #1
            blss signed_ok           ; -1 < 1 signed
            movl #1, r0
            {HALT}
        signed_ok:
            cmpl r1, #1
            blssu bad                ; 0xFFFFFFFF is not < 1 unsigned
            movl #77, r0
            {HALT}
        bad:
            movl #2, r0
            {HALT}
        """
        _, result = run(source)
        assert result.exit_code == 77

    def test_ashl_both_directions(self):
        _, result = run(f"__start:\n    ashl #4, #3, r0\n    {HALT}\n")
        assert result.exit_code == 48
        _, result = run(f"__start:\n    ashl #-2, #-64, r0\n    {HALT}\n")
        assert result.exit_code == -16


class TestCallsRet:
    PROGRAM = f"""
    __start:
        pushl #5
        pushl #7
        calls #2, add2
        {HALT}
    add2:
        .entry 0x000C            ; saves r2, r3
        movl 4(ap), r2           ; first argument
        addl3 8(ap), r2, r0
        ret
    """

    def test_arguments_via_ap(self):
        _, result = run(self.PROGRAM)
        assert result.exit_code == 12

    def test_stack_restored_after_ret(self):
        cpu, _ = run(self.PROGRAM)
        assert cpu.regs[14] == cpu._stack_top  # SP back where it started

    def test_saved_registers_restored(self):
        source = f"""
        __start:
            movl #111, r2
            calls #0, clobber
            movl r2, r0
            {HALT}
        clobber:
            .entry 0x0004        ; saves r2
            movl #999, r2
            ret
        """
        _, result = run(source)
        assert result.exit_code == 111

    def test_calls_generates_memory_traffic(self):
        cpu, result = run(self.PROGRAM)
        # mask read + pushes + pops: the expensive linkage the paper targets
        assert result.stats.call_linkage_refs >= 12

    def test_nested_frames(self):
        source = f"""
        __start:
            pushl #4
            calls #1, outer
            {HALT}
        outer:
            .entry 0x0004
            movl 4(ap), r2
            pushl r2
            calls #1, inner
            addl2 r2, r0
            ret
        inner:
            .entry 0
            addl3 4(ap), #10, r0
            ret
        """
        _, result = run(source)
        assert result.exit_code == 18  # (4 + 10) + 4


class TestTiming:
    def test_microcoded_cpi_profile(self):
        """The baseline must behave like a ~10-CPI microcoded machine."""
        source = f"""
        __start:
            clrl r0
            movl #200, r1
        loop:
            addl2 #1, r0
            addl2 @#mem, r2
            decl r1
            bneq loop
            {HALT}
        .data
        mem: .long 3
        """
        _, result = run(source)
        cpi = result.stats.cycles / result.stats.instructions
        # a register-heavy loop sits at the cheap end of the microcoded
        # range; compiled benchmark code measures ~9 CPI (see the suite
        # test below)
        assert 3.0 <= cpi <= 16.0

    def test_compiled_code_cpi_matches_780_profile(self):
        from repro.cc.driver import compile_program, run_compiled

        source = """
        int a[64];
        int main() {
            for (int i = 0; i < 64; i++) a[i] = i * 3;
            int total = 0;
            for (int i = 0; i < 64; i++) total += a[i];
            putint(total);
            return 0;
        }
        """
        result = run_compiled(compile_program(source, target="cisc"))
        cpi = result.stats.cycles / result.stats.instructions
        assert 7.0 <= cpi <= 14.0  # the VAX-11/780's published ballpark

    def test_timing_is_configurable(self):
        fast = VaxTiming(cycle_ns=100.0)
        assert fast.nanoseconds(10) == 1000.0
        default = VaxTiming()
        assert default.milliseconds(5000) == 1.0

    def test_all_instructions_have_timing_kind(self):
        timing = VaxTiming()
        for info in INSTRUCTIONS.values():
            assert info.kind in timing.base_cycles, info.mnemonic


#: each machine: its CPU, its assembler, and sources that loop forever,
#: halt with exit code 3, and count r1 up to ``{n}`` and exit with it
LIFETIME = {
    "risc1": (CPU, assemble, "main:\n add r1, r0, #1\nloop: jmp loop\n nop\n",
              "main:\n add r6, r0, #3\n halt r6\n",
              "main:\n add r1, r0, #0\nloop:\n add r1, r1, #1\n sub! r2, r1, #{n}\n"
              " jne loop\n nop\n halt r1\n"),
    "cisc": (VaxCPU, assemble_vax, "__start:\n movl #1, r0\nloop: brb loop\n",
             f"__start:\n movl #3, r0\n {HALT}\n",
             "__start:\n clrl r1\nloop: incl r1\n cmpl r1, #{n}\n bneq loop\n"
             " movl r1, r0\n halt\n"),
}


def _translations(engine) -> list:
    """The closures a fast engine holds, in PC order."""
    handlers = engine.handlers  # a list by word on RISC I, a dict by PC on the VAX
    return [h for h in (handlers.values() if isinstance(handlers, dict) else handlers) if h]


class TestEngineLifetime:
    """The machine shell keeps one fast engine across ``run()`` calls and
    drops it at ``load()``, ``restore()``, a halt or a trap, and the start
    of a measured run; its translations never outlive the bytes they
    were made from."""

    def test_translations_survive_a_step_limit(self):
        for machine, (make, asm, forever, _, _) in sorted(LIFETIME.items()):
            cpu = make()
            cpu.load(asm(forever))
            held = []
            for _ in range(2):
                with pytest.raises(StepLimitExceeded):
                    cpu.run(max_steps=10)
                assert cpu._engine is not None and _translations(cpu._engine), machine
                assert cpu.memory.write_watch == cpu._engine._note_write, machine
                held.append((cpu._engine, _translations(cpu._engine)))
            assert held[0][0] is held[1][0] and held[0][1] == held[1][1], machine

    def test_halted_machine_is_freed_without_the_cycle_collector(self):
        """A run that ends drops the translations, whose closures point
        back at the machine, so dropping the machine frees it."""
        for machine, (make, asm, _, halts, _) in sorted(LIFETIME.items()):
            gc.disable()
            try:
                cpu = make()
                cpu.load(asm(halts))
                assert cpu.run(engine="fast").exit_code == 3, machine
                assert cpu._engine is None and cpu.memory.write_watch is None, machine
                freed = weakref.ref(cpu)
                del cpu
                assert freed() is None, machine
            finally:
                gc.enable()

    @pytest.mark.parametrize("machine", sorted(LIFETIME))
    @pytest.mark.parametrize("between", ["load", "restore"])
    def test_load_or_restore_drops_the_engine(self, machine, between):
        make, asm, forever, _, counts = LIFETIME[machine]
        cpu = make()
        cpu.load(asm(forever))
        state = cpu.snapshot()
        with pytest.raises(StepLimitExceeded):
            cpu.run(max_steps=10)
        assert cpu._engine is not None
        if between == "load":
            cpu.load(asm(counts.format(n=5)))
        else:
            cpu.restore(state)
        assert cpu._engine is None and cpu.memory.write_watch is None
        if between == "load":
            assert cpu.run().exit_code == 5

    @pytest.mark.parametrize("machine", sorted(LIFETIME))
    @pytest.mark.parametrize("threshold", [1, 100])
    @pytest.mark.parametrize("how", ["load_image", "write"])
    def test_patch_between_runs_is_seen(self, machine, how, threshold, monkeypatch):
        """An instruction that already ran is patched between two
        step-limited runs, bypassing the machine (``load_image`` rewrites
        the whole code segment, the patch past its first word): the fast
        engine drops what it translated from the old bytes, as the
        reference would."""
        monkeypatch.setattr(blockcache, "PROMOTE", threshold)
        make, asm, _, _, counts = LIFETIME[machine]
        old, new = asm(counts.format(n=50)), asm(counts.format(n=20))
        code = old.segments[0]
        at = next(i for i, (a, b) in enumerate(zip(code.data, new.segments[0].data)) if a != b)
        ends = {}
        for engine in ("reference", "fast"):
            cpu = make()
            cpu.load(old)
            with pytest.raises(StepLimitExceeded):
                cpu.run(max_steps=20, engine=engine)
            if how == "load_image":
                cpu.memory.load_image(code.base, new.segments[0].data)
            else:
                cpu.memory.write(code.base + at, new.segments[0].data[at], 1)
            ends[engine] = (cpu.run(engine=engine).exit_code, cpu.snapshot())
        assert ends["fast"] == ends["reference"]
        assert ends["fast"][0] == 20

    @pytest.mark.parametrize("machine", sorted(LIFETIME))
    @pytest.mark.parametrize("threshold", [1, 100])
    def test_measured_run_after_an_unmeasured_one(self, machine, threshold, monkeypatch):
        """A measured run that continues a fast, unmeasured one is told
        about every word it runs: its pipeline stats are the reference's."""
        monkeypatch.setattr(blockcache, "PROMOTE", threshold)
        make = LIFETIME[machine][0]
        program = diff.workload_program("towers", machine)
        runs = {}
        for engine in ("reference", "fast"):
            cpu = make()
            cpu.load(program)
            with pytest.raises(StepLimitExceeded):
                cpu.run(max_steps=3000, engine=engine)
            result = cpu.run(engine=engine, uarch=True)
            runs[engine] = (result.to_dict(), cpu.snapshot())
        assert runs["fast"] == runs["reference"]
        assert runs["fast"][0]["pipeline"]["instructions"] > 0
