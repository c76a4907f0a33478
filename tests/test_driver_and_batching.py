"""Tests for the compiler driver API surface and batched window spilling."""

import pytest

from repro.asm import assemble
from repro.cc.driver import (
    compile_ir,
    compile_program,
    compile_to_assembly,
    compile_to_ir,
    run_compiled,
)
from repro.obs.record import program_to_dict
from repro.workloads import ALL_WORKLOADS, BENCHMARK_SUITE
from repro.cc.errors import CompileError
from repro.core import CPU
from repro.machine.regfile import RegisterFile

SUM_SOURCE = """
main:
    add r10, r0, #30
    call sum
    nop
    halt r10
sum:
    cmp r26, r0
    jne recurse
    nop
    add r26, r0, #0
    ret
    nop
recurse:
    sub r10, r26, #1
    call sum
    nop
    add r26, r10, r26
    ret
    nop
"""


class TestDriver:
    def test_unknown_target_rejected(self):
        with pytest.raises(CompileError, match="unknown target"):
            compile_program("int main() { return 0; }", target="mips")

    def test_compile_to_assembly_text(self):
        asm = compile_to_assembly("int main() { return 3; }")
        assert ".text" in asm and "main:" in asm

    def test_unoptimized_compilation_has_no_delay_stats(self):
        compiled = compile_program(
            "int main() { return 0; }", fill_delay_slots=False
        )
        assert compiled.delay_stats is None
        assert run_compiled(compiled).exit_code == 0

    def test_optimized_is_never_larger(self):
        source = """
        int f(int n) { if (n == 0) return 0; return n + f(n - 1); }
        int main() { return f(10); }
        """
        optimized = compile_program(source, fill_delay_slots=True)
        raw = compile_program(source, fill_delay_slots=False)
        assert optimized.code_size <= raw.code_size
        assert run_compiled(optimized).exit_code == run_compiled(raw).exit_code == 55

    def test_compiled_program_exposes_ir(self):
        compiled = compile_program("int main() { return 0; }")
        assert compiled.ir.function("main")

    @pytest.mark.parametrize("name", BENCHMARK_SUITE)
    def test_one_front_end_lowers_for_both_targets(self, name):
        # the code generators only read the IR: one compile_to_ir serves
        # both targets and both delay-slot settings
        source = ALL_WORKLOADS[name].source()
        ir_program = compile_to_ir(source)
        for target, fill in (("risc1", True), ("cisc", True), ("risc1", False)):
            shared = compile_ir(ir_program, target, fill_delay_slots=fill, source=source)
            alone = compile_program(source, target, fill_delay_slots=fill)
            assert shared.assembly == alone.assembly
            assert program_to_dict(shared.program) == program_to_dict(alone.program)
            assert shared.delay_stats == alone.delay_stats
            assert shared.source == source

    def test_runtime_routines_are_fresh_per_compile(self):
        # the delay-slot filler moves runtime instructions (e.g. into
        # __udivmod's return slot); the parsed routines must not keep that
        source = "int main() { int a = 7; putint(a * 6 / 4 % 5); puts(\"x\"); return 0; }"
        for target in ("risc1", "cisc"):
            first = compile_program(source, target)
            second = compile_program(source, target)
            assert first.assembly == second.assembly
            assert first.program.segments == second.program.segments
            assert run_compiled(second).output == "0x"

    def test_compile_ir_rejects_unknown_target(self):
        with pytest.raises(CompileError, match="unknown target"):
            compile_ir(compile_to_ir("int main() { return 0; }"), "mips")


class TestSpillBatching:
    def run(self, windows, batch):
        cpu = CPU(num_windows=windows, spill_batch=batch)
        cpu.load(assemble(SUM_SOURCE))
        return cpu.run()

    def test_results_identical_across_policies(self):
        expected = sum(range(31))
        for batch in (1, 2, 3, 4):
            result = self.run(4, batch)
            assert result.exit_code == expected, f"batch={batch}"

    def test_batching_reduces_trap_count(self):
        demand = self.run(4, 1)
        batched = self.run(4, 3)
        assert batched.stats.window_overflows < demand.stats.window_overflows

    def test_batching_increases_per_trap_spill(self):
        batched = self.run(4, 3)
        assert (
            batched.stats.spilled_registers
            > 16 * batched.stats.window_overflows
        )

    def test_regfile_batch_arithmetic(self):
        regs = RegisterFile(num_windows=4, spill_batch=2)
        assert regs.call_advance() == []
        assert regs.call_advance() == []
        spills = regs.call_advance()
        assert len(spills) == 2
        assert regs.resident == 2  # 3 - 2 spilled + 1 new frame

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            RegisterFile(spill_batch=0)
        with pytest.raises(ValueError):
            CPU(spill_batch=-1)

    def test_batch_larger_than_resident_is_clamped(self):
        regs = RegisterFile(num_windows=3, spill_batch=10)
        regs.call_advance()  # resident 2 == max
        spills = regs.call_advance()
        assert len(spills) == 2  # clamped to the resident frames
        assert regs.resident == 1
