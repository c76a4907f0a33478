"""Tests of the RISC I simulator's instruction semantics and timing."""

import pytest

from repro.analysis.windows import CallTracer
from repro.asm.assembler import assemble
from repro.core.cpu import CPU, to_signed
from repro.machine.traps import Trap, TrapKind


def run(source, windows=8, **kwargs):
    cpu = CPU(num_windows=windows, **kwargs)
    cpu.load(assemble(source))
    result = cpu.run(max_steps=5_000_000)
    return cpu, result


def run_expr(body):
    """Run a fragment that leaves its result in r2, halt with that value."""
    cpu, result = run(f"main:\n{body}\n halt r2")
    return result.exit_code


class TestArithmetic:
    def test_add(self):
        assert run_expr(" add r2, r0, #7\n add r2, r2, #8") == 15

    def test_sub_and_negative_results(self):
        assert run_expr(" add r2, r0, #5\n sub r2, r2, #9") == -4

    def test_subr_reverses(self):
        assert run_expr(" add r1, r0, #3\n subr r2, r1, #10") == 7

    def test_logical_ops(self):
        assert run_expr(" add r1, r0, #0xF0\n and r2, r1, #0x3C") == 0x30
        assert run_expr(" add r1, r0, #0xF0\n or r2, r1, #0x0F") == 0xFF
        assert run_expr(" add r1, r0, #0xFF\n xor r2, r1, #0x0F") == 0xF0

    def test_shifts(self):
        assert run_expr(" add r1, r0, #1\n sll r2, r1, #4") == 16
        assert run_expr(" add r1, r0, #256\n srl r2, r1, #4") == 16
        assert run_expr(" sub r1, r0, #16\n sra r2, r1, #2") == -4
        assert run_expr(" sub r1, r0, #16\n srl r2, r1, #28") == 15

    def test_add_with_carry_chain(self):
        # 0xFFFFFFFF + 1 = 0 carry 1; then 0 + 0 + carry = 1
        source = """
        main:
            sub  r1, r0, #1
            add! r2, r1, #1
            addc r2, r0, #0
            halt r2
        """
        _, result = run(source)
        assert result.exit_code == 1

    def test_subtract_carry_means_no_borrow(self):
        # 5 - 3 sets carry (no borrow); SUBC then subtracts nothing extra.
        source = """
        main:
            add  r1, r0, #5
            sub! r2, r1, #3
            subc r2, r2, #0
            halt r2
        """
        _, result = run(source)
        assert result.exit_code == 2

    def test_ldhi_builds_high_bits(self):
        assert run_expr(" ldhi r2, #1") == 1 << 13

    def test_set_pseudo_full_word(self):
        assert run_expr(" set r2, #0x12345678") == 0x12345678
        assert run_expr(" set r2, #-1") == -1


class TestMemoryInstructions:
    def test_word_round_trip(self):
        source = """
        main:
            set  r2, #0x00C0FFEE
            stl  r2, 0(r1)
            ldl  r3, 0(r1)
            halt r3
        """
        _, result = run(source)
        assert result.exit_code == 0x00C0FFEE

    def test_byte_sign_extension(self):
        source = """
        main:
            add  r2, r0, #0xFF
            stb  r2, 0(r1)
            ldbs r3, 0(r1)
            halt r3
        """
        _, result = run(source)
        assert result.exit_code == -1

    def test_byte_zero_extension(self):
        source = """
        main:
            add  r2, r0, #0xFF
            stb  r2, 0(r1)
            ldbu r3, 0(r1)
            halt r3
        """
        _, result = run(source)
        assert result.exit_code == 255

    def test_short_variants(self):
        source = """
        main:
            set  r2, #0x8001
            sts  r2, 0(r1)
            ldss r3, 0(r1)
            ldsu r4, 0(r1)
            sub  r5, r4, r3
            halt r5
        """
        _, result = run(source)
        assert result.exit_code == 0x10000

    def test_misaligned_access_traps(self):
        with pytest.raises(Trap) as excinfo:
            run("main: ldl r2, 2(r0)\n halt")
        assert excinfo.value.kind is TrapKind.ALIGNMENT

    def test_data_segment_access(self):
        source = """
        main:
            set r2, value
            ldl r3, 0(r2)
            halt r3
        .data
        value: .word 4242
        """
        _, result = run(source)
        assert result.exit_code == 4242


class TestControlFlow:
    def test_delay_slot_always_executes(self):
        """The instruction after a taken jump executes (delayed jump)."""
        source = """
        main:
            add r2, r0, #0
            jmp target
            add r2, r2, #1      ; delay slot: must execute
            add r2, r2, #100    ; skipped
        target:
            halt r2
        """
        _, result = run(source)
        assert result.exit_code == 1

    def test_untaken_conditional_falls_through(self):
        source = """
        main:
            cmp r0, r0
            jne elsewhere
            nop
            halt r0
        elsewhere:
            add r2, r0, #9
            halt r2
        """
        _, result = run(source)
        assert result.exit_code == 0

    def test_conditional_signed_vs_unsigned(self):
        # -1 < 1 signed, but 0xFFFFFFFF > 1 unsigned
        source = """
        main:
            sub r1, r0, #1
            add r2, r0, #1
            cmp r1, r2
            jlt signed_ok
            nop
            halt r0
        signed_ok:
            cmp r1, r2
            jhi unsigned_ok
            nop
            halt r0
        unsigned_ok:
            add r3, r0, #1
            halt r3
        """
        _, result = run(source)
        assert result.exit_code == 1

    def test_loop_counts(self):
        source = """
        main:
            add r2, r0, #0
            add r3, r0, #10
        loop:
            add r2, r2, #1
            cmp r2, r3
            jne loop
            nop
            halt r2
        """
        _, result = run(source)
        assert result.exit_code == 10

    def test_indirect_jump(self):
        source = """
        main:
            set r2, target
            jmp (r2)
            nop
            halt r0
        target:
            add r3, r0, #5
            halt r3
        """
        _, result = run(source)
        assert result.exit_code == 5

    def test_call_passes_args_through_window(self):
        source = """
        main:
            add r10, r0, #20    ; arg 0 in LOW
            add r11, r0, #22    ; arg 1
            call add2
            nop
            halt r10            ; result back in caller LOW r10
        add2:
            add r26, r26, r27   ; HIGH regs are the incoming args
            ret
            nop
        """
        _, result = run(source)
        assert result.exit_code == 42

    def test_callee_locals_do_not_clobber_caller(self):
        source = """
        main:
            add r16, r0, #123   ; caller local
            call f
            nop
            halt r16
        f:
            add r16, r0, #999   ; callee local, different window
            ret
            nop
        """
        _, result = run(source)
        assert result.exit_code == 123

    def test_recursion_with_window_overflow(self):
        """Recursive sum(n) = n + sum(n-1) deeper than the register file."""
        source = """
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
        cpu, result = run(source, windows=4)
        assert result.exit_code == sum(range(31))
        assert result.stats.window_overflows > 0
        assert result.stats.window_overflows == result.stats.window_underflows

    def test_overflow_count_depends_on_windows(self):
        source = """
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
        _, few = run(source, windows=2)
        _, many = run(source, windows=16)
        assert few.stats.window_overflows > many.stats.window_overflows


class TestTimingAndStats:
    def test_alu_is_one_cycle_memory_is_two(self):
        source = """
        main:
            add r2, r0, #1
            stl r2, 0(r1)
            ldl r3, 0(r1)
            halt r3
        """
        _, result = run(source)
        # add(1) + stl(2) + ldl(2) + halt pseudo: ldhi(1)+add(1)+stl(2) = 9
        assert result.stats.cycles == 9

    def test_instruction_mix_recorded(self):
        _, result = run("main: add r2, r0, #1\n ldl r3, 0(r1)\n halt")
        from repro.isa.opcodes import Category

        mix = result.stats.by_category
        assert mix[Category.MEMORY] >= 2  # the ldl plus the halt store

    def test_stats_summary_renders(self):
        _, result = run("main: halt")
        text = result.stats.summary()
        assert "instructions executed" in text
        assert "CPI" in text

    def test_call_trace_collection(self):
        source = """
        main:
            call f
            nop
            halt
        f:  ret
            nop
        """
        tracer = CallTracer()
        run(source, tracer=tracer)
        assert tracer.trace == [("call", 2), ("ret", 1)]


class TestIOAndHalt:
    def test_putc_output(self):
        source = """
        main:
            add r2, r0, #'H'
            putc r2
            add r2, r0, #'i'
            putc r2
            halt
        """
        _, result = run(source)
        assert result.output == "Hi"

    def test_puti_signed(self):
        source = """
        main:
            sub r2, r0, #42
            puti r2
            halt
        """
        _, result = run(source)
        assert result.output == "-42"

    def test_halt_code(self):
        _, result = run("main: add r2, r0, #7\n halt r2")
        assert result.exit_code == 7

    def test_instruction_limit_traps(self):
        cpu = CPU()
        cpu.load(assemble("main: jmp main\n nop"))
        with pytest.raises(Trap, match="instruction limit"):
            cpu.run(max_steps=100)


class TestMisc:
    def test_to_signed(self):
        assert to_signed(0xFFFFFFFF) == -1
        assert to_signed(0x7FFFFFFF) == 0x7FFFFFFF
        assert to_signed(0x80000000) == -(1 << 31)

    def test_getpsw_putpsw_round_trip(self):
        source = """
        main:
            cmp r0, r0          ; set Z
            getpsw r2
            cmp r0, #1          ; clear Z... (0-1 != 0)
            putpsw r2           ; restore Z
            jeq good
            nop
            halt r0
        good:
            add r3, r0, #1
            halt r3
        """
        _, result = run(source)
        assert result.exit_code == 1

    def test_gtlpc_returns_previous_pc(self):
        source = """
        main:
            nop
            gtlpc r2
            halt r2
        """
        _, result = run(source)
        # gtlpc executes at entry+4; the last completed pc was entry (0x1000).
        assert result.exit_code == 0x1000


def _spill_word_by_word(cpu, windows):
    for window in windows:
        for slot in cpu.regs.window_slots(window):
            cpu._save_sp -= 4
            cpu.memory.write(cpu._save_sp, cpu.regs.read_physical(slot), 4)


def _fill_word_by_word(cpu, window):
    for slot in reversed(cpu.regs.window_slots(window)):
        cpu.regs.write_physical(slot, cpu.memory.read(cpu._save_sp, 4))
        cpu._save_sp += 4


class TestWindowSpillAndFill:
    """The CPU moves a window with one pack/unpack; it must leave exactly
    what a word-by-word spill and fill leave, watch calls and traps included."""

    def _pair(self, save_sp=None):
        import random

        rng = random.Random(22)
        values = [rng.randrange(1 << 32) for _ in range(len(CPU(num_windows=4).regs._regs))]
        cpus = []
        for _ in range(2):
            cpu = CPU(memory_size=1 << 12, num_windows=4)
            cpu.regs._regs[:] = values
            if save_sp is not None:
                cpu._save_sp = save_sp
            watched = []
            cpu.memory.write_watch = lambda address, width, log=watched: log.append(
                (address, width)
            )
            cpus.append((cpu, watched))
        return cpus

    @staticmethod
    def _state(cpu, watched, trap=None):
        return (
            bytes(cpu.memory._bytes), cpu.memory.stats, cpu._save_sp,
            list(cpu.regs._regs), watched, trap and (trap.kind, trap.detail),
        )

    @pytest.mark.parametrize("windows", [[1], [2, 3, 0]])
    def test_spill_then_fill_matches(self, windows):
        (bulk, bulk_log), (words, words_log) = self._pair()
        bulk._spill_windows(windows)
        _spill_word_by_word(words, windows)
        assert self._state(bulk, bulk_log) == self._state(words, words_log)
        for cpu, _ in ((bulk, bulk_log), (words, words_log)):
            cpu.regs._regs[10:] = [0] * (len(cpu.regs._regs) - 10)
        for window in reversed(windows):
            bulk._fill_window(window)
            _fill_word_by_word(words, window)
        assert self._state(bulk, bulk_log) == self._state(words, words_log)
        assert bulk._save_sp == 1 << 12

    @pytest.mark.parametrize("save_sp", [40, (1 << 12) - 2, 1 << 13])
    def test_faulting_spill_traps_on_the_same_word(self, save_sp):
        (bulk, bulk_log), (words, words_log) = self._pair(save_sp)
        with pytest.raises(Trap) as bulk_trap:
            bulk._spill_windows([1])
        with pytest.raises(Trap) as words_trap:
            _spill_word_by_word(words, [1])
        assert self._state(bulk, bulk_log, bulk_trap.value) == self._state(
            words, words_log, words_trap.value
        )

    @pytest.mark.parametrize("save_sp", [(1 << 12) - 32, -8, 2])
    def test_faulting_fill_traps_on_the_same_word(self, save_sp):
        (bulk, bulk_log), (words, words_log) = self._pair(save_sp)
        with pytest.raises(Trap) as bulk_trap:
            bulk._fill_window(1)
        with pytest.raises(Trap) as words_trap:
            _fill_word_by_word(words, 1)
        assert self._state(bulk, bulk_log, bulk_trap.value) == self._state(
            words, words_log, words_trap.value
        )
