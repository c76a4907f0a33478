"""Deeper semantics tests for the RISC I core: deferred window rotation,
spill/fill data integrity, traps, interrupts, and property tests pitting
the CPU against a Python model of the ALU."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.core import CPU
from repro.core.cpu import to_signed
from repro.machine.traps import Trap, TrapKind


def run(source, **kwargs):
    cpu = CPU(**kwargs)
    cpu.load(assemble(source))
    return cpu, cpu.run(max_steps=2_000_000)


class TestDeferredWindowRotation:
    def test_call_delay_slot_runs_in_caller_window(self):
        """An argument move placed in the call's delay slot must land in
        the caller's LOW register (and hence the callee's HIGH)."""
        source = """
        main:
            call f
            add r10, r0, #33     ; delay slot: still the caller's window
            halt r10
        f:
            add r26, r26, #1     ; sees the argument set in the slot
            ret
            nop
        """
        _, result = run(source)
        assert result.exit_code == 34

    def test_ret_delay_slot_runs_in_callee_window(self):
        """The result move in a return's delay slot writes the callee's
        r26 — physically the caller's r10."""
        source = """
        main:
            call f
            nop
            halt r10
        f:
            add r16, r0, #55
            ret
            add r26, r16, #0     ; delay slot: still the callee's window
        """
        _, result = run(source)
        assert result.exit_code == 55

    def test_nested_transfer_in_delay_slot_traps(self):
        source = """
        main:
            call f
            call f               ; illegal: transfer in a call delay slot
            halt
        f:
            ret
            nop
        """
        with pytest.raises(Trap) as excinfo:
            run(source)
        assert excinfo.value.kind is TrapKind.ILLEGAL_INSTRUCTION

    def test_return_address_written_after_slot(self):
        source = """
        main:
            call f
            nop
            halt r10
        f:
            add r26, r31, #0     ; return address is visible in HIGH r31
            ret
            nop
        """
        cpu, result = run(source)
        # the call sits at the entry point
        assert result.exit_code == 0x1000


class TestSpillFillIntegrity:
    def test_deep_recursion_preserves_every_local(self):
        """Each frame stores a distinct local; spills and fills must bring
        every value back intact (sum of 1..N computed on the way out)."""
        source = """
        main:
            add r10, r0, #25
            call walk
            nop
            halt r10
        walk:
            add r16, r26, #0      ; local copy of n
            cmp r26, r0
            jne deeper
            nop
            add r26, r0, #0
            ret
            nop
        deeper:
            sub r10, r26, #1
            call walk
            nop
            add r26, r10, r16     ; r16 must have survived the spill
            ret
            nop
        """
        for windows in (2, 3, 4, 8):
            _, result = run(source, num_windows=windows)
            assert result.exit_code == sum(range(26)), f"{windows} windows"

    def test_spill_traffic_accounted(self):
        source = """
        main:
            add r10, r0, #20
            call walk
            nop
            halt r10
        walk:
            cmp r26, r0
            jne deeper
            nop
            add r26, r0, #0
            ret
            nop
        deeper:
            sub r10, r26, #1
            call walk
            nop
            ret
            add r26, r10, #0
        """
        cpu, result = run(source, num_windows=4)
        stats = result.stats
        assert stats.spilled_registers == 16 * stats.window_overflows
        assert stats.filled_registers == 16 * stats.window_underflows
        # the spill stores and fill loads appear in real memory traffic
        assert stats.data_writes >= stats.spilled_registers
        assert stats.data_reads >= stats.filled_registers
        # and the handler cycles are charged
        expected = (stats.window_overflows + stats.window_underflows) * (8 + 32)
        assert stats.overflow_cycles == expected


class TestInterruptInstructions:
    def test_callint_disables_and_retint_enables(self):
        source = """
        main:
            nop                   ; 0x1000: the "interrupted" instruction
            callint r16           ; r16 := last pc (0x1000), interrupts off
            getpsw r2
            and r3, r2, #0x80     ; interrupt-enable bit, read inside
            retint r16, #20       ; resume at 0x1000 + 20 = the nop below
            nop
            nop                   ; 0x1014: resumption point
            halt r3
        """
        _, result = run(source)
        assert result.exit_code == 0  # interrupts were disabled inside

    def test_callint_captures_last_pc(self):
        source = """
        main:
            nop                    ; executes at 0x1000
            callint r16            ; last pc = 0x1000
            add r2, r16, #0        ; 0x1008
            retint r16, #20        ; resume at 0x1000 + 20 = the halt
            nop
            halt r2                ; 0x1014
        """
        _, result = run(source)
        assert result.exit_code == 0x1000


class TestTraps:
    def test_illegal_instruction_trap(self):
        cpu = CPU()
        cpu.memory.load_image(0x1000, (0x7F << 25).to_bytes(4, "big"))
        cpu.pc, cpu.npc = 0x1000, 0x1004
        with pytest.raises(Exception, match="illegal opcode"):
            cpu.step()

    def test_load_fault_reports_pc(self):
        source = "main:\n set r2, #0x00F00000\n ldl r3, 0(r2)\n halt"
        with pytest.raises(Trap) as excinfo:
            run(source)
        assert excinfo.value.kind is TrapKind.BUS_ERROR
        assert excinfo.value.pc is not None

    def test_store_to_unknown_mmio_traps(self):
        source = "main:\n set r2, #0x7F000100\n stl r0, 0(r2)\n halt"
        with pytest.raises(Trap) as excinfo:
            run(source)
        assert excinfo.value.kind is TrapKind.BUS_ERROR


class TestAluProperties:
    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(-(1 << 31), (1 << 31) - 1), b=st.integers(-4096, 4095))
    def test_add_immediate_matches_python(self, a, b):
        source = f"""
        main:
            set r2, #{a}
            add r3, r2, #{b}
            halt r3
        """
        _, result = run(source)
        assert result.exit_code == to_signed(a + b)

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(-(1 << 31), (1 << 31) - 1), b=st.integers(-(1 << 31), (1 << 31) - 1))
    def test_signed_comparison_matches_python(self, a, b):
        source = f"""
        main:
            set r2, #{a}
            set r3, #{b}
            cmp r2, r3
            jlt less
            nop
            halt r0
        less:
            add r4, r0, #1
            halt r4
        """
        _, result = run(source)
        assert result.exit_code == int(a < b)

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(0, (1 << 32) - 1), b=st.integers(0, (1 << 32) - 1))
    def test_unsigned_comparison_matches_python(self, a, b):
        source = f"""
        main:
            set r2, #{a}
            set r3, #{b}
            cmp r2, r3
            jlo lower
            nop
            halt r0
        lower:
            add r4, r0, #1
            halt r4
        """
        _, result = run(source)
        assert result.exit_code == int(a < b)

    @settings(max_examples=20, deadline=None)
    @given(value=st.integers(-(1 << 31), (1 << 31) - 1), amount=st.integers(0, 31))
    def test_shift_family_matches_python(self, value, amount):
        source = f"""
        main:
            set r2, #{value}
            sll r3, r2, #{amount}
            srl r4, r2, #{amount}
            sra r5, r2, #{amount}
            puti r3
            putc r0
            puti r4
            putc r0
            puti r5
            halt
        """
        _, result = run(source)
        sll, srl, sra = result.output.split("\0")
        unsigned = value & 0xFFFFFFFF
        assert int(sll) == to_signed(unsigned << amount)
        assert int(srl) == to_signed(unsigned >> amount)
        assert int(sra) == value >> amount
