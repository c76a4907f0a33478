"""Tests for memory, the windowed register file, and the PSW."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.conditions import ConditionCodes
from repro.machine.memory import Memory, MemoryError_
from repro.machine.psw import PSW
from repro.machine.regfile import RegisterFile
from repro.machine.traps import Trap, TrapKind


class TestMemory:
    def test_word_round_trip(self):
        mem = Memory(4096)
        mem.write(0x10, 0xDEADBEEF, 4)
        assert mem.read(0x10, 4) == 0xDEADBEEF

    def test_big_endian_layout(self):
        mem = Memory(4096)
        mem.write(0, 0x11223344, 4)
        assert mem.read(0, 1) == 0x11
        assert mem.read(3, 1) == 0x44

    def test_signed_reads(self):
        mem = Memory(4096)
        mem.write(0, 0xFF, 1)
        assert mem.read(0, 1, signed=True) == -1
        mem.write(2, 0x8000, 2)
        assert mem.read(2, 2, signed=True) == -32768

    def test_write_masks_value(self):
        mem = Memory(4096)
        mem.write(0, 0x1FF, 1)
        assert mem.read(0, 1) == 0xFF

    def test_alignment_trap(self):
        mem = Memory(4096)
        with pytest.raises(MemoryError_) as excinfo:
            mem.read(2, 4)
        assert excinfo.value.kind is TrapKind.ALIGNMENT
        with pytest.raises(MemoryError_):
            mem.write(1, 0, 2)

    def test_bus_error(self):
        mem = Memory(4096)
        with pytest.raises(MemoryError_) as excinfo:
            mem.read(4096, 4)
        assert excinfo.value.kind is TrapKind.BUS_ERROR
        with pytest.raises(MemoryError_):
            mem.read(-4, 4)

    def test_traffic_accounting(self):
        mem = Memory(4096)
        mem.write(0, 1, 4)
        mem.read(0, 4)
        mem.fetch_word(0)
        assert mem.stats.data_writes == 1
        assert mem.stats.data_reads == 1
        assert mem.stats.inst_fetches == 1
        assert mem.stats.data_references == 2
        assert mem.stats.total == 3

    def test_load_image_not_counted(self):
        mem = Memory(4096)
        mem.load_image(0, b"\x01\x02\x03\x04")
        assert mem.stats.total == 0
        assert mem.dump(0, 4) == b"\x01\x02\x03\x04"

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            Memory(0)
        with pytest.raises(ValueError):
            Memory(1001)

    @given(
        address=st.integers(0, 1020).map(lambda a: a & ~3),
        value=st.integers(0, 0xFFFFFFFF),
    )
    def test_word_round_trip_property(self, address, value):
        mem = Memory(1024)
        mem.write(address, value, 4)
        assert mem.read(address, 4) == value


class TestRegisterFile:
    def test_r0_is_zero(self):
        regs = RegisterFile()
        regs.write(0, 123)
        assert regs.read(0) == 0

    def test_values_masked_to_32_bits(self):
        regs = RegisterFile()
        regs.write(5, 1 << 40)
        assert regs.read(5) == 0

    def test_parameter_passing_through_overlap(self):
        """Caller writes LOW r10; after a CALL the callee reads HIGH r26."""
        regs = RegisterFile()
        regs.write(10, 42)
        regs.write(11, 43)
        assert regs.call_advance() == []
        assert regs.read(26) == 42
        assert regs.read(27) == 43

    def test_locals_preserved_across_call(self):
        regs = RegisterFile()
        regs.write(16, 7)
        regs.call_advance()
        regs.write(16, 99)  # callee's local must not disturb caller's
        regs.ret_retreat()
        assert regs.read(16) == 7

    def test_return_value_through_overlap(self):
        regs = RegisterFile()
        regs.call_advance()
        regs.write(26, 77)  # callee writes its HIGH r26
        regs.ret_retreat()
        assert regs.read(10) == 77  # caller reads its LOW r10

    def test_globals_shared(self):
        regs = RegisterFile()
        regs.write(5, 1234)
        regs.call_advance()
        assert regs.read(5) == 1234

    def test_overflow_after_w_minus_1_frames(self):
        regs = RegisterFile(num_windows=4)
        assert regs.call_advance() == []  # depth 2, resident 2
        assert regs.call_advance() == []  # depth 3, resident 3 == max
        spill = regs.call_advance()  # depth 4 -> overflow
        assert len(spill) == 1
        assert regs.overflows == 1

    def test_underflow_on_return_to_spilled_frame(self):
        regs = RegisterFile(num_windows=4)
        for _ in range(3):
            regs.call_advance()
        assert regs.ret_retreat() is None  # back into a resident frame? no:
        # depth went 1->4 with one spill; resident is 3; first ret is free.
        assert regs.ret_retreat() is None
        fill = regs.ret_retreat()
        assert fill is not None
        assert regs.underflows == 1

    def test_return_from_outermost_frame_traps(self):
        regs = RegisterFile()
        with pytest.raises(Trap) as excinfo:
            regs.ret_retreat()
        assert excinfo.value.kind is TrapKind.WINDOW_UNDERFLOW

    def test_depth_tracks_nesting_beyond_capacity(self):
        regs = RegisterFile(num_windows=2)
        for _ in range(10):
            regs.call_advance()
        assert regs.depth == 11
        assert regs.overflows == 10  # with 2 windows every call spills

    def test_window_slots_are_16_distinct_physical_regs(self):
        regs = RegisterFile()
        slots = regs.window_slots(3)
        assert len(slots) == 16
        assert len(set(slots)) == 16

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError):
            RegisterFile(num_windows=1)

    @given(depth=st.integers(1, 40), windows=st.sampled_from([2, 4, 8, 16]))
    def test_call_ret_balance_property(self, depth, windows):
        """calls == returns after a balanced sequence; depth returns to 1."""
        regs = RegisterFile(num_windows=windows)
        for _ in range(depth):
            regs.call_advance()
        for _ in range(depth):
            regs.ret_retreat()
        assert regs.depth == 1
        assert regs.calls == regs.returns == depth
        assert regs.overflows == regs.underflows


class TestPSW:
    def test_pack_unpack_round_trip(self):
        psw = PSW(cc=ConditionCodes(z=True, n=False, c=True, v=False), cwp=5)
        psw.interrupts_enabled = False
        packed = psw.pack()
        other = PSW()
        other.unpack(packed)
        assert other.cc == psw.cc
        assert other.interrupts_enabled is False
        assert other.cwp == 5

    def test_condition_codes_from_result(self):
        cc = ConditionCodes.from_result(0)
        assert cc.z and not cc.n
        cc = ConditionCodes.from_result(0x80000000)
        assert cc.n and not cc.z


class TestTrapPickling:
    def test_round_trip_keeps_kind_detail_and_pc(self):
        import pickle

        trap = Trap(TrapKind.BUS_ERROR, "x", 4)
        copy = pickle.loads(pickle.dumps(trap))
        assert (type(copy), copy.kind, copy.detail, copy.pc) == (Trap, TrapKind.BUS_ERROR, "x", 4)
        assert str(copy) == str(trap)

    def test_pc_filled_in_after_raising(self):
        import pickle

        memory = Memory(64)
        with pytest.raises(MemoryError_) as excinfo:
            memory.read(64, 4)
        trap = excinfo.value
        trap.pc = 0x1000  # as the faulting step fills it in
        copy = pickle.loads(pickle.dumps(trap))
        assert type(copy) is MemoryError_
        assert (copy.kind, copy.detail, copy.pc) == (trap.kind, trap.detail, 0x1000)
        assert "at pc=0x00001000" in str(copy)

    def test_step_limit_round_trip(self):
        import pickle

        from repro.core.api import StepLimitExceeded
        from repro.core.stats import ExecutionStats

        stats = ExecutionStats(instructions=7)
        copy = pickle.loads(pickle.dumps(StepLimitExceeded(7, pc=8, stats=stats)))
        assert (copy.limit, copy.pc, copy.kind) == (7, 8, TrapKind.HALT)
        assert copy.stats.instructions == 7
