"""Tests for the analysis tools: tables, window replay, call cost,
estimators and the conventional-call model."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.callcost import conventional_cost, measure
from repro.analysis.report import Table, geometric_mean
from repro.analysis.windows import CallTracer, replay, sweep
from repro.baselines.conventional import ConventionalCallModel
from repro.baselines.estimators import M68000, Z8002
from repro.cc.driver import compile_program
from repro.cc.irvm import run_ir
from repro.core.stats import ExecutionStats


class TestTable:
    def make(self):
        table = Table("T", ["name", "x", "y"])
        table.add_row("a", 1, 2.5)
        table.add_row("b", 3, 4.0)
        return table

    def test_cell_and_column(self):
        table = self.make()
        assert table.cell("a", "y") == 2.5
        assert table.column("x") == [1, 3]

    def test_render_contains_everything(self):
        table = self.make()
        table.add_note("hello")
        text = table.render()
        assert "T" in text and "2.50" in text and "note: hello" in text

    def test_row_arity_checked(self):
        table = self.make()
        with pytest.raises(ValueError):
            table.add_row("c", 1)

    def test_missing_row_key(self):
        with pytest.raises(KeyError):
            self.make().cell("zz", "x")

    def test_geometric_mean(self):
        assert abs(geometric_mean([2.0, 8.0]) - 4.0) < 1e-9
        assert geometric_mean([]) == 0.0


class TestWindowReplay:
    def balanced_trace(self, depth):
        trace = [("call", d) for d in range(2, depth + 2)]
        trace += [("ret", d) for d in range(depth, 0, -1)]
        return trace

    def test_shallow_trace_never_overflows(self):
        stats = replay(self.balanced_trace(5), num_windows=8)
        assert stats.overflows == 0
        assert stats.max_depth == 6

    def test_deep_trace_overflows(self):
        stats = replay(self.balanced_trace(20), num_windows=4)
        assert stats.overflows == 20 - (4 - 1) + 1  # beyond capacity
        assert stats.underflows == stats.overflows
        assert stats.registers_spilled == 16 * stats.overflows

    def test_matches_cpu_register_file(self):
        """Replaying a real CPU trace reproduces the CPU's own counts."""
        from repro.asm import assemble
        from repro.core import CPU

        source = """
        main:
            add r10, r0, #25
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
        tracer = CallTracer()
        cpu = CPU(num_windows=4, tracer=tracer)
        cpu.load(assemble(source))
        result = cpu.run()
        stats = replay(tracer.trace, num_windows=4)
        assert stats.overflows == result.stats.window_overflows
        assert stats.underflows == result.stats.window_underflows

    def test_sweep_monotone(self):
        trace = self.balanced_trace(12)
        rates = [s.overflow_rate for s in sweep(trace, (2, 4, 8, 16))]
        assert rates == sorted(rates, reverse=True)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            replay([], num_windows=1)
        with pytest.raises(ValueError):
            replay([("jump", 1)], num_windows=4)

    @given(depth=st.integers(1, 60), windows=st.sampled_from([2, 4, 8, 16]))
    def test_balance_property(self, depth, windows):
        stats = replay(self.balanced_trace(depth), num_windows=windows)
        assert stats.calls == stats.returns == depth
        assert stats.overflows == stats.underflows
        # a monotone descent overflows once the W-1 resident frames fill
        expected = depth - (windows - 1) + 1 if depth >= windows - 1 else 0
        assert stats.overflows == expected


class TestCallCost:
    def test_windows_vs_calls(self):
        windows = measure("risc1")
        vax = measure("cisc")
        assert windows.data_refs < 3
        assert vax.data_refs > 10
        assert windows.nanoseconds < vax.nanoseconds

    def test_conventional_scales_with_saved_registers(self):
        costs = [conventional_cost(n).cycles for n in (4, 8, 12)]
        assert costs == sorted(costs)
        assert conventional_cost(8).data_refs == measure("risc1").data_refs + 16


class TestConventionalModel:
    def test_repricing_arithmetic(self):
        stats = ExecutionStats(instructions=1000, cycles=1500, calls=100)
        model = ConventionalCallModel(saved_registers=8)
        projection = model.reprice(stats)
        expected_extra = 100 * model.extra_cycles_per_call
        assert projection.cycles == 1500 + expected_extra
        assert projection.slowdown > 1.0

    def test_overflow_cycles_credited_back(self):
        thrashing = ExecutionStats(
            instructions=1000, cycles=5000, calls=100,
            overflow_cycles=3000, spilled_registers=800, filled_registers=800,
            data_reads=1000, data_writes=1000,
        )
        projection = ConventionalCallModel(saved_registers=4).reprice(thrashing)
        # windows were already paying heavily; a small save set can win
        assert projection.cycles < thrashing.cycles


class TestEstimators:
    def profile(self, source):
        compiled = compile_program(source, target="risc1")
        return compiled.ir, run_ir(compiled.ir).counts

    def test_size_and_cycles_positive(self):
        ir_program, counts = self.profile(
            "int main() { int t = 0; for (int i = 0; i < 9; i++) t += i; return t; }"
        )
        for model in (M68000, Z8002):
            assert model.code_size(ir_program) > 0
            assert model.cycles(counts) > 0
            assert model.milliseconds(counts) > 0

    def test_multiplication_is_expensive(self):
        _, cheap = self.profile(
            "int id(int x) { return x; } int main() { return id(3) + id(4); }"
        )
        _, costly = self.profile(
            "int id(int x) { return x; } int main() { return id(3) * id(4); }"
        )
        for model in (M68000, Z8002):
            assert model.cycles(costly) > model.cycles(cheap)

    def test_markers_do_not_cost_anything(self):
        ir_program, counts = self.profile("int main() { if (1) return 1; return 0; }")
        assert any(k.startswith("stmt:") for k in counts.ops)
        M68000.cycles(counts)  # must not raise on marker keys
