"""The full verified workload matrix.

Every benchmark program must produce its Python-reference output on all
three executors.  This is the gate that makes the E8/E9 comparison tables
trustworthy: a benchmark that computes the wrong answer measures nothing.
"""

import pytest

from repro.cc.driver import compile_program, run_compiled
from repro.cc.irvm import run_ir
from repro.workloads import ALL_WORKLOADS, BENCHMARK_SUITE, Workload


class TestRegistry:
    def test_suite_inventory(self):
        # the paper's table has eleven programs; call_overhead is E7's extra
        assert len(BENCHMARK_SUITE) == 11
        assert "call_overhead" not in BENCHMARK_SUITE
        assert len(ALL_WORKLOADS) == 12

    def test_categories_cover_the_design_space(self):
        categories = {w.category for w in ALL_WORKLOADS.values()}
        assert categories == {"call-heavy", "loop-heavy", "mixed"}

    def test_param_substitution(self):
        workload = ALL_WORKLOADS["towers"]
        source = workload.source(DISKS=5)
        assert "int PARAM_DISKS = 5;" in source

    def test_unknown_param_rejected(self):
        with pytest.raises(KeyError):
            ALL_WORKLOADS["towers"].source(NOPE=1)

    def test_bench_params_differ_from_defaults(self):
        for workload in ALL_WORKLOADS.values():
            assert workload.bench_params != workload.default_params, workload.name


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
class TestVerifiedExecution:
    def test_ir_oracle(self, name):
        workload = ALL_WORKLOADS[name]
        compiled = compile_program(workload.source(), target="risc1")
        assert run_ir(compiled.ir).output == workload.expected_output()

    def test_risc1(self, name):
        workload = ALL_WORKLOADS[name]
        compiled = compile_program(workload.source(), target="risc1")
        result = run_compiled(compiled, max_steps=100_000_000)
        assert result.output == workload.expected_output()
        assert result.exit_code == 0

    def test_cisc(self, name):
        workload = ALL_WORKLOADS[name]
        compiled = compile_program(workload.source(), target="cisc")
        result = run_compiled(compiled, max_steps=100_000_000)
        assert result.output == workload.expected_output()
        assert result.exit_code == 0


class TestReferenceSelfConsistency:
    """The Python oracles themselves must satisfy basic sanity relations."""

    def test_towers_matches_closed_form(self):
        assert ALL_WORKLOADS["towers"].expected_output(DISKS=7) == "127\n"

    def test_ackermann_known_values(self):
        assert ALL_WORKLOADS["ackermann"].expected_output(M=2, N=2) == "7\n"
        assert ALL_WORKLOADS["ackermann"].expected_output(M=3, N=3) == "61\n"

    def test_queens_known_values(self):
        assert ALL_WORKLOADS["puzzle_subscript"].expected_output(N=8) == "92\n"
        assert ALL_WORKLOADS["puzzle_pointer"].expected_output(N=8) == "92\n"

    def test_qsort_scales(self):
        small = ALL_WORKLOADS["qsort"].expected_output(N=50)
        large = ALL_WORKLOADS["qsort"].expected_output(N=400)
        assert small.startswith("1 ") and large.startswith("1 ")
        assert small != large
