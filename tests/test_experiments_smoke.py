"""Fast smoke tests for the experiment harnesses.

The heavyweight measured experiments (E6-E11) run fully under
``pytest benchmarks/``; here we verify the cheap ones end-to-end and the
expensive ones on a single reduced configuration, so a plain
``pytest tests/`` still exercises every experiment code path.
"""

from repro.analysis.windows import sweep
from repro.experiments import (
    common,
    e1_characteristics,
    e3_instruction_set,
    e4_formats,
    e5_register_windows,
)


class TestStaticExperiments:
    def test_e1(self):
        table = e1_characteristics.run()
        assert table.cell("RISC I", "instructions") == 31
        assert "RISC I" in table.render()

    def test_e3(self):
        table = e3_instruction_set.run()
        assert len(table.rows) == 31
        mnemonics = table.column("instruction")
        for expected in ("ADD", "LDHI", "CALL", "RET", "GETPSW"):
            assert expected in mnemonics

    def test_e4(self):
        table = e4_formats.run()
        assert table.column("total bits") == [32, 32]
        figure = e4_formats.render_figure()
        assert "opcode(7)" in figure

    def test_e5(self):
        table = e5_register_windows.run()
        assert table.cell("r10-r15 LOW", "proc A (w0)") == "p26..p31"
        assert "overlap check" in e5_register_windows.render_figure()


class TestCommonPlumbing:
    def test_compiled_is_cached(self):
        first = common.compiled("towers", "risc1", "default")
        second = common.compiled("towers", "risc1", "default")
        assert first is second

    def test_executed_verifies_output(self):
        result = common.executed("towers", "risc1", "default")
        assert result.exit_code == 0

    def test_ir_profile(self):
        profile = common.ir_profile("towers", "default")
        assert profile.counts.calls > 1000

    def test_traced_run_produces_trace(self):
        trace, _ = common.traced_run("towers", "default")
        assert trace
        kinds = {event for event, _ in trace}
        assert kinds == {"call", "ret"}

    def test_bench_scale_changes_source(self):
        small = common.workload_source("towers", "default")
        big = common.workload_source("towers", "bench")
        assert small != big

    def test_clock_helpers(self):
        assert common.risc_ms(2500) == 1.0
        assert common.cisc_ms(5000) == 1.0


class TestMiniMeasuredExperiment:
    def test_window_sweep_on_real_trace(self):
        """A single-program, reduced version of E6."""
        trace, _ = common.traced_run("towers", "default")
        stats = sweep(trace, (2, 8))
        assert stats[0].overflow_rate == 1.0
        assert stats[1].overflow_rate < 0.05


class TestCli:
    def test_cli_static_experiments(self, capsys):
        from repro.experiments.cli import main

        assert main(["e3", "e4"]) == 0
        out = capsys.readouterr().out
        assert "31 instructions" in out or "RISC I" in out

    def test_cli_metrics_out(self, tmp_path, capsys):
        import json

        from repro.experiments.cli import main

        out = tmp_path / "metrics.json"
        assert main(["e9", "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        # e9 simulates runs on both machines; their counters must land here
        assert any(name.startswith("risc1.") for name in snapshot)
        assert snapshot["risc1.runs"]["value"] >= 1

    def test_cli_rejects_unknown(self):
        import pytest

        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["e99"])
