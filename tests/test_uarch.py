"""Tests for the 5-stage pipeline timing model (:mod:`repro.uarch`).

The model is pure accounting over the retired-instruction stream, so
most scenarios here are handcrafted assembly with hand-computed stall
counts; engine-parity of the same accounting lives in
``tests/test_engine_diff.py``.
"""

import pytest

from repro.asm.assembler import assemble
from repro.cc.driver import compile_program, run_compiled
from repro.core.cpu import CPU
from repro.uarch import (
    DEFAULT_UARCH,
    PREDICTORS,
    PipelineStats,
    UarchConfig,
    parse_uarch_config,
    resolve_uarch,
    run_with_pipeline,
    standard_sweep,
)
from repro.uarch.predictors import (
    AlwaysNotTaken,
    BackwardTaken,
    TwoBitBHT,
    make_predictor,
)
from repro.workloads import ALL_WORKLOADS


def risc_pipeline(source, config=None, **cpu_kwargs):
    """Assemble, run once, return ``(RunResult, [PipelineStats])``."""
    cpu = CPU(**cpu_kwargs)
    cpu.load(assemble(source))
    configs = config or UarchConfig()
    return run_with_pipeline(cpu, configs)


# -- configuration ----------------------------------------------------------


class TestConfig:
    def test_defaults(self):
        config = UarchConfig()
        assert config.label == "bht2/full"
        assert config == DEFAULT_UARCH

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("", UarchConfig()),
            ("base", UarchConfig()),
            ("bht2/full", UarchConfig()),
            ("backward", UarchConfig(predictor="backward")),
            ("none", UarchConfig(forwarding="none")),
            ("pred=not_taken,fwd=ex", UarchConfig(predictor="not_taken", forwarding="ex")),
            ("bht=64,mispredict=3", UarchConfig(bht_entries=64, mispredict_penalty=3)),
            ("mem=1,depth=4", UarchConfig(mem_port_cycles=1, depth=4)),
        ],
    )
    def test_parse(self, spec, expected):
        assert parse_uarch_config(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        ["bogus", "pred=bogus", "fwd=sideways", "bht=7", "bht=x", "depth=2", "frob=1"],
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_uarch_config(spec)

    def test_spec_round_trip(self):
        config = UarchConfig(predictor="backward", forwarding="ex", bht_entries=64)
        assert parse_uarch_config(config.spec()) == config

    def test_dict_round_trip(self):
        config = UarchConfig(forwarding="none", mispredict_penalty=4)
        assert UarchConfig.from_dict(config.to_dict()) == config

    def test_resolve(self):
        assert resolve_uarch(None) is None
        assert resolve_uarch(False) is None
        assert resolve_uarch(True) == DEFAULT_UARCH
        assert resolve_uarch("backward") == UarchConfig(predictor="backward")
        config = UarchConfig(forwarding="ex")
        assert resolve_uarch(config) is config
        with pytest.raises(TypeError):
            resolve_uarch(42)

    def test_standard_sweep_isolates_axes(self):
        sweep = standard_sweep()
        assert len(sweep) == 5
        assert [c.predictor for c in sweep[:3]] == list(PREDICTORS)
        assert all(c.forwarding == "full" for c in sweep[:3])
        assert sorted(c.forwarding for c in sweep[3:]) == ["ex", "none"]
        assert all(c.predictor == "bht2" for c in sweep[3:])


# -- predictors -------------------------------------------------------------


class TestPredictors:
    def test_make_predictor_dispatch(self):
        assert isinstance(make_predictor(UarchConfig(predictor="not_taken")), AlwaysNotTaken)
        assert isinstance(make_predictor(UarchConfig(predictor="backward")), BackwardTaken)
        assert isinstance(make_predictor(UarchConfig(predictor="bht2")), TwoBitBHT)

    def test_backward_taken_rule(self):
        predictor = BackwardTaken()
        assert predictor.predict(0x100, 0x80) is True  # loop-closing
        assert predictor.predict(0x100, 0x180) is False  # forward
        assert predictor.predict(0x100, None) is False  # unknown target

    def test_bht_warms_up_and_saturates(self):
        predictor = TwoBitBHT(entries=16)
        pc = 0x40
        assert predictor.predict(pc, None) is False  # init: weakly not-taken
        predictor.update(pc, True)
        assert predictor.predict(pc, None) is True  # counter 2
        for _ in range(10):
            predictor.update(pc, True)  # saturates at 3, not beyond
        predictor.update(pc, False)
        assert predictor.predict(pc, None) is True  # hysteresis survives one
        predictor.update(pc, False)
        assert predictor.predict(pc, None) is False
        for _ in range(10):
            predictor.update(pc, False)  # saturates at 0
        predictor.update(pc, True)
        assert predictor.predict(pc, None) is False

    def test_bht_indexes_by_word_address(self):
        predictor = TwoBitBHT(entries=4)
        for _ in range(2):
            predictor.update(0x1000, True)
        # 0x1000 and 0x1010 collide in a 4-entry table ((pc >> 2) & 3)
        assert predictor.predict(0x1010, None) is True
        assert predictor.predict(0x1004, None) is False


# -- hazard accounting ------------------------------------------------------

#: Two isolated RAW pairs: an ALU->ALU dependency and a load->use
#: dependency (plus the dependent pairs hidden in the set/halt pseudo
#: expansions); 11 dynamic instructions, no control transfers.
HAZARD_PROGRAM = """
main:
    add r5, r0, #1
    add r6, r5, #1
    set r2, cell
    nop
    nop
    ldl r3, 0(r2)
    add r4, r3, #1
    halt r0
.data
cell: .word 7
"""


class TestHazards:
    @pytest.mark.parametrize(
        "forwarding, raw, load_use, cycles",
        [
            # full bypass: the 2-cycle memory port already covers the
            # MEM->EX latency, so even load->use runs bubble-free
            ("full", 0, 0, 17),
            # EX->EX only: loads wait for WB; one bubble per load-use pair
            ("ex", 0, 1, 18),
            # no bypass: 2 bubbles per dependent ALU pair (4 pairs: the
            # explicit one, set's ldhi+add, halt's ldhi+add and add->stl)
            ("none", 8, 1, 26),
        ],
    )
    def test_exact_stall_counts(self, forwarding, raw, load_use, cycles):
        _, (stats,) = risc_pipeline(HAZARD_PROGRAM, UarchConfig(forwarding=forwarding))
        assert stats.instructions == 11
        assert stats.raw_stalls == raw
        assert stats.load_use_stalls == load_use
        assert stats.cycles == cycles
        assert stats.control_stalls == 0
        assert stats.structural_stalls == 2  # ldl + halt's stl, 2 cycles each
        assert stats.delay_slots == 0

    def test_forwarding_ordering(self):
        source = ALL_WORKLOADS["towers"].source(DISKS=6)
        program = compile_program(source, target="risc1")
        by = {}
        for forwarding in ("none", "ex", "full"):
            result = run_compiled(program, uarch=UarchConfig(forwarding=forwarding))
            by[forwarding] = result.pipeline.cycles
        assert by["none"] >= by["ex"] >= by["full"]

    def test_windows_drain_matches_architectural_handler(self):
        source = ALL_WORKLOADS["towers"].source(DISKS=6)
        program = compile_program(source, target="risc1")
        cpu = CPU(num_windows=2)
        cpu.load(program.program)
        result, (stats,) = run_with_pipeline(cpu, UarchConfig())
        assert result.stats.overflow_cycles > 0
        assert stats.window_stalls == result.stats.overflow_cycles

    def test_physical_aliasing_across_windows(self):
        """A caller's outgoing register is the callee's incoming one: the
        hazard must follow the physical register through the rotation."""
        source = """
        main:
            call child
            add r10, r0, #41    ; slot: set the outgoing argument
            halt r10
        child:
            add r26, r26, #1
            ret
            nop
        """
        result, (none, full) = risc_pipeline(
            source, [UarchConfig(forwarding="none"), UarchConfig()]
        )
        assert result.exit_code == 42  # callee incremented the caller's r10
        # callee's `add r26, r26, #1` reads what the delay slot just wrote
        # to r10 — distinct visible names, same physical register, so the
        # no-bypass pipe must stall on it while full bypassing does not
        assert none.raw_stalls > full.raw_stalls


# -- branches and delay slots -----------------------------------------------

LOOP_PROGRAM = """
main:
    add r2, r0, #0
loop:
    add r2, r2, #1
    cmp r2, #100
    jne loop
    nop
    halt r0
"""


class TestBranches:
    def test_loop_outcome_inference(self):
        _, (stats,) = risc_pipeline(LOOP_PROGRAM, UarchConfig(predictor="bht2"))
        assert stats.branches == 100
        assert stats.branches_taken == 99
        assert stats.branches_unresolved == 0
        # the BHT warms up in two iterations, then only the exit misses
        assert stats.branch_hits == 98

    def test_predictor_quality_ordering_on_loop(self):
        results = {}
        for predictor in PREDICTORS:
            _, (stats,) = risc_pipeline(LOOP_PROGRAM, UarchConfig(predictor=predictor))
            results[predictor] = stats
        assert results["not_taken"].branch_hits == 1  # only the exit
        assert results["backward"].branch_hits == 99  # loop-closing rule
        assert results["backward"].cycles < results["not_taken"].cycles
        assert results["bht2"].cycles < results["not_taken"].cycles

    def test_mispredict_penalty_scales_control_stalls(self):
        cheap = risc_pipeline(LOOP_PROGRAM, UarchConfig(mispredict_penalty=1))[1][0]
        dear = risc_pipeline(LOOP_PROGRAM, UarchConfig(mispredict_penalty=4))[1][0]
        assert dear.mispredicts == cheap.mispredicts
        assert dear.control_stalls == 4 * cheap.control_stalls

    def test_branch_cut_off_by_halt_is_unresolved(self):
        """A branch whose resolving retire never arrives is counted as
        unresolved, not guessed (model-level: the ``halt`` pseudo always
        expands to enough retires to resolve in real programs)."""
        from repro.uarch import PipelineModel, Retire

        model = PipelineModel(UarchConfig())
        branch = Retire(0x1000, (), (), False, False, True, True, None, 0x1008, False, 1)
        slot = Retire(0x1004, (), (), False, False, False, False, None, None, False, 1)
        model.replay([branch, slot])  # the slot; then the run halts
        stats = model.finalize()
        assert stats.branches_unresolved == 1
        assert stats.branches == 0

    def test_delay_slot_scoring(self):
        filled = """
        main:
            add r2, r0, #0
            jmp next
            add r2, r2, #5
        next:
            halt r2
        """
        result, (stats,) = risc_pipeline(filled)
        assert result.exit_code == 5  # the slot really executed
        assert stats.delay_slots == 1
        assert stats.delay_slots_filled == 1
        assert stats.delay_slot_nops == 0

        _, (loop_stats,) = risc_pipeline(LOOP_PROGRAM)
        # every dynamic jne slot holds the nop the optimizer would fill
        assert loop_stats.delay_slots == 100
        assert loop_stats.delay_slot_nops == 100
        assert loop_stats.slot_fill_rate == 0.0


# -- harness, serialization, surfaces ---------------------------------------


class TestHarnessAndSurfaces:
    def test_multi_probe_single_run(self):
        cpu = CPU()
        cpu.load(assemble(LOOP_PROGRAM))
        result, stats = run_with_pipeline(cpu, standard_sweep())
        assert len(stats) == 5
        assert len({s.instructions for s in stats}) == 1  # one retired stream
        labels = [UarchConfig.from_dict(s.config).label for s in stats]
        assert labels == [c.label for c in standard_sweep()]
        assert result.pipeline is None  # probes, not the run() opt-in

    def test_run_result_round_trip(self):
        from repro.core.api import RunResult

        cpu = CPU()
        cpu.load(assemble(LOOP_PROGRAM))
        result = cpu.run(uarch="backward/ex")
        assert result.pipeline is not None
        payload = result.to_dict()
        assert payload["pipeline"]["config"]["predictor"] == "backward"
        restored = RunResult.from_dict(payload)
        assert isinstance(restored.pipeline, PipelineStats)
        assert restored.pipeline.to_dict() == result.pipeline.to_dict()

    def test_uarch_off_leaves_result_unchanged(self):
        cpu = CPU()
        cpu.load(assemble(LOOP_PROGRAM))
        result = cpu.run()
        assert result.pipeline is None
        assert "pipeline" not in result.to_dict()

    def test_pipeline_stats_dict_is_self_describing(self):
        _, (stats,) = risc_pipeline(LOOP_PROGRAM)
        payload = stats.to_dict()
        assert payload["cpi"] == round(stats.cpi, 4)
        assert payload["mispredicts"] == stats.mispredicts
        assert PipelineStats.from_dict(payload).to_dict() == payload

    def test_vax_pipeline_occupancy(self):
        source = ALL_WORKLOADS["towers"].source(DISKS=5)
        program = compile_program(source, target="cisc")
        result = run_compiled(program, uarch=True)
        stats = result.pipeline
        assert stats.machine == "cisc"
        assert stats.instructions == result.stats.instructions
        # multi-cycle instructions occupy EX: the dominant VAX cost
        assert stats.structural_stalls > 0
        assert stats.delay_slots == 0  # no delayed branches on the VAX
        assert stats.cycles >= result.stats.cycles - stats.window_stalls

    def test_cli_smoke(self, tmp_path, capsys):
        from repro.core.cli import main

        source = tmp_path / "loop.s"
        source.write_text(LOOP_PROGRAM, encoding="utf-8")
        assert main([str(source), "--uarch", "pred=backward"]) == 0
        err = capsys.readouterr().err
        assert "pipeline model" in err
        assert "backward/full" in err

    def test_cli_rejects_bad_spec(self, tmp_path, capsys):
        from repro.core.cli import main

        source = tmp_path / "loop.s"
        source.write_text(LOOP_PROGRAM, encoding="utf-8")
        with pytest.raises(SystemExit):
            main([str(source), "--uarch", "pred=oracle"])

    def test_stall_events_reach_tracer(self):
        from repro.obs import EventKind, Tracer
        from repro.obs.exporters import to_chrome

        tracer = Tracer(kinds={EventKind.PIPE_STALL})
        cpu = CPU(tracer=tracer)
        cpu.load(assemble(LOOP_PROGRAM))
        result = cpu.run(uarch="not_taken/none")
        stalls = [e for e in tracer.events if e.kind is EventKind.PIPE_STALL]
        assert stalls
        causes = {e.data["cause"] for e in stalls}
        assert "control" in causes
        emitted = sum(e.data["cycles"] for e in stalls if e.data["cause"] == "control")
        assert emitted == result.pipeline.control_stalls
        document = to_chrome(tracer.events)
        counters = [e for e in document["traceEvents"] if e.get("name") == "pipeline stalls"]
        assert counters
        assert counters[-1]["args"]["control"] == result.pipeline.control_stalls


class TestSuiteOrdering:
    """The CI smoke gate's property: on the towers+qsort aggregate the
    predictors order by strength (towers alone is a 2-bit-counter
    pathology — its one hot branch alternates — which is why the gate
    reads the aggregate)."""

    def test_cpi_ordering_on_smoke_aggregate(self):
        totals = {p: [0, 0] for p in PREDICTORS}
        configs = [UarchConfig(predictor=p) for p in PREDICTORS]
        for name, params in (("towers", {"DISKS": 10}), ("qsort", {})):
            source = ALL_WORKLOADS[name].source(**params)
            program = compile_program(source, target="risc1")
            cpu = CPU()
            cpu.load(program.program)
            _, stats = run_with_pipeline(cpu, configs)
            for predictor, s in zip(PREDICTORS, stats):
                totals[predictor][0] += s.cycles
                totals[predictor][1] += s.instructions
        cpi = {p: c / i for p, (c, i) in totals.items()}
        assert cpi["bht2"] <= cpi["backward"] <= cpi["not_taken"], cpi
