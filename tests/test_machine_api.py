"""The unified Machine protocol and RunResult schema, against both CPUs.

Every test here is parametrized over the two simulated processors: the
point of ``repro.core.api`` is that the machines are interchangeable
behind one surface, and this suite is where that interchangeability is
enforced.
"""

import pytest

from repro.baselines.vax.cpu import VaxCPU
from repro.cc.driver import compile_program
from repro.core.api import (
    Machine,
    MachineHalted,
    RunResult,
    StepLimitExceeded,
)
from repro.core.cpu import CPU
from repro.machine.traps import Trap
from repro.obs import FLOW_KINDS, EventKind, Tracer

TARGETS = ["risc1", "cisc"]
MACHINES = {"risc1": CPU, "cisc": VaxCPU}

FIB = """
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { putint(fib(10)); return 0; }
"""


def fresh_machine(target, **kwargs):
    cpu = MACHINES[target](**kwargs)
    cpu.load(compile_program(FIB, target=target).program)
    return cpu


class TestProtocolSurface:
    @pytest.mark.parametrize("target", TARGETS)
    def test_machines_satisfy_protocol(self, target):
        cpu = MACHINES[target]()
        assert isinstance(cpu, Machine)
        assert cpu.name == target

    @pytest.mark.parametrize("target", TARGETS)
    def test_run_returns_unified_result(self, target):
        result = fresh_machine(target).run(max_steps=20_000_000)
        assert type(result) is RunResult
        assert result.machine == target
        assert result.exit_code == 0
        assert result.output == "55"
        # the uniform accessors work without knowing the stats class
        assert result.cycles > 0
        assert result.instructions > 0
        assert result.data_references >= 0

    @pytest.mark.parametrize("target", TARGETS)
    def test_step_and_halted(self, target):
        cpu = fresh_machine(target)
        assert not cpu.halted
        with pytest.raises(MachineHalted) as excinfo:
            for _ in range(20_000_000):
                cpu.step()
        assert cpu.halted
        assert excinfo.value.code == 0
        assert cpu.exit_code == 0

    @pytest.mark.parametrize("target", TARGETS)
    def test_load_resets_halted(self, target):
        cpu = fresh_machine(target)
        cpu.run(max_steps=20_000_000)
        assert cpu.halted
        cpu.load(compile_program(FIB, target=target).program)
        assert not cpu.halted
        assert cpu.exit_code is None


class TestStepLimit:
    @pytest.mark.parametrize("target", TARGETS)
    def test_tiny_budget_raises(self, target):
        cpu = fresh_machine(target)
        with pytest.raises(StepLimitExceeded) as excinfo:
            cpu.run(max_steps=10)
        assert excinfo.value.limit == 10

    @pytest.mark.parametrize("target", TARGETS)
    def test_limit_is_still_a_trap(self, target):
        # pre-unification callers catch Trap with this message; keep both
        with pytest.raises(Trap, match="instruction limit"):
            fresh_machine(target).run(max_steps=10)


class TestResultSchema:
    @pytest.mark.parametrize("target", TARGETS)
    def test_round_trip(self, target):
        result = fresh_machine(target).run(max_steps=20_000_000)
        payload = result.to_dict()
        assert payload["schema"] == 2
        assert payload["machine"] == target
        rebuilt = RunResult.from_dict(payload)
        assert rebuilt == result
        assert type(rebuilt.stats) is type(result.stats)

    @pytest.mark.parametrize("target", TARGETS)
    def test_untagged_payload_is_rejected(self, target):
        payload = fresh_machine(target).run(max_steps=20_000_000).to_dict()
        del payload["machine"]  # schema-1 artifacts have no tag
        with pytest.raises(KeyError):
            RunResult.from_dict(payload)


class TestTracedRuns:
    @pytest.mark.parametrize("target", TARGETS)
    def test_call_events_balance(self, target):
        tracer = Tracer(kinds=FLOW_KINDS)
        result = fresh_machine(target, tracer=tracer).run(max_steps=20_000_000)
        assert result.exit_code == 0
        counts = tracer.counts()
        assert counts["call"] == counts["ret"] > 100  # fib(10) recursion
        # timestamps never go backwards on the simulated timeline
        stamps = [event.ts for event in tracer.events]
        assert stamps == sorted(stamps)

    def test_overflow_between_call_and_ret(self):
        # with only 2 windows, the fib recursion must spill: the paper's
        # CALL -> WINDOW_OVERFLOW -> ... -> WINDOW_UNDERFLOW -> RET story
        tracer = Tracer(kinds=FLOW_KINDS)
        fresh_machine("risc1", num_windows=2, tracer=tracer).run(max_steps=20_000_000)
        kinds = [event.kind for event in tracer.events]
        assert EventKind.WINDOW_OVERFLOW in kinds
        assert EventKind.WINDOW_UNDERFLOW in kinds
        first_overflow = kinds.index(EventKind.WINDOW_OVERFLOW)
        # the overflow is caused by a call, so a CALL precedes it...
        assert EventKind.CALL in kinds[:first_overflow]
        # ...and the window refills before the matching returns finish
        assert kinds.index(EventKind.WINDOW_UNDERFLOW) < len(kinds) - 1
        last_ret = [e for e in tracer.events if e.kind is EventKind.RET][-1]
        assert last_ret.data["depth"] <= 1  # the recursion fully unwound

    @pytest.mark.parametrize("target", TARGETS)
    def test_run_accepts_tracer_argument(self, target):
        cpu = fresh_machine(target)
        tracer = Tracer(kinds={EventKind.RETIRE})
        result = cpu.run(max_steps=20_000_000, tracer=tracer)
        assert tracer.counts()["retire"] == result.instructions
