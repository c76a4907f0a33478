"""Golden parity of the pipeline model over the retired-instruction stream.

Every digest in ``tests/data/retire_golden.json`` is a sha256 of what
the pipeline model (and the machine) reported for one scenario.  The
file was generated before the per-step pipeline adapters were replaced
by the buffered retire stream, so these tests pin the replayed stream to
the per-step numbers:

* ``PipelineStats.to_dict()`` of :func:`standard_sweep` for every
  workload on both machines, and the machine stats beside it;
* the whole event stream of traced ``uarch="not_taken/none"`` runs,
  PIPE_STALL events included, in order;
* scenarios at the stream's seams: self-modifying code, the
  ``cpu.step()`` fallback (GTLPC, CALLINT), delivered interrupts, two
  register windows, traps, and a run cut by its step budget and resumed.

Each scenario runs on both engines, and again with the retire buffer's
chunk forced to 1 and to 7 records.  Regenerate the file only when a
change to the model's numbers is intended::

    PYTHONPATH=src python -m tests.test_retire_stream > tests/data/retire_golden.json
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.asm.assembler import assemble
from repro.baselines.vax.assembler import assemble_vax
from repro.baselines.vax.cpu import VaxCPU
from repro.cc.driver import compile_program
from repro.core.api import StepLimitExceeded
from repro.core.cpu import CPU
from repro.isa.encoding import EncodingError, Instruction, encode
from repro.isa.opcodes import Opcode
from repro.machine.traps import Trap
from repro.obs import EventKind, Tracer
from repro.uarch import run_with_pipeline, standard_sweep
from repro.workloads import ALL_WORKLOADS

GOLDEN_PATH = Path(__file__).parent / "data" / "retire_golden.json"
WORKLOADS = sorted(ALL_WORKLOADS)
ENGINES = ("reference", "fast")
MACHINES = {"risc1": CPU, "cisc": VaxCPU}


@functools.lru_cache(maxsize=None)
def workload_program(name: str, machine: str, **params):
    source = ALL_WORKLOADS[name].source(**params)
    return compile_program(source, target=machine).program


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ended(run) -> tuple:
    """``("halt", value)`` from a run, or how else it ended."""
    try:
        return ("halt", run())
    except StepLimitExceeded as exc:
        return ("limit", exc.limit, exc.pc)
    except Trap as trap:
        return ("trap", trap.kind.name, trap.pc)
    except EncodingError as exc:
        return ("encoding", str(exc))


def sweep_payload(cpu, engine) -> dict:
    """One run measured under the whole standard sweep."""
    ended = _ended(lambda: run_with_pipeline(
        cpu, standard_sweep(), engine=engine, max_steps=5_000_000
    ))
    if ended[0] != "halt":
        return {"ended": list(ended)}
    result, stats = ended[1]
    return {
        "exit": result.exit_code,
        "stats": result.stats.to_dict(),
        "pipeline": [s.to_dict() for s in stats],
    }


def traced_payload(cpu, engine, kinds=None, uarch="not_taken/none") -> dict:
    """The full event stream of one traced, probed run."""
    tracer = Tracer(capacity=None, kinds=kinds)
    ended = _ended(lambda: cpu.run(
        tracer=tracer, engine=engine, uarch=uarch, max_steps=5_000_000
    ))
    events = [[e.kind.value, e.ts, e.pc, e.data] for e in tracer.events]
    if ended[0] != "halt":
        return {"events": events, "ended": list(ended)}
    result = ended[1]
    return {"events": events, "pipeline": result.pipeline.to_dict(), "stats": result.stats.to_dict()}


def loaded(machine: str, program, **cpu_kwargs):
    cpu = MACHINES[machine](**cpu_kwargs)
    cpu.load(program)
    return cpu


# -- seam scenarios -------------------------------------------------------------

#: ``patch`` starts as ``add r6, r6, #1``; after the first pass the loop
#: stores a load over it, so the model must see the ALU op for the early
#: passes (still buffered when the store lands) and the load afterwards.
RISC_SELF_MODIFYING = """
main:
    set r2, patch
    set r3, newinst
    ldl r4, 0(r3)
    add r5, r0, #6
    add r6, r0, #0
loop:
    add r7, r6, #2
patch:
    add r6, r6, #1
    add r8, r7, r6
    stl r4, 0(r2)
    sub! r5, r5, #1
    jne loop
    nop
    halt r6

.data
newinst: .word 0
cell: .word 9
"""

#: ``patch`` starts as ``addl2 r8, r6``; the loop rewrites its first
#: specifier to r7, the register the instruction before it writes.
VAX_SELF_MODIFYING = """
__start:
        movl #6, r5
        clrl r6
        movl #1, r8
loop:
        movl r5, r7
patch:
        addl2 r8, r6
        movb #0x57, @#patch+1
        decl r5
        bneq loop
        movl r6, r0
        halt
"""

#: GTLPC and CALLINT run through ``cpu.step()`` on the fast engine.
RISC_FALLBACK = """
main:
    add r2, r0, #0
loop:
    gtlpc r3
    add r2, r2, #1
    cmp r2, #5
    jne loop
    nop
    callint r16
    add r4, r16, r3
    getpsw r5
    halt r2
"""

RISC_INTERRUPTS = """
main:
    add r2, r0, #0
loop:
    add r2, r2, #1
    cmp r2, #100
    jne loop
    nop
    set r3, cell
    ldl r4, 0(r3)
    puti r2
    putc r0
    puti r4
    halt r2

handler:
    set r16, cell
    ldl r17, 0(r16)
    add r17, r17, #1
    stl r17, 0(r16)
    retint r26, #0
    nop

.data
cell: .word 0
"""

RISC_TRAP = """
main:
    add r2, r0, #5
loop:
    sub! r2, r2, #1
    jne loop
    add r3, r0, #2
    ldl r4, 0(r3)
    halt r0
"""

#: A mispredicted branch resolves at the observation of the instruction
#: after its target, which the VAX model makes when the next one starts:
#: a trap while executing that one still shows the stall, a trap while
#: decoding it does not.
VAX_TRAP = """
__start:
        movl #3, r1
        clrl r2
        tstl r2
        beql skip
        halt
skip:
        incl r1
        FAULT
        halt
"""
VAX_EXECUTE_TRAP = VAX_TRAP.replace("FAULT", "divl2 r2, r1")
VAX_DECODE_TRAP = VAX_TRAP.replace("FAULT", ".byte 0xff")


def _risc_smc():
    patched = encode(Instruction.short(Opcode.LDL, dest=6, rs1=3, s2=4, imm=True))
    return assemble(RISC_SELF_MODIFYING.replace(".word 0", f".word {patched:#x}"))


def _hooked_interrupts(cpu, program):
    handler = program.symbol("handler")
    count = [0]

    def hook(pc, inst):
        count[0] += 1
        if count[0] in (20, 75, 130):
            cpu.raise_interrupt(handler)

    cpu.on_execute = hook
    return cpu


def _resumed(machine: str, program, engine: str, budget: int) -> dict:
    """A sweep cut by the step budget, then resumed by a second run."""
    cpu = loaded(machine, program)
    try:
        run_with_pipeline(cpu, standard_sweep(), engine=engine, max_steps=budget)
    except StepLimitExceeded as exc:
        cut = [exc.limit, exc.pc, exc.stats.to_dict()]
    else:  # pragma: no cover - the budget is chosen to cut the run
        cut = None
    return {"cut": cut, "resumed": sweep_payload(cpu, engine)}


def seam_cases() -> dict:
    """Scenario name -> ``fn(engine)`` returning the payload to digest."""
    interrupt_program = assemble(RISC_INTERRUPTS)
    towers = workload_program("towers", "risc1", DISKS=5)
    vax_towers = workload_program("towers", "cisc", DISKS=5)
    return {
        "risc_smc": lambda e: sweep_payload(loaded("risc1", _risc_smc()), e),
        "vax_smc": lambda e: sweep_payload(loaded("cisc", assemble_vax(VAX_SELF_MODIFYING)), e),
        "risc_fallback": lambda e: sweep_payload(loaded("risc1", assemble(RISC_FALLBACK)), e),
        "risc_interrupt_hooked": lambda e: sweep_payload(
            _hooked_interrupts(loaded("risc1", interrupt_program), interrupt_program), e
        ),
        "risc_interrupt_latched": lambda e: sweep_payload(_latched(interrupt_program), e),
        "risc_windows2": lambda e: sweep_payload(loaded("risc1", towers, num_windows=2), e),
        "risc_resumed": lambda e: _resumed("risc1", towers, e, 501),
        "vax_resumed": lambda e: _resumed("cisc", vax_towers, e, 501),
        "risc_events": lambda e: traced_payload(loaded("risc1", towers), e),
        "risc_events_windows3": lambda e: traced_payload(
            loaded("risc1", towers, num_windows=3), e
        ),
        "vax_events": lambda e: traced_payload(loaded("cisc", vax_towers), e),
        "risc_stall_events_only": lambda e: traced_payload(
            loaded("risc1", towers, num_windows=2), e, kinds={EventKind.PIPE_STALL}
        ),
        "vax_stall_events_only": lambda e: traced_payload(
            loaded("cisc", vax_towers), e, kinds={EventKind.PIPE_STALL}
        ),
        "risc_trap_events": lambda e: traced_payload(loaded("risc1", assemble(RISC_TRAP)), e),
        "vax_execute_trap_events": lambda e: traced_payload(
            loaded("cisc", assemble_vax(VAX_EXECUTE_TRAP)), e
        ),
        "vax_decode_trap_events": lambda e: traced_payload(
            loaded("cisc", assemble_vax(VAX_DECODE_TRAP)), e
        ),
        "risc_smc_events": lambda e: traced_payload(loaded("risc1", _risc_smc()), e),
        "risc_fallback_events": lambda e: traced_payload(
            loaded("risc1", assemble(RISC_FALLBACK)), e
        ),
    }


def _latched(program):
    cpu = loaded("risc1", program)
    cpu.raise_interrupt(program.symbol("handler"))
    return cpu


def sweep_case(machine: str, name: str):
    return lambda engine: sweep_payload(
        loaded(machine, workload_program(name, machine)), engine
    )


def all_cases() -> dict:
    cases = {
        f"sweep/{machine}/{name}": sweep_case(machine, name)
        for machine in MACHINES
        for name in WORKLOADS
    }
    cases.update(seam_cases())
    return cases


def generate() -> dict:
    """Digest every case on the reference engine."""
    return {name: digest(case("reference")) for name, case in sorted(all_cases().items())}


# -- the tests -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


CASES = all_cases()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, engine):
    assert digest(CASES[case](engine)) == golden()[case]


CHUNK_CASES = [
    "sweep/risc1/towers",
    "sweep/cisc/towers",
    "sweep/risc1/call_overhead",
    "sweep/cisc/call_overhead",
    "risc_smc",
    "vax_smc",
    "risc_fallback",
    "risc_interrupt_latched",
    "risc_interrupt_hooked",
    "risc_windows2",
    "risc_resumed",
    "vax_resumed",
    "risc_events_windows3",
    "vax_events",
]


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CHUNK_CASES)
def test_chunk_size_is_invisible(case, engine, chunk, monkeypatch):
    """Draining the retire buffer after every record, or every 7, gives
    the numbers of the default chunk."""
    from repro.uarch import sink

    monkeypatch.setattr(sink, "CHUNK", chunk)
    assert digest(CASES[case](engine)) == golden()[case]


def test_golden_covers_every_case():
    assert sorted(golden()) == sorted(CASES)


if __name__ == "__main__":
    print(json.dumps(generate(), indent=1, sort_keys=True))
