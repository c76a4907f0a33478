"""The block tier's seams: every way a block ends must match ``step()``.

``repro.core.engine`` runs hot straight-line code as generated block
functions over its per-word closures.  Each case here runs the fast
engine twice — with :data:`repro.core.blockcache.PROMOTE` patched to 1, so
every head is translated on its first visit, and at its default — and
compares the result, the trap kind and PC, and the full ``snapshot()``
(stats, registers, memory, ``pc``/``npc``/``last_pc``/pending) with the
reference ``step()`` loop.  Measured runs use the block tier too, one
retire record per block run: their cases also compare what the five
pipeline models of ``standard_sweep()`` report, however the run ended.
The last classes rerun existing differential suites with every block
translated.
"""

import functools
import random
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.asm.assembler import assemble
from repro.baselines.vax import engine as vengine
from repro.baselines.vax.assembler import assemble_vax
from repro.baselines.vax.cpu import VaxCPU
from repro.baselines.vax.isa import INSTRUCTIONS
from repro.cc.driver import compile_program
from repro.core import blockcache, engine
from repro.core.api import StepLimitExceeded
from repro.core.cpu import CPU
from repro.core.program import Program, Segment
from repro.fuzz.instructions import random_instruction
from repro.isa.encoding import EncodingError, Instruction, encode
from repro.isa.opcodes import Opcode
from repro.machine.traps import Trap, TrapKind
from repro.uarch import PipelineModel, standard_sweep
from repro.uarch.sink import open_sink
from repro.workloads import ALL_WORKLOADS
from tests import test_engine_diff as diff
from tests import test_retire_stream as retire


@pytest.fixture(params=[1, blockcache.PROMOTE], ids=["promote1", "default"])
def promote(request, monkeypatch):
    """The promotion threshold of the run, on both machines; returns it."""
    monkeypatch.setattr(blockcache, "PROMOTE", request.param)
    return request.param


@pytest.fixture
def tally(monkeypatch):
    """Full block runs, block exits and per-word steps of every fast run,
    summed."""
    seen = {"runs": 0, "exits": 0, "words": 0}
    fold, flush = engine.PredecodedEngine._fold, engine.PredecodedEngine._flush

    def counted_fold(self, block):
        seen["runs"] += block.runs
        seen["exits"] += sum(block.cuts)
        fold(self, block)

    def counted_flush(self, idx):
        seen["words"] += self.counts[idx]
        flush(self, idx)

    monkeypatch.setattr(engine.PredecodedEngine, "_fold", counted_fold)
    monkeypatch.setattr(engine.PredecodedEngine, "_flush", counted_flush)
    return seen


def run(program, engine_name, *, windows=8, max_steps=100_000, interrupt=None,
        uarch=None, models=None):
    """Run to the end; ``(how it ended, snapshot)``.  A run measured with
    ``uarch`` ends a step limit with the limit's pipeline stats; one
    measured by ``models`` adds their stats, finished however it ended."""
    cpu = CPU(num_windows=windows)
    cpu.load(program)
    if interrupt is not None:
        cpu.raise_interrupt(program.symbol(interrupt))
    sink = open_sink(cpu, models) if models is not None else None
    try:
        result = cpu.run(max_steps=max_steps, engine=engine_name, uarch=uarch)
        end = ("halt", result.exit_code, result.output)
    except StepLimitExceeded as exc:
        end = ("limit", exc.pc)
        if exc.pipeline is not None:
            end += (exc.pipeline.to_dict(),)
    except Trap as trap:
        end = ("trap", trap.kind, trap.pc)
    except EncodingError as exc:
        end = ("encoding", str(exc))
    finally:
        if sink is not None:
            sink.close()
    if sink is None:
        return end, cpu.snapshot()
    return end, cpu.snapshot(), [stats.to_dict() for stats in sink.finish()]


def assert_same(program, **kwargs):
    """Fast and reference agree; returns how the run ended."""
    reference = run(program, "reference", **kwargs)
    fast = run(program, "fast", **kwargs)
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    return reference[0]


def assert_measured_same(program, **kwargs):
    """Fast and reference agree, measured by the five models of
    ``standard_sweep()`` on one retire stream; returns how the run ended."""
    reference, fast = (
        run(program, name, models=[PipelineModel(config) for config in standard_sweep()],
            **kwargs)
        for name in ("reference", "fast")
    )
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    assert fast[2] == reference[2]
    return reference[0]


#: ``patch`` starts as ``add r6, r6, #1``; each pass bumps its immediate
#: with a store made earlier in the same block
PATCH_LATER_WORD = """
main:
    set r2, patch
    ldl r4, 0(r2)
    add r5, r0, #6
    add r6, r0, #0
loop:
    add r4, r4, #1
    stl r4, 0(r2)
    add r6, r6, #3
patch:
    add r6, r6, #1
    sub! r5, r5, #1
    jne loop
    nop
    halt r6
"""

#: the same, with the patched word in the loop's delay slot
PATCH_DELAY_SLOT = """
main:
    set r2, slot
    ldl r4, 0(r2)
    add r5, r0, #6
    add r6, r0, #0
loop:
    add r4, r4, #1
    stl r4, 0(r2)
    sub! r5, r5, #1
    jne loop
slot:
    add r6, r6, #1
    halt r6
"""

#: a loop of the longest block, whose delay slot is patched between passes
LONGEST_BLOCK = """
main:
    set r2, slot
    ldl r4, 0(r2)
    add r7, r0, #2
outer:
    add r5, r0, #3
loop:
    sub! r5, r5, #1
{adds}
    jne loop
slot:
    add r6, r6, #1
    add r4, r4, #1
    stl r4, 0(r2)
    sub! r7, r7, #1
    jne outer
    nop
    halt r6
"""

#: a putchar store in every pass's delay slot, the halt in the last one
MMIO_IN_DELAY_SLOTS = """
main:
    set r7, #0x7F000000
    set r8, #0x7F00000C
    add r5, r0, #6
    add r6, r0, #65
loop:
    add r6, r6, #1
    sub! r5, r5, #1
    jne loop
    stl r6, 0(r7)
    add r6, r6, #1
    jmp end
    stl r6, 0(r8)
end:
    halt r0
"""

#: putchar stores in the delay slots of a CALL and its RET: the block
#: exits in the slot with the window change still pending
MMIO_IN_CALL_SLOTS = """
main:
    set r7, #0x7F000000
    add r5, r0, #5
    add r6, r0, #65
loop:
    add r6, r6, #1
    call sub
    stl r6, 0(r7)
    sub! r5, r5, #1
    jne loop
    nop
    halt r6
sub:
    add r6, r6, #1
    ret
    stl r6, 0(r7)
"""

#: a load through each pointer of ``table`` in turn; the last one faults
BAD_POINTER = """
main:
    set r2, table
    add r6, r0, #0
loop:
    ldl r3, 0(r2)
    add r2, r2, #4
    ldl r4, 0(r3)
    add r6, r6, r4
    jmp loop
    nop
.data
table: .word cell, cell, cell, cell, BAD
cell: .word 7
"""

#: a counted loop of one block with two loads and a store
COUNTED_LOOP = """
main:
    set r2, cells
    add r5, r0, #40
    add r6, r0, #0
loop:
    ldl r3, 0(r2)
    add r6, r6, r3
    ldl r3, 4(r2)
    add r3, r3, r6
    stl r3, 4(r2)
    sub! r5, r5, #1
    jne loop
    add r6, r6, #1
    halt r6
.data
cells: .word 3, 5
"""

#: JMPR in a JMPR delay slot: one instruction at ``a``, then on to ``b``
JUMP_IN_DELAY_SLOT = """
main:
    add r5, r0, #5
    add r6, r0, #0
loop:
    add r6, r6, #1
    jmp a
    jmp b
    add r6, r6, #100
a:
    add r6, r6, #10
    add r6, r6, #1000
b:
    sub! r5, r5, #1
    jne loop
    nop
    halt r6
"""

#: GTLPC after a full block run (``r7``) and after a block that ends
#: before it (``r8``): each reads the PC of the block's last instruction
GTLPC_AFTER_BLOCKS = """
main:
    add r5, r0, #4
    add r6, r0, #0
loop:
    add r6, r6, #1
    sub! r5, r5, #1
    jne loop
    nop
    gtlpc r7
    jmp next
    nop
next:
    add r6, r6, #2
    add r6, r6, #3
    gtlpc r8
    add r6, r6, r7
    add r6, r6, r8
    halt r6
"""

#: ``patch`` starts as ``add r6, r6, #1``: the loop's block runs three
#: passes, the code after the loop stores ``newinst`` (an ``ldl``) over
#: that word, and the same block, at the same head and length, runs three
#: passes more
PATCH_BETWEEN_PASSES = """
main:
    set r2, patch
    set r3, newinst
    ldl r4, 0(r3)
    add r7, r0, #2
outer:
    add r5, r0, #3
    jmp loop
    nop
loop:
    add r8, r6, #2
patch:
    add r6, r6, #1
    add r9, r8, r6
    sub! r5, r5, #1
    jne loop
    nop
    stl r4, 0(r2)
    sub! r7, r7, #1
    jne outer
    nop
    halt r6
.data
newinst: .word LDL
cell: .word 9
"""

#: recursion deep enough to overflow and underflow any small window file
RECURSION = """
main:
    add r10, r0, #9
    call sum
    nop
    halt r10
sum:
    sub! r0, r26, #0
    jeq base
    nop
    sub r10, r26, #1
    call sum
    nop
    ret
    add r26, r10, r26
base:
    ret
    add r26, r0, #0
"""


class TestBlockExits:
    def test_store_into_a_later_word_of_the_block(self, promote, tally):
        end = assert_same(assemble(PATCH_LATER_WORD))
        # 6 passes of 3, plus the patched immediates 2..7
        assert end == ("halt", 6 * 3 + sum(range(2, 8)), "")
        if promote == 1:
            assert tally["exits"]

    def test_store_into_the_delay_slot(self, promote, tally):
        end = assert_same(assemble(PATCH_DELAY_SLOT))
        # the slot runs once per pass, each time with its new immediate
        assert end == ("halt", sum(range(2, 8)), "")
        if promote == 1:
            assert tally["exits"]

    def test_store_into_the_slot_of_the_longest_block(self, promote, tally):
        # ``loop`` is MAX_BLOCK - 1 straight instructions, its jump and the
        # slot; code after the loop patches the slot, then reruns the loop
        program = assemble(LONGEST_BLOCK.format(adds="\n".join(
            ["    add r6, r6, #2"] * (blockcache.MAX_BLOCK - 2))))
        assert assert_same(program)[0] == "halt"
        if promote == 1:
            assert tally["exits"]

    def test_mmio_stores_in_delay_slots(self, promote, tally):
        end = assert_same(assemble(MMIO_IN_DELAY_SLOTS))
        assert end == ("halt", 72, "BCDEFG")
        if promote == 1:
            assert tally["exits"]

    def test_mmio_stores_in_call_and_return_slots(self, promote, tally):
        end = assert_same(assemble(MMIO_IN_CALL_SLOTS), windows=2)
        assert end == ("halt", 75, "BCDEFGHIJK")
        if promote == 1:
            assert tally["exits"]

    @pytest.mark.parametrize(
        "bad, kind",
        [
            ("cell + 2", TrapKind.ALIGNMENT),
            ("0x100000", TrapKind.BUS_ERROR),
            ("0x7F000000", TrapKind.BUS_ERROR),
        ],
    )
    def test_faulting_load_mid_block(self, promote, tally, bad, kind):
        program = assemble(BAD_POINTER.replace("BAD", bad))
        end = assert_same(program)
        assert end[:2] == ("trap", kind)
        assert end[2] == program.symbol("loop") + 8
        if promote == 1:
            assert tally["runs"] and tally["exits"]

    def test_budget_ends_inside_a_block(self, promote, tally):
        program = assemble(COUNTED_LOOP)
        for budget in range(1, 120):
            assert assert_same(program, max_steps=budget)[0] == "limit"
        if promote == 1:
            assert tally["runs"]

    def test_budget_bound_run_stays_on_the_block_tier(self, monkeypatch, tally):
        monkeypatch.setattr(blockcache, "PROMOTE", 1)
        program = assemble(COUNTED_LOOP)
        assert assert_same(program, max_steps=250)[0] == "limit"
        # the per-word tier runs only the budget's last few steps
        assert tally["words"] <= 16

    @pytest.mark.parametrize("windows", [2, 3, 8])
    def test_calls_that_overflow_and_returns_that_underflow(self, promote, tally, windows):
        assert assert_same(assemble(RECURSION), windows=windows) == ("halt", 45, "")
        if promote == 1:
            assert tally["runs"]

    @pytest.mark.parametrize("windows", [2, 8])
    def test_spill_over_the_running_block(self, promote, tally, windows):
        # the code sits at the top of memory, where the register-save stack
        # starts: the first overflow spills over the block of its CALL
        program = assemble(RECURSION)
        code = program.segments[0]
        base = CPU().memory.size - len(code.data)
        moved = replace(program, segments=(replace(code, base=base),),
                        entry=program.entry - code.base + base)
        assert assert_same(moved, windows=windows)[0] == "encoding"
        if promote == 1:
            assert tally["runs"]

    def test_compiled_recursion_at_two_windows(self, promote):
        program = compile_program(
            ALL_WORKLOADS["ackermann"].source(M=2, N=3), target="risc1"
        ).program
        assert assert_same(program, windows=2)[0] == "halt"

    def test_jump_in_a_delay_slot(self, promote):
        assert assert_same(assemble(JUMP_IN_DELAY_SLOT)) == ("halt", 5 * 11, "")

    @pytest.mark.parametrize(
        "slot, end",
        [("jmp main", ("halt", 0, "")), ("callr sub", ("trap", TrapKind.ILLEGAL_INSTRUCTION))],
    )
    def test_transfer_in_a_call_delay_slot(self, promote, slot, end):
        program = assemble(
            f"""
            main:
                add r6, r0, #1
                add r6, r6, #1
                callr sub
                {slot}
                halt r0
            sub:
                ret
                nop
            """
        )
        assert assert_same(program)[: len(end)] == end

    def test_return_from_the_outermost_frame_in_a_block(self, promote):
        program = assemble("main:\n add r6, r0, #1\n ret\n add r6, r6, #1\n")
        assert assert_same(program)[:2] == ("trap", TrapKind.WINDOW_UNDERFLOW)

    def test_prelatched_interrupt(self, promote, tally):
        end = assert_same(assemble(diff.INTERRUPT_PROGRAM), interrupt="handler")
        assert end == ("halt", 100, "100\x001")
        if promote == 1:
            assert tally["runs"]

    def test_gtlpc_after_a_block(self, promote, tally):
        program = assemble(GTLPC_AFTER_BLOCKS)
        end = assert_same(program)
        r7, r8 = program.symbol("loop") + 12, program.symbol("next") + 4
        assert end == ("halt", 4 + 5 + r7 + r8, "")
        if promote == 1:
            assert tally["runs"]


class TestMeasuredBlocks:
    """Measured runs on the block tier: each block run or exit's prefix
    is one retire record, and the stream replays as the reference's."""

    def test_patch_under_a_cached_block_changes_its_descriptor(self, promote, tally):
        # the block's record is the same number before and after the patch
        ldl = encode(Instruction.short(Opcode.LDL, dest=6, rs1=3, s2=4, imm=True))
        end = assert_measured_same(assemble(PATCH_BETWEEN_PASSES.replace("LDL", str(ldl))))
        assert end == ("halt", 9, "")
        if promote == 1:
            assert tally["runs"] >= 6

    @pytest.mark.parametrize("windows", [2, 8])
    def test_calls_that_overflow_and_returns_that_underflow(self, promote, tally, windows):
        # the window marker of a CALL or RET in a block's slot follows the
        # block's record
        end = assert_measured_same(assemble(RECURSION), windows=windows)
        assert end == ("halt", 45, "")
        if promote == 1:
            assert tally["runs"]

    def test_faulting_load_mid_block(self, promote, tally):
        program = assemble(BAD_POINTER.replace("BAD", "cell + 2"))
        end = assert_measured_same(program)
        assert end == ("trap", TrapKind.ALIGNMENT, program.symbol("loop") + 8)
        if promote == 1:
            assert tally["runs"] and tally["exits"]

    def test_budget_ends_inside_a_block(self, promote, tally):
        program = assemble(COUNTED_LOOP)
        for budget in range(1, 120):
            end = assert_same(program, max_steps=budget, uarch=True)
            assert end[0] == "limit" and end[2]["instructions"] == budget
        if promote == 1:
            assert tally["runs"]

    def test_measured_suite_runs_on_blocks(self, tally):
        # at the default threshold: a silent fall-back to the per-word
        # tier would still replay the golden numbers, but run no block
        for name in retire.WORKLOADS:
            case = f"sweep/risc1/{name}"
            assert retire.digest(retire.CASES[case]("fast")) == retire.golden()[case]
        assert tally["runs"]


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize(
    "case", [case for case in retire.CHUNK_CASES if not case.startswith(("sweep/cisc", "vax"))]
)
def test_chunk_size_is_invisible_every_block(case, chunk, monkeypatch):
    monkeypatch.setattr(blockcache, "PROMOTE", 1)
    retire.test_chunk_size_is_invisible(case, "fast", chunk, monkeypatch)


# -- a seeded soup of random instruction sequences ------------------------------

#: what a soup draws from: every opcode but the interrupt pair
_SOUP_OPCODES = sorted(
    set(Opcode) - {Opcode.CALLINT, Opcode.RETINT}, key=lambda op: op.value
)


def soup(seed: int) -> tuple[Program, int]:
    """A loop over 24 random instructions; memory operands point into the
    loop itself (so stores patch code) or a data area, jumps and calls
    stay close, returns use ``r31``.  Returns the program and its window
    count."""
    rng = random.Random(seed)
    words = []
    for _ in range(24):
        op = rng.choice(_SOUP_OPCODES)
        inst = random_instruction(rng, op)
        if op in CPU._LOAD_SPEC or op in CPU._STORE_SPEC:
            offset = rng.choice((rng.randrange(-8, 24) * 4, rng.randrange(-32, 96)))
            inst = replace(inst, rs1=rng.choice((2, 3)), s2=offset, imm=True)
        elif op in (Opcode.JMPR, Opcode.CALLR):
            inst = replace(inst, y=rng.randrange(-6, 8) * 4)
        elif op in (Opcode.JMP, Opcode.CALL):
            inst = replace(inst, rs1=2, s2=rng.randrange(0, 24) * 4, imm=True)
        elif op is Opcode.RET:
            inst = replace(inst, rs1=31, s2=8, imm=True)
        words.append(encode(inst))
    data = [rng.randrange(1 << 32) for _ in range(32)]
    source = "\n".join(
        ["main:", "    set r2, body", "    set r3, data", "body:"]
        + ["    nop"] * len(words)
        + ["    jmp main", "    nop", ".data", "data:"]
        + [f"    .word {word:#x}" for word in data]
    )
    program = assemble(source)
    code, *rest = program.segments
    at = program.symbol("body") - code.base
    body = b"".join(word.to_bytes(4, "big") for word in words)
    image = code.data[:at] + body + code.data[at + len(body) :]
    return replace(program, segments=(replace(code, data=image), *rest)), rng.choice((2, 8))


class TestSoup:
    def test_random_instruction_soups(self, promote, tally):
        ends = set()
        for seed in range(300):
            program, windows = soup(seed)
            latched = "body" if seed % 5 == 0 else None
            ends.add(assert_same(program, windows=windows, max_steps=1500,
                                 interrupt=latched)[0])
        assert {"limit", "trap"} <= ends
        if promote == 1:
            assert tally["runs"] and tally["exits"]


# -- the process-wide cache ------------------------------------------------------


def test_patched_program_never_runs_a_stale_block(monkeypatch):
    monkeypatch.setattr(blockcache, "PROMOTE", 1)
    program = assemble(COUNTED_LOOP)
    first = assert_same(program)
    # the loop's `add r6, r6, r3` becomes `add r6, r6, #9`, same address
    code = program.segments[0]
    at = program.symbol("loop") + 4 - code.base
    word = encode(Instruction.short(Opcode.ADD, 6, 6, 9, True)).to_bytes(4, "big")
    patched = Program(
        (Segment(code.base, code.data[:at] + word + code.data[at + 4 :], code.name),
         *program.segments[1:]),
        program.entry,
        program.symbols,
    )
    cached = len(blockcache._CACHE)
    second = assert_same(patched)
    assert second != first
    assert len(blockcache._CACHE) > cached  # the patched block was translated anew
    assert assert_same(program) == first


def _towers(target):
    return compile_program(ALL_WORKLOADS["towers"].source(), target=target).program


#: each machine: a differential check, a program
MACHINES = {
    "risc1": (assert_same, lambda: _towers("risc1")),
    "cisc": (diff.assert_vax_identical, lambda: _towers("cisc")),
}


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_cache_is_bounded(machine, monkeypatch):
    check, program = MACHINES[machine]
    monkeypatch.setattr(blockcache, "PROMOTE", 1)
    monkeypatch.setattr(blockcache, "CACHE_SIZE", 4)
    monkeypatch.setattr(blockcache, "_CACHE", type(blockcache._CACHE)())
    check(program())
    assert len(blockcache._CACHE) == 4
    assert {key[0] for key in blockcache._CACHE} == {machine}


class _YieldingCache(OrderedDict):
    """A block cache that gives up the GIL after each lookup."""

    def get(self, key, default=None):
        entry = super().get(key, default)
        time.sleep(1e-4)
        return entry


def _yielding_exec(code, *namespaces):
    """``exec`` that gives up the GIL once the code has run."""
    exec(code, *namespaces)
    time.sleep(1e-4)


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_engines_in_threads_share_the_cache(machine, monkeypatch):
    """Engines in several threads translate, look up and evict at once;
    each thread yields between a lookup or a definition and what follows."""
    monkeypatch.setattr(blockcache, "PROMOTE", 1)
    monkeypatch.setattr(blockcache, "CACHE_SIZE", 8)  # evictions race with lookups
    monkeypatch.setattr(blockcache, "_CACHE", _YieldingCache())
    monkeypatch.setattr(blockcache, "exec", _yielding_exec, raising=False)
    engine._alu_factory.cache_clear()
    vengine._factory.cache_clear()
    if machine == "risc1":
        runner = functools.partial(run, max_steps=20_000)
        programs = [soup(seed)[0] for seed in range(4)]
    else:
        runner = functools.partial(diff.run_vax, max_steps=20_000)
        programs = [vax_soup(seed) for seed in range(4)]
    programs += [
        compile_program(ALL_WORKLOADS[name].source(), target=machine).program
        for name in ("towers", "qsort")
    ]
    expected = [runner(program, "reference") for program in programs]

    def runs(order):
        return [(i, runner(programs[i], "fast")) for i in order]

    with ThreadPoolExecutor(4) as pool:
        orders = [random.Random(t).sample(range(len(programs)), len(programs))
                  for t in range(8)]
        results = [result for batch in pool.map(runs, orders) for result in batch]
    for i, result in results:
        assert result == expected[i]


def test_condition_table_matches_the_reference():
    from repro.isa.conditions import CC_TABLE, Cond, cond_holds

    for cond in Cond:
        for index, cc in enumerate(CC_TABLE):
            assert engine._cond_test(cond)(cc) == cond_holds(cond, cc)
            assert engine._HOLDS[cond][index] == cond_holds(cond, cc)


# -- existing differential suites, every block translated -------------------------


class _EveryBlock:
    @pytest.fixture(autouse=True)
    def _promote_every_head(self, monkeypatch):
        monkeypatch.setattr(blockcache, "PROMOTE", 1)


class TestWorkloadParityEveryBlock(_EveryBlock, diff.TestWorkloadParity):
    pass


class TestSelfModifyingCodeEveryBlock(_EveryBlock, diff.TestSelfModifyingCode):
    pass


class TestSnapshotRestoreEveryBlock(_EveryBlock, diff.TestSnapshotRestore):
    pass


@pytest.mark.parametrize("case", sorted(case for case in retire.CASES if "risc" in case))
def test_retire_stream_every_block(case, monkeypatch):
    monkeypatch.setattr(blockcache, "PROMOTE", 1)
    retire.test_matches_golden(case, "fast")


# -- the VAX block tier --------------------------------------------------------------


@pytest.fixture
def vax_tally(monkeypatch):
    """Full VAX block runs and block exits of every fast run, summed."""
    seen = {"runs": 0, "exits": 0}
    fold = vengine.VaxEngine._fold

    def counted_fold(self, block):
        seen["runs"] += block.runs
        seen["exits"] += sum(block.cuts)
        fold(self, block)

    monkeypatch.setattr(vengine.VaxEngine, "_fold", counted_fold)
    return seen


def assert_vax_same(source, **kwargs):
    """Fast and reference agree on the assembled ``source``; returns how
    the reference run ended and the program."""
    program = assemble_vax(source)
    return diff.assert_vax_identical(program, **kwargs)["outcome"], program


#: a load through each pointer of ``table`` in turn, then a store through
#: it; the last pointer is ``BAD``
VAX_BAD_POINTER = """
__start:
    moval @#table, r2
    clrl r6
loop:
    movl (r2), r3
    addl2 #4, r2
read: addl2 ADDEND, r6
write: movl r6, (r3)
    incl r6
    brb loop
.data
table: .long cell, cell, cell, cell, BAD
cell: .long 7
"""

#: ``divl3`` by a divisor that counts down to zero, mid-block
VAX_DIVIDE_BY_ZERO = """
__start:
    movl #5, r5
    movl #1000, r6
loop:
    addl2 #1, r1
fault: divl3 r5, r6, r2
    addl2 r2, r3
    decl r5
    brb loop
"""

#: each pass rewrites the literal of ``patch``, a later instruction of the
#: same block, before it runs
VAX_PATCH_LATER = """
__start:
    movl #6, r5
    clrl r6
    moval @#patch, r2
loop:
    movb r5, 1(r2)
    addl2 #3, r6
patch: addl2 #1, r6
    decl r5
    bneq loop
    movl r6, r0
    halt
"""

#: a counted loop of one block with two loads and a store
VAX_COUNTED_LOOP = """
__start:
    moval @#cells, r2
    movl #40, r5
    clrl r6
loop:
    addl2 (r2), r6
    addl3 r6, 4(r2), r3
    movl r3, 4(r2)
    decl r5
    bneq loop
    movl r6, r0
    halt
.data
cells: .long 3, 5
"""


class TestVaxBlockExits:
    @pytest.mark.parametrize("bad", ["0x200000", "0x7F000010"])
    @pytest.mark.parametrize("at", ["read", "write"])
    def test_bus_error_mid_block(self, promote, vax_tally, at, bad):
        # the read faults through (r3); the write, with a safe read, too
        addend = "(r3)" if at == "read" else "#1"
        end, program = assert_vax_same(
            VAX_BAD_POINTER.replace("ADDEND", addend).replace("BAD", bad)
        )
        assert (end[0], end[1], end[3]) == ("trap", TrapKind.BUS_ERROR, program.symbol(at))
        if promote == 1:
            assert vax_tally["runs"] and vax_tally["exits"]

    def test_mmio_store_mid_block(self, promote, vax_tally):
        # every pointer is the console: each pass prints, the last traps
        source = VAX_BAD_POINTER.replace("ADDEND", "#65").replace("cell, ", "0x7F000000, ")
        end, program = assert_vax_same(source.replace("BAD", "0x200000"))
        assert end[:2] == ("trap", TrapKind.BUS_ERROR)
        # r6 is 65, 131, 197 and 263 at the four stores
        assert diff.run_vax(program, "reference")["console"] == "A\x83\xc5\x07"
        if promote == 1:
            assert vax_tally["exits"] >= 4

    def test_divide_by_zero_mid_block(self, promote, vax_tally):
        end, program = assert_vax_same(VAX_DIVIDE_BY_ZERO)
        assert (end[0], end[1], end[3]) == (
            "trap", TrapKind.ILLEGAL_INSTRUCTION, program.symbol("fault"))
        if promote == 1:
            assert vax_tally["runs"] and vax_tally["exits"]

    def test_store_into_a_later_instruction_of_the_block(self, promote, vax_tally):
        end, _program = assert_vax_same(VAX_PATCH_LATER)
        # 6 passes of 3, plus the patched literals 6..1
        assert end[0] == "halt" and end[1]["exit_code"] == 6 * 3 + sum(range(1, 7))
        if promote == 1:
            assert vax_tally["exits"]

    def test_budget_ends_inside_a_block(self, promote, vax_tally):
        program = assemble_vax(VAX_COUNTED_LOOP)
        for budget in range(1, 130):
            reference = diff.assert_vax_identical(program, max_steps=budget)
            assert reference["outcome"][0] == "limit"
        if promote == 1:
            assert vax_tally["runs"]

    @pytest.mark.parametrize("chunk", [1, 7, 97])
    @pytest.mark.parametrize("name", ["VAX_COUNTED_LOOP", "towers"])
    def test_run_split_over_many_calls(self, promote, vax_tally, chunk, name):
        """Blocks kept across ``run()`` calls change nothing."""
        if name == "towers":
            program = diff.workload_program("towers", "cisc")
        else:
            program = assemble_vax(VAX_COUNTED_LOOP)
        reference = diff.run_vax(program, "reference")
        cpu = VaxCPU()
        cpu.load(program)
        while True:
            try:
                result = cpu.run(max_steps=chunk, engine="fast")
                break
            except StepLimitExceeded:
                pass
        assert result.to_dict() == reference["outcome"][1]
        assert list(cpu.regs) == reference["regs"]
        assert (cpu.n, cpu.z, cpu.v, cpu.c) == reference["flags"]
        if promote == 1 and chunk > 7:
            assert vax_tally["runs"]


@pytest.mark.parametrize("m", sorted(set(vengine.SEMANTICS) - {"moval"}))
def test_vax_flag_rules_at_their_edges(m, monkeypatch):
    """Each table mnemonic over every pair of edge values, as the last
    instruction of a block: the flags it leaves, its result and stats
    match the reference, in a block and on the per-instruction tier."""
    operands = INSTRUCTIONS[m].operands
    reads = sum(spec.access in "rm" for spec in operands)
    names = iter(("r1", "r2") if operands[-1].access == "m" else ("r1", "r2", "r3"))
    instruction = f"{m} {', '.join(next(names) for _ in operands)}"
    for a in _EDGES:
        for b in _EDGES if reads > 1 else (0,):
            program = assemble_vax(
                f"__start:\n movl #{a}, r1\n movl #{b}, r2\n {instruction}\n halt\n")
            reference = diff.run_vax(program, "reference")
            for threshold in (1, blockcache.PROMOTE):
                monkeypatch.setattr(blockcache, "PROMOTE", threshold)
                assert diff.run_vax(program, "fast") == reference, (a, b)


def test_vax_semantics_cover_every_straight_line_mnemonic():
    hand_written = {"halt", "calls", "ret", "jmp", "pushl"}
    straight = {m for m, info in INSTRUCTIONS.items() if info.kind != "branch"}
    assert set(vengine.SEMANTICS) == straight - hand_written
    assert set(vengine.BRANCHES) == {m for m, info in INSTRUCTIONS.items()
                                     if info.kind == "branch"} - {"jmp"}


# -- a seeded soup of random VAX sequences -----------------------------------------

#: the soup's straight-line mnemonics; it places branches, CALLS and RET
_VAX_OPS = sorted(m for m, info in INSTRUCTIONS.items()
                  if info.kind not in ("branch", "calls", "ret", "control"))
_VAX_BRANCHES = sorted(m for m, info in INSTRUCTIONS.items()
                       if info.kind == "branch" and m != "jmp")
#: addl2, subl2, bisl2, xorl2, andl2: the same operands, so a store of one
#: opcode over another leaves the code decodable
_PATCH_OPCODES = (0xC0, 0xC2, 0xC8, 0xCC, 0xE0)
_VAX_MODES = ("register", "deferred", "disp", "frame", "absolute", "autoinc", "autodec",
              "literal", "immediate")
#: the values at which carries, borrows, overflows and signs turn
_EDGES = (0, 1, 2, 0x7FFFFFFE, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF)


def _vax_value(rng, bits: int = 32) -> int:
    """A random value of ``bits``, an edge value half the time."""
    return (rng.choice(_EDGES) if rng.random() < 0.5 else rng.randrange(1 << 32)) % (1 << bits)
#: the soup's pointers, set at the top of every pass: r7 walks the data
#: by autoincrement and autodecrement, r8 is the console, r9 a patchable
#: instruction, r10 the data; r11 counts the passes
_VAX_SOUP_TOP = """
    moval @#data, r10
    moval @#data+160, r7
    movl #0x7F000000, r8
    moval @#{patch}, r9
"""


def _vax_operand(rng, access: str, width: int, used: set, m: str) -> str:
    modes = list(_VAX_MODES)
    if access != "r":
        modes.remove("literal")
        modes.remove("immediate")
    if access == "a":
        modes.remove("register")
    mode = rng.choice(modes)
    used.add((m, mode))
    if mode == "literal":
        return f"#{rng.randrange(64)}"
    if mode == "immediate":
        return f"#{max(_vax_value(rng, 8 * width), 64)}"
    if mode == "register":
        # mostly the free registers; now and then a pointer of the soup
        if rng.random() < 0.95:
            return f"r{rng.randrange(7)}"
        return f"r{rng.choice((7, 10))}"
    if mode == "deferred":
        return "(r10)"
    if mode == "disp":
        return f"{rng.randrange(256)}(r10)"
    if mode == "frame":
        return f"-{rng.randrange(1, 32) * 4}(fp)"
    if mode == "absolute":
        return f"@#data+{rng.randrange(256)}"
    return "(r7)+" if mode == "autoinc" else "-(r7)"


def _vax_instruction(rng, m: str, used: set) -> str:
    operands = [_vax_operand(rng, spec.access, spec.width, used, m)
                for spec in INSTRUCTIONS[m].operands]
    if any(op == "(r7)+" or op == "-(r7)" for op in operands) and rng.random() < 0.4:
        # an autoincrement on a register the same instruction reads
        operands[rng.randrange(len(operands))] = "r7"
    return f"{m} {', '.join(operands)}"


def vax_soup_source(seed: int) -> tuple[str, set]:
    """A loop over random VAX statements, and the (mnemonic, mode) pairs
    it used.  Statements: any straight-line mnemonic over any addressing
    mode; forward branches and ``jmp``; argument pushes and a CALLS of a
    procedure that saves a random register mask; patchable ``addl2``
    instructions and byte stores over them (opcode or literal, absolute
    or through ``r9``, before or after they run); console stores (absolute
    or through ``r8``), a store to an unknown MMIO address now and then,
    and a divide by a zero literal."""
    rng = random.Random(seed)
    size = rng.randrange(16, 40)
    patches = sorted(rng.sample(range(size), 3))
    used: set = set()
    body = []
    for i in range(size):
        if i in patches:
            body.append(f"addl2 #{rng.randrange(64)}, r{rng.randrange(7)}")
            continue
        kind = rng.choices(
            ("op", "branch", "jmp", "calls", "patch", "console", "mmio", "divide"),
            (24, 4, 1, 2, 3, 2, 0.05, 0.05),
        )[0]
        target = f"l{rng.randrange(i + 1, size + 1)}"
        if kind == "op":
            body.append(_vax_instruction(rng, rng.choice(_VAX_OPS), used))
        elif kind == "branch":
            body.append(f"{rng.choice(_VAX_BRANCHES)} {target}")
        elif kind == "jmp":
            body.append(f"jmp @#{target}")
        elif kind == "calls":
            count = rng.randrange(3)
            pushes = [f"pushl {_vax_operand(rng, 'r', 4, used, 'pushl')}" for _ in range(count)]
            body.append("\n    ".join(pushes + [f"calls #{count}, @#proc"]))
        elif kind == "patch":
            patch = f"p{rng.choice(patches)}"
            body.append(rng.choice((
                f"movb #{rng.choice(_PATCH_OPCODES)}, @#{patch}",
                f"movb #{rng.randrange(64)}, @#{patch}+1",
                f"movb #{rng.randrange(64)}, 1(r9)",
            )))
        elif kind == "console":
            body.append(rng.choice((f"movl r{rng.randrange(7)}, @#0x7F000004",
                                    f"movb r{rng.randrange(7)}, (r8)")))
        elif kind == "mmio":
            body.append(f"movl r{rng.randrange(7)}, @#0x7F000010")
        else:
            body.append(f"divl3 #0, r{rng.randrange(7)}, r{rng.randrange(7)}")
    proc = [_vax_instruction(rng, rng.choice(_VAX_OPS), used) for _ in range(rng.randrange(1, 6))]
    lines = ["__start:", f"    movl #{rng.randrange(2, 130)}, r11"]
    lines += [f"    movl #{_vax_value(rng)}, r{reg}" for reg in range(7)]
    lines += ["top:", _VAX_SOUP_TOP.format(patch=f"p{patches[0]}")]
    for i, statement in enumerate(body):
        label = f"p{i}: " if i in patches else ""
        lines.append(f"l{i}: {label}{statement}")
    # each pass ends by pushing a word for each of C, Z and N that is clear
    # (PUSHL sets no flag), so every pass's flags reach the memory image
    lines += [f"l{size}:", "    blssu c1", "    pushl #1", "c1: beql c2", "    pushl #2",
              "c2: blss c3", "    pushl #3", "c3: decl r11", "    bneq top",
              "    movl r0, @#0x7F000004", "    halt", "proc:",
              f"    .word {rng.randrange(1 << 12) & 0xFFC:#x}"]
    lines += [f"    {statement}" for statement in proc] + ["    ret", ".data", "data:"]
    lines += [f"    .long {_vax_value(rng):#x}" for _ in range(80)]
    return "\n".join(lines) + "\n", used


def vax_soup(seed: int) -> Program:
    return assemble_vax(vax_soup_source(seed)[0])


class TestVaxSoup:
    """Each soup on the reference loop and on the fast engine, with every
    head translated at once and at the default threshold: stats,
    registers, flags, the memory image, console and how the run ended
    (trap kind and PC included) must agree."""

    SEEDS = range(150)

    def test_random_sequences(self, monkeypatch, vax_tally):
        ends, used = set(), set()
        for seed in self.SEEDS:
            source, pairs = vax_soup_source(seed)
            used |= pairs
            program = assemble_vax(source)
            reference = diff.run_vax(program, "reference", max_steps=4000)
            for threshold in (1, blockcache.PROMOTE):
                monkeypatch.setattr(blockcache, "PROMOTE", threshold)
                assert diff.run_vax(program, "fast", max_steps=4000) == reference, seed
            ends.add(reference["outcome"][0] if reference["outcome"][0] != "trap"
                     else reference["outcome"][1])
        assert {"halt", "limit", TrapKind.BUS_ERROR, TrapKind.ILLEGAL_INSTRUCTION} <= ends
        assert vax_tally["runs"] and vax_tally["exits"]
        # every mnemonic the soup draws, over every mode its access allows
        expected = {
            (m, mode)
            for m in _VAX_OPS
            for spec in INSTRUCTIONS[m].operands
            for mode in _VAX_MODES
            if (spec.access == "r" or mode not in ("literal", "immediate"))
            and (spec.access != "a" or mode != "register")
        }
        assert expected <= used


# -- existing VAX differential suites, every block translated ----------------------


class _EveryVaxBlock:
    @pytest.fixture(autouse=True)
    def _promote_every_head(self, monkeypatch):
        monkeypatch.setattr(blockcache, "PROMOTE", 1)


class TestVaxInstructionParityEveryBlock(_EveryVaxBlock, diff.TestVaxInstructionParity):
    pass


class TestVaxTrapParityEveryBlock(_EveryVaxBlock, diff.TestVaxTrapParity):
    pass


class TestVaxSelfModifyingCodeEveryBlock(_EveryVaxBlock, diff.TestVaxSelfModifyingCode):
    pass


class TestVaxHookSeesLiveStatsEveryBlock(_EveryVaxBlock, diff.TestVaxHookSeesLiveStats):
    pass


class TestStepLimitParityEveryBlock(_EveryVaxBlock, diff.TestStepLimitParity):
    pass
