"""The block tier's seams: every way a block ends must match ``step()``.

``repro.core.engine`` runs hot straight-line code as generated block
functions over its per-word closures.  Each case here runs the fast
engine twice — with :data:`repro.core.engine.PROMOTE` patched to 1, so
every head is translated on its first visit, and at its default — and
compares the result, the trap kind and PC, and the full ``snapshot()``
(stats, registers, memory, ``pc``/``npc``/``last_pc``/pending) with the
reference ``step()`` loop.  Measured runs use the block tier too, one
retire record per block run: their cases also compare what the five
pipeline models of ``standard_sweep()`` report, however the run ended.
The last classes rerun existing differential suites with every block
translated.
"""

import random
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.asm.assembler import assemble
from repro.cc.driver import compile_program
from repro.core import engine
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


@pytest.fixture(params=[1, engine.PROMOTE], ids=["promote1", "default"])
def promote(request, monkeypatch):
    """The promotion threshold of the run; returns it."""
    monkeypatch.setattr(engine, "PROMOTE", request.param)
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
            ["    add r6, r6, #2"] * (engine.MAX_BLOCK - 2))))
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
        monkeypatch.setattr(engine, "PROMOTE", 1)
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
    monkeypatch.setattr(engine, "PROMOTE", 1)
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
    monkeypatch.setattr(engine, "PROMOTE", 1)
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
    cached = len(engine._CACHE)
    second = assert_same(patched)
    assert second != first
    assert len(engine._CACHE) > cached  # the patched block was translated anew
    assert assert_same(program) == first


def test_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(engine, "PROMOTE", 1)
    monkeypatch.setattr(engine, "CACHE_SIZE", 4)
    monkeypatch.setattr(engine, "_CACHE", type(engine._CACHE)())
    assert_same(compile_program(ALL_WORKLOADS["towers"].source(), target="risc1").program)
    assert len(engine._CACHE) == 4


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


def test_engines_in_threads_share_the_cache(monkeypatch):
    """Engines in several threads translate, look up and evict at once;
    each thread yields between a lookup or a definition and what follows."""
    monkeypatch.setattr(engine, "PROMOTE", 1)
    monkeypatch.setattr(engine, "CACHE_SIZE", 8)  # evictions race with lookups
    monkeypatch.setattr(engine, "_CACHE", _YieldingCache())
    monkeypatch.setattr(engine, "exec", _yielding_exec, raising=False)
    engine._alu_factory.cache_clear()
    programs = [soup(seed)[0] for seed in range(4)] + [
        compile_program(ALL_WORKLOADS[name].source(), target="risc1").program
        for name in ("towers", "qsort")
    ]
    expected = [run(program, "reference", max_steps=20_000) for program in programs]

    def runs(order):
        return [(i, run(programs[i], "fast", max_steps=20_000)) for i in order]

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
        monkeypatch.setattr(engine, "PROMOTE", 1)


class TestWorkloadParityEveryBlock(_EveryBlock, diff.TestWorkloadParity):
    test_vax_untraced = test_vax_traced = None  # the VAX engine has no block tier


class TestSelfModifyingCodeEveryBlock(_EveryBlock, diff.TestSelfModifyingCode):
    pass


class TestSnapshotRestoreEveryBlock(_EveryBlock, diff.TestSnapshotRestore):
    test_vax_roundtrip = None


@pytest.mark.parametrize("case", sorted(case for case in retire.CASES if "risc" in case))
def test_retire_stream_every_block(case, monkeypatch):
    monkeypatch.setattr(engine, "PROMOTE", 1)
    retire.test_matches_golden(case, "fast")
