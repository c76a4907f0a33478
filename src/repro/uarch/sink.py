"""The retire sink: a machine's retired-instruction stream, buffered.

A measured run does not call into the pipeline model per instruction.
The engines' loops and the reference ``step()`` loops append compact
records to a bounded ``array`` buffer, and the sink replays it into
every attached :class:`~repro.uarch.pipeline.PipelineModel` once per
:data:`CHUNK` steps.  RISC I records each PC as the instruction starts,
one ``head | done << 32`` record per run of a block of the fast engine
(the ``done`` instructions from ``head`` on, all in one window), and a
negative marker (new CWP, handler cycles) when the window rotates, after
the record of the instruction whose rotation it is; the VAX records each
PC and the data-reference count so far as the instruction starts, so the
next record (or the count when the buffer is drained, always between two
instructions) gives its exact cycles.

Register reads and writes, class, delay-slot kind, static target and
fall-through depend only on an instruction's bytes: they are computed
once per PC — when an engine translates it or installs a block over it,
or by ``step()`` — and kept with those bytes.  A block record expands to
a tuple of rows built once per (record, CWP) and kept in a span cache.
A PC is re-described with new bytes only after the buffer is drained,
and that clears the span cache, so self-modifying code replays exactly.

A run whose only observer is the sink keeps the engines' unobserved
fold rule.  When a model's tracer wants ``PIPE_STALL``, the sink chains
a hook into ``on_execute`` and drains at every retire, so stall events
interleave with the machine's events as a per-step model emits them.
See ``docs/PIPELINE.md`` ("The retire stream").
"""

from __future__ import annotations

from array import array

from repro.baselines.vax.isa import BRANCH_CONDITIONS, SP, decode
from repro.core.cpu import CPU
from repro.core.engine import _window_maps
from repro.isa.conditions import Cond
from repro.isa.opcodes import Category, Opcode, opcode_info
from repro.uarch.pipeline import Retire

__all__ = ["CHUNK", "RiscRetireSink", "VaxRetireSink", "open_sink"]

#: Steps between drains of the buffer.  Each step appends at most a few
#: entries, so the buffer stays a few thousand entries long.
CHUNK = 4096

WORD = 0xFFFFFFFF
#: RISC I records at or above this are block runs: ``head | done << 32``
BLOCK = 1 << 32

#: VAX branches that need a prediction (brb/brw always branch)
_VAX_CONDITIONAL = frozenset(BRANCH_CONDITIONS) - {"brb", "brw"}


class RetireSink:
    """The buffer, the descriptor table and the models of one run."""

    def __init__(self, cpu, models):
        self.cpu = cpu
        self.models = list(models)
        self.chunk = CHUNK
        self.buf = array("q")
        #: pc -> (the instruction bytes, its descriptor)
        self.table: dict = {}
        #: rows built from several descriptors at once (RISC I's blocks),
        #: stale once any PC is re-described
        self.spans: dict = {}
        if cpu._sink is not None:
            raise RuntimeError("a retire sink is already attached to this machine")
        cpu._sink = self
        self._previous = previous = cpu.on_execute
        self._hook = None
        if any(model._trace_stall for model in self.models):

            def hook(pc, *args):
                if previous is not None:
                    previous(pc, *args)
                self.drain()

            cpu.on_execute = self._hook = hook

    def close(self) -> None:
        """Detach from the machine, restoring any chained hook."""
        self.cpu._sink = None
        if self._hook is not None and self.cpu.on_execute is self._hook:
            self.cpu.on_execute = self._previous

    def drain(self) -> None:
        """Replay every buffered record into every model."""
        buf = self.buf
        if buf:
            chunk = self._entries(buf)
            del buf[:]
            for model in self.models:
                model.replay(chunk)

    def finish(self) -> list:
        """Drain, then the finished stats of every model, in order."""
        self.drain()
        return [model.finalize() for model in self.models]

    def describe(self, pc: int, key, *args) -> None:
        """Key ``pc``'s descriptor on its bytes, draining first if they changed."""
        known = self.table.get(pc)
        if known is not None:
            if known[0] == key:
                return
            self.drain()
            self.spans.clear()
        self.table[pc] = (key, self._classify(pc, *args))


class RiscRetireSink(RetireSink):
    """RISC I: PCs as instructions start, window markers as CWP moves."""

    def __init__(self, cpu, models):
        super().__init__(cpu, models)
        self.windows = cpu.regs.num_windows
        self.maps = _window_maps(self.windows)
        self.cwp = cpu.regs.cwp
        self.overflow_cycles = cpu.stats.overflow_cycles
        #: one copy of each physical operand tuple
        self.operands: dict = {}
        #: handler cycles charged since the last replayed instruction
        self.window_cycles = 0

    def retire(self, pc: int, word: int, inst) -> None:
        """The reference step's record: describe, append, drain when full."""
        self.describe(pc, word, inst)
        self.buf.append(pc)
        if len(self.buf) >= self.chunk:
            self.drain()

    def note_window(self) -> None:
        """The window rotated, its overflow/underflow handler (if any) run."""
        stats = self.cpu.stats
        cycles = stats.overflow_cycles - self.overflow_cycles
        self.overflow_cycles = stats.overflow_cycles
        self.buf.append(-1 - (cycles * self.windows + self.cpu.regs.cwp))

    def _classify(self, pc: int, inst) -> list:
        """The window-relative descriptor; physical registers depend on CWP."""
        op = inst.opcode
        info = opcode_info(op)
        operands = (inst.rs1,) if inst.imm else (inst.rs1, inst.s2)
        reads = writes = ()
        target = None
        is_load = op in CPU._LOAD_SPEC
        conditional = is_nop = rotates = False
        if info.category is Category.ARITH or is_load:
            reads, writes = operands, (inst.dest,)
            is_nop = op is Opcode.ADD and not inst.dest and not inst.scc
        elif op in CPU._STORE_SPEC:
            reads = operands + (inst.dest,)
        elif op in (Opcode.JMP, Opcode.JMPR):
            reads = operands if op is Opcode.JMP else ()
            conditional = inst.cond not in (Cond.ALW, Cond.NOP)
            if op is Opcode.JMPR:
                target = (pc + inst.y) & WORD
        elif op in (Opcode.CALL, Opcode.CALLR, Opcode.CALLINT):
            # the return address lands in the window the call rotates into
            reads = operands if op is Opcode.CALL else ()
            writes, rotates = (inst.dest,), True
        elif op in (Opcode.RET, Opcode.RETINT):
            reads = operands
        elif op in (Opcode.LDHI, Opcode.GTLPC, Opcode.GETPSW):
            writes = (inst.dest,)
        elif op is Opcode.PUTPSW:
            reads = (inst.dest,)
        # r0 is never a hazard: reads of it are constant, writes discarded
        reads = tuple(reg for reg in reads if reg)
        writes = tuple(reg for reg in writes if reg)
        fallthrough = (pc + 8) & WORD if conditional else None
        # one Retire per window the instruction runs in, made on first use
        flags = (is_load, info.memory_access, info.delayed, conditional, target,
                 fallthrough, is_nop, 1)
        return [None] * self.windows + [(pc, reads, writes, rotates, flags)]

    def _resolve(self, row: list, cwp: int) -> Retire:
        """The :data:`Retire` of a descriptor row for window ``cwp``."""
        pc, reads, writes, rotates, flags = row[-1]
        maps, shared = self.maps, self.operands.setdefault
        reads = tuple(maps[reg][cwp] for reg in reads)
        writes = tuple(maps[reg][(cwp + rotates) % self.windows] for reg in writes)
        row[cwp] = entry = Retire(pc, shared(reads, reads), shared(writes, writes), *flags)
        return entry

    def _span(self, record: int, cwp: int) -> tuple:
        """The :data:`Retire` rows of a block record run in window ``cwp``."""
        table, resolve = self.table, self._resolve
        head = record & WORD
        rows = [table[pc][1] for pc in range(head, head + 4 * (record >> 32), 4)]
        span = self.spans[record * self.windows + cwp] = tuple(
            row[cwp] or resolve(row, cwp) for row in rows
        )
        return span

    def _entries(self, buf) -> list:
        table = self.table
        spans = self.spans
        cwp = self.cwp
        windows = self.windows
        cycles = self.window_cycles
        chunk = []
        append = chunk.append
        extend = chunk.extend
        for record in buf:
            if record < 0:
                marker = -1 - record
                cwp = marker % windows
                cycles += marker // windows
                continue
            if cycles:
                append(cycles)
                cycles = 0
            if record < BLOCK:
                row = table[record][1]
                append(row[cwp] or self._resolve(row, cwp))
            else:
                extend(spans.get(record * windows + cwp) or self._span(record, cwp))
        self.cwp = cwp
        self.window_cycles = cycles
        return chunk


class VaxRetireSink(RetireSink):
    """The VAX: (PC, running data-reference count) as each instruction starts."""

    def describe(self, pc: int, end: int) -> None:
        """Describe the instruction at ``pc``, keyed on its bytes up to ``end``."""
        super().describe(pc, bytes(self.cpu.memory._bytes[pc:end]))

    def retire(self, pc: int, end: int) -> None:
        """The step's record, made once its operands are evaluated."""
        self.describe(pc, end)
        if len(self.buf) >= 2 * self.chunk:
            self.drain()
        stats = self.cpu.memory.stats
        self.buf.extend((pc, stats.data_reads + stats.data_writes))

    def _classify(self, pc: int) -> tuple:
        """``(static part of the Retire, base plus specifier cycles, {})``."""
        decoded = decode(self.cpu.memory._bytes, pc)
        info = decoded.info
        timing = self.cpu.timing
        reads, writes = [], []
        cost = timing.base_cycles[info.kind]
        target = None
        fallthrough = pc + decoded.length
        for spec in decoded.operands:
            if spec.family == "branch":
                target = (fallthrough + spec.value) & WORD
                continue
            cost += timing.specifier_cycles[spec.family]
            # memory operands' address registers were consumed by the
            # specifier evaluators: the microcode occupancy covers them
            if spec.family == "register":
                if spec.access in "rm":
                    reads.append(spec.reg)
                if spec.access in "wm":
                    writes.append(spec.reg)
        if info.kind in ("push", "calls", "ret"):
            reads.append(SP)
            writes.append(SP)
        conditional = info.mnemonic in _VAX_CONDITIONAL
        static = (pc, tuple(reads), tuple(writes), False, False, False, conditional,
                  target, fallthrough, False)
        # the Retire for each occupancy seen, so replay allocates nothing
        return static, cost, {}

    def _entries(self, buf) -> list:
        # every drain falls between two instructions, so the last record's
        # references end at the current count
        table = self.table
        memory_cycles = self.cpu.timing.memory_cycles
        stats = self.cpu.memory.stats
        refs = buf[1::2]
        refs.append(stats.data_reads + stats.data_writes)
        chunk = []
        append = chunk.append
        for pc, before, after in zip(buf[::2], refs, refs[1:]):
            static, cost, made = table[pc][1]
            occupancy = cost + (after - before) * memory_cycles
            entry = made.get(occupancy)
            if entry is None:
                entry = made[occupancy] = static + (occupancy if occupancy > 1 else 1,)
            append(entry)
        return chunk


def open_sink(cpu, models) -> RetireSink:
    """Attach a sink feeding ``models`` to ``cpu``; ``close()`` detaches it."""
    if cpu.name == "risc1":
        return RiscRetireSink(cpu, models)
    return VaxRetireSink(cpu, models)
