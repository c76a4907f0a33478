"""Predecoded fast execution engine for the RISC I CPU.

The reference interpreter (:meth:`repro.core.cpu.CPU.step`) re-fetches and
re-decodes every instruction from memory, dispatches through a dict, and
re-resolves register-window indices on every operand access.  That is the
hottest path in the whole repository — every experiment, the farm and the
profiler sit on top of it — and none of that work depends on anything but
the instruction word itself.

This engine translates each instruction word of the loaded program, once,
into a specialized closure:

* operand register numbers are resolved to per-window physical-index
  tables (one list lookup per access instead of three calls);
* immediates, long-format targets (``JMPR``/``CALLR``/``LDHI``) and shift
  amounts are sign-extended and folded at translation time;
* the per-opcode variant (immediate vs. register operand, SCC vs. not,
  jump condition) is chosen at translation time, not per step;
* timing cost and opcode identity are kept in parallel arrays so the
  run-to-halt loop does no dict or attribute lookups per step.

Exactness is the contract, not a goal: the engine must produce the same
exit code, output, every :class:`~repro.core.stats.ExecutionStats` field,
the same memory-traffic counters and an identical tracer event stream as
the reference loop (``tests/test_engine_diff.py`` enforces this
differentially on every bundled workload).  One inner loop keeps that
cheap by folding counters late, under one rule:

* per-word execution counts and a local fetch counter are always kept;
  ``by_opcode`` is folded from the counts when a word is recompiled or
  the loop exits, ``inst_fetches`` when the loop exits;
* a run is *observed* when any tracer kind is wanted or an
  ``on_execute`` hook is installed.  Observers read ``instructions`` and
  ``cycles`` mid-run (event timestamps, hooks), so an observed run
  advances those two per step, after the handler and before the RETIRE
  event, exactly where the reference loop does; an unobserved run folds
  them from the counts with ``by_opcode`` — nothing mid-run can see the
  difference.

Rare instructions that need interpreter state the engine does not model
(``GTLPC``/``CALLINT`` read the previous PC), undecodable words, and
out-of-range or misaligned PCs fall back to ``cpu.step()`` for that one
step — semantics by construction.

Self-modifying code is safe: stores from translated closures check the
predecoded range inline, and a :attr:`Memory.write_watch` hook (installed
for the duration of the run) catches every other accounted write — window
spills and fallback-step stores included — invalidating the affected
word so it is re-translated on next execution.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.api import MachineHalted
from repro.isa.conditions import Cond, ConditionCodes, cond_holds
from repro.isa.encoding import EncodingError, Instruction, decode
from repro.isa.opcodes import Opcode
from repro.isa.registers import physical_index
from repro.machine.memory import MemoryError_
from repro.machine.traps import Trap, TrapKind

WORD = 0xFFFFFFFF
SIGN = 0x80000000


@lru_cache(maxsize=None)
def _window_maps(num_windows: int) -> tuple[tuple[int, ...], ...]:
    """``maps[reg][cwp]`` -> physical register index, per window count."""
    return tuple(
        tuple(physical_index(window, reg, num_windows) for window in range(num_windows))
        for reg in range(32)
    )


class PredecodedEngine:
    """One fast run-to-halt executor bound to a :class:`~repro.core.cpu.CPU`.

    Built fresh per ``run()`` call (translation is lazy and costs far less
    than the millions of steps it serves), covering the address range
    spanned by the loaded program's segments.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        segments = cpu._program.segments
        base = min(segment.base for segment in segments) & ~3
        end = max(segment.base + len(segment.data) for segment in segments)
        end = min((end + 3) & ~3, cpu.memory.size)
        self.base = base
        self.span = max(end - base, 0)
        size = self.span >> 2
        #: per-word translation state: a closure, ``False`` (permanently
        #: interpret via ``cpu.step()``) or ``None`` (translate on demand)
        self.handlers: list = [None] * size
        self.costs = [0] * size
        self.ops: list = [None] * size
        self.names = [""] * size
        self.insts: list = [None] * size
        #: per-word execution counts, folded into stats on flush
        self.counts = [0] * size
        #: set by :meth:`run`: observed runs keep instructions/cycles per step
        self.observed = False
        self.maps = _window_maps(cpu.regs.num_windows)

    # -- bookkeeping -------------------------------------------------------

    def _flush(self, idx: int) -> None:
        """Fold one word's counted executions into the CPU stats."""
        count = self.counts[idx]
        if count:
            self.counts[idx] = 0
            stats = self.cpu.stats
            if not self.observed:
                stats.instructions += count
                stats.cycles += count * self.costs[idx]
            stats.by_opcode[self.ops[idx]] += count

    def _flush_all(self) -> None:
        for idx, count in enumerate(self.counts):
            if count:
                self._flush(idx)

    def _note_write(self, address: int, width: int = 4) -> None:
        """Invalidate the predecoded word covering a written address."""
        offset = address - self.base
        if 0 <= offset < self.span:
            idx = offset >> 2
            self._flush(idx)
            self.handlers[idx] = None

    # -- translation -------------------------------------------------------

    def _compile_word(self, idx: int):
        """Translate the word at slot ``idx``; returns its handler."""
        self._flush(idx)  # credit any counted executions of the old word
        cpu = self.cpu
        address = self.base + (idx << 2)
        word = int.from_bytes(cpu.memory._bytes[address : address + 4], "big")
        try:
            inst = decode(word)
        except EncodingError:
            # the reference loop raises EncodingError from the decoder;
            # falling back reproduces that exactly
            self.handlers[idx] = False
            return False
        handler = self._make_handler(inst, address)
        self.handlers[idx] = handler
        if handler is not False:
            self.costs[idx] = cpu.timing.instruction_cycles(inst.opcode)
            self.ops[idx] = inst.opcode
            self.names[idx] = inst.opcode.name
            self.insts[idx] = inst
        return handler

    def _make_handler(self, inst: Instruction, pc: int):
        """Build the specialized closure for one decoded instruction.

        Returns ``False`` for the few opcodes that need per-step
        interpreter state (``GTLPC``/``CALLINT`` read the previous PC) —
        those run through ``cpu.step()``.
        """
        cpu = self.cpu
        regs = cpu.regs
        _regs = regs._regs  # the backing list; never reassigned
        psw = cpu.psw
        stats = cpu.stats
        maps = self.maps
        op = inst.opcode
        dest = inst.dest
        # visible -> physical index tables, one per operand.  ``dmap`` is
        # None for r0 destinations (writes to r0 are discarded); reads of
        # r0 go through physical slot 0, which is never written.
        dmap = maps[dest] if dest else None
        amap = maps[inst.rs1]
        if inst.imm:
            bmap = None
            bval = inst.s2 & WORD
        else:
            bmap = maps[inst.s2]
            bval = 0
        scc = inst.scc

        # arithmetic / logic -------------------------------------------------
        if op is Opcode.ADD:
            if scc:
                def run():
                    cwp = regs.cwp
                    a = _regs[amap[cwp]]
                    b = bval if bmap is None else _regs[bmap[cwp]]
                    raw = a + b
                    result = raw & WORD
                    if dmap is not None:
                        _regs[dmap[cwp]] = result
                    psw.cc = ConditionCodes(
                        result == 0,
                        result >= SIGN,
                        raw > WORD,
                        bool(~(a ^ b) & (a ^ result) & SIGN),
                    )
            elif dmap is None:
                def run():  # add r0, ... — the canonical nop
                    return None
            else:
                def run():
                    cwp = regs.cwp
                    b = bval if bmap is None else _regs[bmap[cwp]]
                    _regs[dmap[cwp]] = (_regs[amap[cwp]] + b) & WORD
            return run

        if op is Opcode.SUB:
            if scc:
                def run():
                    cwp = regs.cwp
                    a = _regs[amap[cwp]]
                    b = bval if bmap is None else _regs[bmap[cwp]]
                    raw = a - b
                    result = raw & WORD
                    if dmap is not None:
                        _regs[dmap[cwp]] = result
                    psw.cc = ConditionCodes(
                        result == 0,
                        result >= SIGN,
                        raw >= 0,  # carry means "no borrow"
                        bool((a ^ b) & (a ^ result) & SIGN),
                    )
            elif dmap is None:
                def run():
                    return None
            else:
                def run():
                    cwp = regs.cwp
                    b = bval if bmap is None else _regs[bmap[cwp]]
                    _regs[dmap[cwp]] = (_regs[amap[cwp]] - b) & WORD
            return run

        if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            if op is Opcode.AND:
                combine = int.__and__
            elif op is Opcode.OR:
                combine = int.__or__
            else:
                combine = int.__xor__
            if scc:
                def run():
                    cwp = regs.cwp
                    b = bval if bmap is None else _regs[bmap[cwp]]
                    result = combine(_regs[amap[cwp]], b)
                    if dmap is not None:
                        _regs[dmap[cwp]] = result
                    psw.cc = ConditionCodes(result == 0, result >= SIGN, False, False)
            elif dmap is None:
                def run():
                    return None
            else:
                def run():
                    cwp = regs.cwp
                    b = bval if bmap is None else _regs[bmap[cwp]]
                    _regs[dmap[cwp]] = combine(_regs[amap[cwp]], b)
            return run

        if op in (Opcode.SLL, Opcode.SRL, Opcode.SRA):
            kind = op
            shift = bval & 31 if bmap is None else 0

            def compute(cwp):
                a = _regs[amap[cwp]]
                amount = shift if bmap is None else _regs[bmap[cwp]] & 31
                if kind is Opcode.SLL:
                    return (a << amount) & WORD
                if kind is Opcode.SRL:
                    return a >> amount
                return ((a - ((a & SIGN) << 1)) >> amount) & WORD  # sra

            if scc:
                def run():
                    cwp = regs.cwp
                    result = compute(cwp)
                    if dmap is not None:
                        _regs[dmap[cwp]] = result
                    psw.cc = ConditionCodes(result == 0, result >= SIGN, False, False)
            else:
                def run():
                    cwp = regs.cwp
                    result = compute(cwp)
                    if dmap is not None:
                        _regs[dmap[cwp]] = result
            return run

        # carry/reverse arithmetic is rare in compiled code; delegating to
        # the interpreter's handler (decode/dispatch already paid) keeps
        # the tricky flag semantics in exactly one place
        if op is Opcode.ADDC:
            return lambda: cpu._alu_add(inst, pc, True)
        if op is Opcode.SUBC:
            return lambda: cpu._alu_sub(inst, pc, True)
        if op is Opcode.SUBR:
            return lambda: cpu._alu_sub(inst, pc, False, True)
        if op is Opcode.SUBCR:
            return lambda: cpu._alu_sub(inst, pc, True, True)

        # memory -------------------------------------------------------------
        memory = cpu.memory
        mem_bytes = memory._bytes
        mem_size = memory.size
        mem_stats = memory.stats

        if op in cpu._LOAD_SPEC:
            width, signed = cpu._LOAD_SPEC[op]
            sign_bit = 1 << (width * 8 - 1)
            sign_span = 1 << (width * 8)

            def run():
                cwp = regs.cwp
                b = bval if bmap is None else _regs[bmap[cwp]]
                address = (_regs[amap[cwp]] + b) & WORD
                if width != 1 and address % width:
                    raise MemoryError_(
                        TrapKind.ALIGNMENT, f"{width}-byte access at {address:#x}", pc=pc
                    )
                if address + width > mem_size:
                    raise MemoryError_(
                        TrapKind.BUS_ERROR,
                        f"access of {width} byte(s) at {address:#x} exceeds {mem_size:#x}",
                        pc=pc,
                    )
                value = int.from_bytes(mem_bytes[address : address + width], "big")
                mem_stats.data_reads += 1
                if signed and value & sign_bit:
                    value -= sign_span
                if cpu._trace_mem:
                    cpu.tracer.mem_ref(stats.cycles, pc, address, "r", width)
                if dmap is not None:
                    _regs[dmap[cwp]] = value & WORD

            return run

        if op in cpu._STORE_SPEC:
            width = cpu._STORE_SPEC[op]
            value_map = maps[dest]  # source operand; r0 reads physical 0 (= 0)
            value_mask = (1 << (width * 8)) - 1
            mmio_base = 0x7F000000
            code_base = self.base
            code_end = self.base + self.span
            note_write = self._note_write

            def run():
                cwp = regs.cwp
                b = bval if bmap is None else _regs[bmap[cwp]]
                address = (_regs[amap[cwp]] + b) & WORD
                value = _regs[value_map[cwp]]
                if address >= mmio_base:
                    cpu._mmio_store(address, value, width, pc)
                    return None
                if width != 1 and address % width:
                    raise MemoryError_(
                        TrapKind.ALIGNMENT, f"{width}-byte access at {address:#x}", pc=pc
                    )
                if address + width > mem_size:
                    raise MemoryError_(
                        TrapKind.BUS_ERROR,
                        f"access of {width} byte(s) at {address:#x} exceeds {mem_size:#x}",
                        pc=pc,
                    )
                mem_bytes[address : address + width] = (value & value_mask).to_bytes(
                    width, "big"
                )
                mem_stats.data_writes += 1
                if code_base <= address < code_end:
                    note_write(address, width)  # self-modifying code
                if cpu._trace_mem:
                    cpu.tracer.mem_ref(stats.cycles, pc, address, "w", width)

            return run

        # control ------------------------------------------------------------
        if op is Opcode.JMPR:
            return self._make_relative_jump(Cond(dest & 0xF), (pc + inst.y) & WORD)

        if op is Opcode.JMP:
            cond = Cond(dest & 0xF)

            def run():
                cwp = regs.cwp
                b = bval if bmap is None else _regs[bmap[cwp]]
                target = (_regs[amap[cwp]] + b) & WORD
                if cond_holds(cond, psw.cc):
                    stats.taken_jumps += 1
                    return target
                stats.untaken_jumps += 1
                return None

            return run

        if op is Opcode.CALLR:
            target = (pc + inst.y) & WORD
            pend = ("call", dest, pc)

            def run():
                cpu._pending = pend
                return target

            return run

        if op is Opcode.CALL:
            pend = ("call", dest, pc)

            def run():
                cwp = regs.cwp
                b = bval if bmap is None else _regs[bmap[cwp]]
                cpu._pending = pend
                return (_regs[amap[cwp]] + b) & WORD

            return run

        if op is Opcode.RET:
            pend = ("ret", 0, pc)

            def run():
                cwp = regs.cwp
                b = bval if bmap is None else _regs[bmap[cwp]]
                cpu._pending = pend
                return (_regs[amap[cwp]] + b) & WORD

            return run

        if op is Opcode.RETINT:
            return lambda: cpu._retint(inst, pc)

        # miscellaneous ------------------------------------------------------
        if op is Opcode.LDHI:
            high = (inst.y & 0x7FFFF) << 13

            def run():
                if dmap is not None:
                    _regs[dmap[regs.cwp]] = high

            return run

        if op is Opcode.GETPSW:
            return lambda: cpu._getpsw(inst, pc)
        if op is Opcode.PUTPSW:
            return lambda: cpu._putpsw(inst, pc)

        # GTLPC / CALLINT read the previous PC, which only the step loop
        # maintains mid-iteration; anything else unknown is the
        # interpreter's problem too (it raises the illegal-instruction
        # trap exactly as the reference does)
        return False

    def _make_relative_jump(self, cond: Cond, target: int):
        """A JMPR closure with the condition test specialized per condition."""
        psw = self.cpu.psw
        stats = self.cpu.stats

        if cond is Cond.ALW:
            def run():
                stats.taken_jumps += 1
                return target

            return run

        if cond is Cond.NOP:
            def run():
                stats.untaken_jumps += 1
                return None

            return run

        # the compiler emits only a handful of condition tests; inline the
        # common ones as direct condition-code reads
        if cond is Cond.EQ:
            def test():
                return psw.cc.z
        elif cond is Cond.NE:
            def test():
                return not psw.cc.z
        elif cond is Cond.LT:
            def test():
                cc = psw.cc
                return cc.n != cc.v
        elif cond is Cond.GE:
            def test():
                cc = psw.cc
                return cc.n == cc.v
        elif cond is Cond.GT:
            def test():
                cc = psw.cc
                return not cc.z and cc.n == cc.v
        elif cond is Cond.LE:
            def test():
                cc = psw.cc
                return cc.z or cc.n != cc.v
        else:
            def test():
                return cond_holds(cond, psw.cc)

        def run():
            if test():
                stats.taken_jumps += 1
                return target
            stats.untaken_jumps += 1
            return None

        return run

    # -- the run loop ------------------------------------------------------

    def run(self, limit: int) -> None:
        """Execute up to ``limit`` steps; raises on halt or trap.

        Returns normally only when the step budget ran out — the CPU's
        ``run()`` wrapper turns that into :class:`StepLimitExceeded`.
        """
        cpu = self.cpu
        psw = cpu.psw
        stats = cpu.stats
        memory = cpu.memory
        tracer = cpu.tracer
        trace_retire = cpu._trace_retire
        trace_trap = cpu._trace_trap
        observed = self.observed = (
            trace_retire
            or cpu._trace_mem
            or cpu._trace_flow
            or cpu._trace_window
            or trace_trap
            or cpu.on_execute is not None
        )
        handlers = self.handlers
        counts = self.counts
        costs = self.costs
        names = self.names
        insts = self.insts
        base = self.base
        span = self.span
        compile_word = self._compile_word
        pc = cpu.pc
        npc = cpu.npc
        last_pc = cpu._last_pc
        fetches = 0
        previous_watch = memory.write_watch
        memory.write_watch = self._note_write
        try:
            for _ in range(limit):
                if cpu._interrupt_request is not None:
                    if (
                        psw.interrupts_enabled
                        and cpu._pending is None
                        and npc == pc + 4
                    ):
                        cpu.pc = pc
                        cpu.npc = npc
                        cpu._deliver_interrupt()
                        pc = cpu.pc
                        npc = cpu.npc
                offset = pc - base
                if 0 <= offset < span and not offset & 3:
                    idx = offset >> 2
                    handler = handlers[idx]
                    if handler is None:
                        handler = compile_word(idx)
                else:
                    handler = False
                if handler is False:
                    cpu.pc = pc
                    cpu.npc = npc
                    cpu._last_pc = last_pc
                    cpu.step()
                    pc = cpu.pc
                    npc = cpu.npc
                    last_pc = cpu._last_pc
                    continue
                pending = cpu._pending
                if pending is not None:
                    cpu._pending = None
                fetches += 1
                if observed:
                    hook = cpu.on_execute
                    if hook is not None:
                        cpu.pc = pc
                        cpu.npc = npc
                        cpu._last_pc = last_pc
                        hook(pc, insts[idx])
                try:
                    target = handler()
                except MachineHalted:
                    counts[idx] += 1  # the halting store is still recorded
                    if observed:
                        cost = costs[idx]
                        stats.instructions += 1
                        stats.cycles += cost
                        if trace_retire:
                            tracer.retire(stats.cycles, pc, names[idx], cost)
                    raise
                except Trap as trap:
                    if trace_trap:
                        tracer.trap(stats.cycles, pc, trap.kind.name, trap.detail)
                    raise
                if pending is not None:
                    if cpu._pending is not None:
                        raise Trap(
                            TrapKind.ILLEGAL_INSTRUCTION,
                            "control transfer in a CALL/RETURN delay slot",
                            pc=pc,
                        )
                    cpu.pc = pc
                    cpu.npc = npc
                    cpu._apply_window_change(pending)
                counts[idx] += 1
                if observed:
                    cost = costs[idx]
                    stats.instructions += 1
                    stats.cycles += cost
                    if trace_retire:
                        tracer.retire(stats.cycles, pc, names[idx], cost)
                last_pc = pc
                if target is None:
                    pc = npc
                    npc = pc + 4
                else:
                    pc, npc = npc, target
        finally:
            cpu.pc = pc
            cpu.npc = npc
            cpu._last_pc = last_pc
            memory.stats.inst_fetches += fetches
            self._flush_all()
            memory.write_watch = previous_watch
