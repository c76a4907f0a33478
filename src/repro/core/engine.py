"""Predecoded fast execution engine for the RISC I CPU.

The reference interpreter (:meth:`repro.core.cpu.CPU.step`) re-fetches and
re-decodes every instruction from memory, dispatches through a dict, and
re-resolves register-window indices on every operand access — work that
depends on nothing but the instruction word.  This engine does it once,
on two tiers that share one run loop:

* the *per-word tier* translates each word of the loaded program, on its
  first execution, into a specialized closure: operands resolved to
  per-window physical-index tables, immediates and targets folded, the
  opcode variant (immediate/register, SCC, jump condition) chosen;
* the *block tier* runs hot straight-line code.  A block starts at a
  restartable head (``npc == pc + 4``, no pending window change, no
  latched interrupt) reached after a transfer's delay slot or another
  block, and covers the ALU/``LDHI``/load/store instructions up to the
  first ``JMP``/``JMPR``/``CALL``/``CALLR``/``RET`` and its delay slot.
  The block is generated as one Python function over ``R[w[r]]`` (``w``
  the current window's row of physical indices) under the promotion
  rule, cache and counts the VAX engine shares
  (:mod:`repro.core.blockcache`).  A block never raises: before a
  misaligned or out-of-range access, a store at or above the MMIO base
  or a store into a translated word it returns with exact ``pc``/``npc``,
  and the per-word tier runs that instruction.  See ``docs/ENGINE.md``
  ("The block tier", "Two tiers").

Exactness is the contract: the same exit code, output, every
:class:`~repro.core.stats.ExecutionStats` field, memory-traffic counter
and tracer event as the reference loop (``tests/test_engine_diff.py`` and
``tests/test_blocks.py`` check it differentially).  Counters are folded
late: per-word execution counts, each block's counts and a fetch counter
are folded into ``by_opcode`` (and ``inst_fetches`` and the blocks' data
traffic) when a word is recompiled, a block is uninstalled or the loop
exits.  An *observed* run (the shell decides) advances ``instructions``
and ``cycles`` per step where the reference loop does and stays on the
per-word tier; an unobserved run folds them too.  A uarch probe leaves a
run unobserved, on both tiers, feeding the retire stream
(:mod:`repro.uarch.sink`): the per-word tier appends each PC, a block one
``head | done << 32`` record per run, after describing its words to the
sink when it is installed.

``GTLPC``/``CALLINT`` (they read the previous PC), undecodable words and
PCs outside the predecoded span fall back to ``cpu.step()`` for one step.
Self-modifying code is safe: translated stores check the predecoded span
inline, and the engine is the memory's ``write_watch`` while the shell
keeps it, for every other write, so a written word — and any block over
it — is translated again before it next runs.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import lru_cache

from repro.core import blockcache
from repro.core.api import MMIO_BASE, MachineHalted
from repro.core.cpu import CPU
from repro.isa.conditions import CC_TABLE, Cond
from repro.isa.encoding import EncodingError, Instruction, decode
from repro.isa.opcodes import Opcode
from repro.isa.registers import physical_index
from repro.machine.traps import Trap, TrapKind

WORD = 0xFFFFFFFF
SIGN = 0x80000000

#: Each jump condition as a Python expression over condition codes ``cc``:
#: the one table both tiers' conditional jumps are generated from.
COND_TEST = {
    Cond.NOP: "False", Cond.ALW: "True",
    Cond.GT: "not cc.z and cc.n == cc.v", Cond.LE: "cc.z or cc.n != cc.v",
    Cond.GE: "cc.n == cc.v", Cond.LT: "cc.n != cc.v",
    Cond.HI: "cc.c and not cc.z", Cond.LOS: "not cc.c or cc.z",
    Cond.HISC: "cc.c", Cond.LONC: "not cc.c",
    Cond.PL: "not cc.n", Cond.MI: "cc.n",
    Cond.NE: "not cc.z", Cond.EQ: "cc.z",
    Cond.NV: "not cc.v", Cond.V: "cc.v",
}

#: ``_HOLDS[cond][i]``: whether ``cond`` holds for ``CC_TABLE[i]`` (a
#: block tests the index its own SCC instruction computed)
_HOLDS = {
    cond: tuple(bool(eval(test, {}, {"cc": cc})) for cc in CC_TABLE)
    for cond, test in COND_TEST.items()
}

_LOGIC = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}
_ALU_OPS = frozenset({Opcode.ADD, Opcode.SUB, Opcode.SLL, Opcode.SRL, Opcode.SRA, *_LOGIC})
#: what a block may hold before its transfer and delay slot
_STRAIGHT = _ALU_OPS | {Opcode.LDHI, *CPU._LOAD_SPEC, *CPU._STORE_SPEC}
_TRANSFERS = frozenset({Opcode.JMP, Opcode.JMPR, Opcode.CALL, Opcode.CALLR, Opcode.RET})
#: the ``struct`` code of a load or store of each width
_FORMATS = {1: ">B", 2: ">H", 4: ">I"}


@lru_cache(maxsize=None)
def _window_maps(num_windows: int) -> tuple[tuple[int, ...], ...]:
    """``maps[reg][cwp]`` -> physical register index, per window count."""
    return tuple(
        tuple(physical_index(window, reg, num_windows) for window in range(num_windows))
        for reg in range(32)
    )


@lru_cache(maxsize=None)
def _cond_test(cond: Cond):
    """``test(cc) -> bool`` for one jump condition, from :data:`COND_TEST`."""
    return eval(f"lambda cc: {COND_TEST[cond]}")


# -- the block generator ------------------------------------------------------


def _reg(reg: int) -> str:
    """A visible register in a block: r0 is 0, globals are fixed slots."""
    if not reg:
        return "0"
    return f"R[{reg}]" if reg < 10 else f"R[w[{reg}]]"


def _sum(a: str, b: str) -> str:
    """``(a + b) & WORD``, with a zero operand folded away."""
    if b == "0":
        return a
    if a == "0":
        return b
    return f"({a} + {b}) & {WORD}"


def _alu(op: Opcode, a: str, b: str) -> str:
    """The 32-bit result of a register-register operation."""
    if op is Opcode.ADD:
        return _sum(a, b)
    if op is Opcode.SUB:
        return a if b == "0" else f"({a} - {b}) & {WORD}"
    if op in _LOGIC:
        return f"{a} {_LOGIC[op]} {b}"
    amount = str(int(b) & 31) if b.isdigit() else f"({b} & 31)"
    if op is Opcode.SLL:
        return f"({a} << {amount}) & {WORD}"
    if op is Opcode.SRL:
        return f"{a} >> {amount}"
    return f"((({a}) ^ {SIGN}) - {SIGN} >> {amount}) & {WORD}"  # sra


def _alu_lines(op: Opcode, scc: bool, a: str, b: str, dest: str | None) -> list:
    """Statements of one ALU instruction over operand expressions ``a``,
    ``b`` and destination ``dest`` (``None`` for r0).  With SCC they also
    leave the condition codes' :data:`CC_TABLE` index in ``c``."""
    if not scc:
        return [f"{dest} = {_alu(op, a, b)}"] if dest else []
    flags = ""
    if op is Opcode.ADD or op is Opcode.SUB:
        lines = [f"x = {a}", f"y = {b}", f"r = x {'+' if op is Opcode.ADD else '-'} y",
                 f"s = r & {WORD}"]
        if op is Opcode.ADD:
            flags = " | (r >> 32) << 1 | (~(x ^ y) & (x ^ s)) >> 31"
        else:  # carry means "no borrow"
            flags = " | (r >= 0) << 1 | ((x ^ y) & (x ^ s)) >> 31"
    else:
        lines = [f"s = {_alu(op, a, b)}"]
    if dest:
        lines.append(f"{dest} = s")
    return lines + [f"c = (s == 0) << 3 | (s >> 31) << 2{flags}", "psw.cc = CC[c]"]


#: the globals every generated function shares (read only)
_GLOBALS = {"CC": CC_TABLE, **blockcache.STRUCTS}


@lru_cache(maxsize=None)
def _alu_factory(op: Opcode, scc: bool, imm: bool, dest: bool):
    """``make(R, regs, psw, A, B, D) -> handler`` for one per-word ALU
    variant, from the block generator's statements: ``A``, ``B`` and
    ``D`` are per-window physical-index maps, ``B`` the value if ``imm``."""
    body = _alu_lines(op, scc, "R[A[cwp]]", "B" if imm else "R[B[cwp]]",
                      "R[D[cwp]]" if dest else None)
    return blockcache.define(
        "def make(R, regs, psw, A, B, D):\n    def run():\n        cwp = regs.cwp\n"
        + "".join(f"        {line}\n" for line in body)
        + "    return run\n",
        "make",
        _GLOBALS,
    )


#: what a block's accounting needs, fixed by its words: ``last`` is the
#: address of its last instruction, ``pend`` the CALL/RET window change
#: applied after the delay slot, ``loads``/``stores`` flag each instruction
_Shape = namedtuple("_Shape", "last pend ops loads stores")


def _translate(items: list, base: int, span: int, mem_size: int):
    """``(function, shape)`` of the block of ``(address, instruction)``
    items.  ``function(R, w, M, psw, stats, X)`` — registers, the window's
    row, memory, PSW, stats, the engine's ``watch`` — returns ``(done, pc,
    npc)``: the instructions it ran and where execution stands."""
    lines = [
        "def block(R, w, M, psw, stats, X, CC=CC, U32=U32, U16=U16, P32=P32, P16=P16):"
    ]

    def emit(line: str, depth: int = 1) -> None:
        lines.append("    " * depth + line)

    flags = False  # local ``c`` holds the index of this block's last SCC
    jumped = False  # the transfer ran: ``t`` holds the delay slot's npc
    pend = None
    for done, (pc, inst) in enumerate(items):
        op = inst.opcode
        bail = f"return {done}, {pc}, {'t' if jumped else pc + 4}"
        a = _reg(inst.rs1)
        b = str(inst.s2 & WORD) if inst.imm else _reg(inst.s2)
        dest = _reg(inst.dest) if inst.dest else None
        if op in _TRANSFERS:
            relative = op is Opcode.JMPR or op is Opcode.CALLR
            target = str((pc + inst.y) & WORD) if relative else _sum(a, b)
            cond = Cond(inst.dest & 0xF) if op in (Opcode.JMP, Opcode.JMPR) else Cond.ALW
            if op is Opcode.RET:
                pend = ("ret", 0, pc)
            elif op in (Opcode.CALL, Opcode.CALLR):
                pend = ("call", inst.dest, pc)
            elif cond is Cond.ALW:
                emit("stats.taken_jumps += 1")
            elif cond is Cond.NOP:
                emit("stats.untaken_jumps += 1")
            else:
                if flags:
                    emit(f"if {_HOLDS[cond]}[c]:")
                else:
                    emit("cc = psw.cc")
                    emit(f"if {COND_TEST[cond]}:")
                emit("stats.taken_jumps += 1", 2)
                emit(f"t = {target}", 2)
                emit("else:")
                emit("stats.untaken_jumps += 1", 2)
                emit(f"t = {pc + 8}", 2)
            if cond is Cond.ALW:
                emit(f"t = {target}")
            elif cond is Cond.NOP:
                emit(f"t = {pc + 8}")
            jumped = True
        elif op is Opcode.LDHI:
            if dest:
                emit(f"{dest} = {(inst.y & 0x7FFFF) << 13}")
        elif op in CPU._LOAD_SPEC or op in CPU._STORE_SPEC:
            if op in CPU._LOAD_SPEC:
                width, signed = CPU._LOAD_SPEC[op]
                top = mem_size - width
            else:
                width = CPU._STORE_SPEC[op]
                top = min(mem_size, MMIO_BASE) - width
            emit(f"a = {_sum(a, b)}")
            check = f"a > {top}"
            if width > 1:
                check = f"a & {width - 1} or {check}"
            if op in CPU._STORE_SPEC:  # into a word translated here?
                check += f" or 0 <= a - {base} < {span} and X[a - {base} >> 2]"
            emit(f"if {check}:")
            emit(bail, 2)
            if op in CPU._STORE_SPEC:
                value = _reg(inst.dest)
                emit({4: f"P32(M, a, {value})", 2: f"P16(M, a, {value} & 65535)",
                      1: f"M[a] = {value} & 255"}[width])
            elif dest:
                value = {4: "U32(M, a)[0]", 2: "U16(M, a)[0]", 1: "M[a]"}[width]
                if signed:
                    bit = 1 << (8 * width - 1)
                    value = f"(({value}) ^ {bit}) - {bit} & {WORD}"
                emit(f"{dest} = {value}")
        else:
            for line in _alu_lines(op, inst.scc, a, b, dest):
                emit(line)
            flags = flags or inst.scc
    length = len(items)
    if jumped:
        emit(f"return {length}, t, t + 4")
    else:
        end = items[-1][0] + 4
        emit(f"return {length}, {end}, {end + 4}")
    ops = tuple(inst.opcode for _, inst in items)
    shape = _Shape(items[-1][0], pend, ops, tuple(op in CPU._LOAD_SPEC for op in ops),
                   tuple(op in CPU._STORE_SPEC for op in ops))
    return blockcache.define("\n".join(lines), "block", _GLOBALS), shape


class PredecodedEngine:
    """One fast run-to-halt executor bound to a :class:`~repro.core.cpu.CPU`.

    Covers the address range spanned by the loaded program's segments;
    the machine's shell builds it and keeps it across ``run()`` calls.
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
        #: per-word block state: a block, ``False`` (never a block head) or
        #: ``None``; ``heat`` counts a head's visits
        self.blocks: list = [None] * size
        self.heat = [0] * size
        #: per word: the blocks covering it, plus one if it has a handler;
        #: a block's store into a watched word exits to the per-word tier
        self.watch = bytearray(size)
        #: head -> installed block
        self.live: dict = {}
        #: set by :meth:`run`: observed runs keep instructions/cycles per step
        self.observed = False
        self.maps = _window_maps(cpu.regs.num_windows)
        #: ``rows[cwp][reg]``: a block's ``w``
        self.rows = tuple(zip(*self.maps))

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

    def _fold(self, block: blockcache.Block) -> None:
        """Fold one block's counted runs and exits into the CPU stats."""
        stats, traffic, shape = self.cpu.stats, self.cpu.memory.stats, block.shape
        for i, executed in block.ran():
            stats.instructions += executed
            stats.cycles += executed * block.costs[i]
            stats.by_opcode[shape.ops[i]] += executed
            traffic.inst_fetches += executed
            traffic.data_reads += executed * shape.loads[i]
            traffic.data_writes += executed * shape.stores[i]

    def _flush_all(self) -> None:
        for idx, count in enumerate(self.counts):
            if count:
                self._flush(idx)
        for block in self.live.values():
            self._fold(block)

    def _note_write(self, address: int, width: int = 4) -> None:
        """Invalidate the predecoded words a write of ``width`` bytes at
        ``address`` covers, and the blocks over them."""
        offset = address - self.base
        if -width < offset < self.span:  # (window spills mostly miss)
            for idx in range(max(offset, 0) >> 2, (min(offset + width, self.span) + 3) >> 2):
                if self.handlers[idx] is not None:
                    self._flush(idx)
                    self.handlers[idx] = None
                    self.watch[idx] -= 1
                if self.watch[idx]:
                    self._drop_blocks(idx)

    def _drop_blocks(self, idx: int) -> None:
        """Uninstall every block covering word ``idx``, folding its counts."""
        # a block holds at most MAX_BLOCK + 1 words
        for head in range(max(idx - blockcache.MAX_BLOCK, 0), idx + 1):
            block = self.blocks[head]
            if block and idx < head + block.length:
                self._fold(block)
                del self.live[head]
                self.blocks[head] = None
                self.heat[head] = 0
                for word in range(head, head + block.length):
                    self.watch[word] -= 1

    # -- translation -------------------------------------------------------

    def _compile_word(self, idx: int):
        """Translate the word at slot ``idx``; returns its handler."""
        self._flush(idx)  # credit any counted executions of the old word
        cpu = self.cpu
        address = self.base + (idx << 2)
        word = int.from_bytes(cpu.memory._bytes[address : address + 4], "big")
        try:
            inst = decode(word)
            handler = self._make_handler(inst, address)
        except EncodingError:
            # the reference loop raises EncodingError from the decoder;
            # falling back reproduces that exactly
            handler = False
        self.handlers[idx] = handler
        self.watch[idx] += 1
        if handler is not False:
            if cpu._sink is not None:  # a measured run: see repro.uarch.sink
                cpu._sink.describe(address, word, inst)
            self.costs[idx] = cpu.timing.instruction_cycles(inst.opcode)
            self.ops[idx] = inst.opcode
            self.names[idx] = inst.opcode.name
            self.insts[idx] = inst
        return handler

    def _shape(self, idx: int) -> list:
        """``(address, instruction)`` items of the block headed at word
        ``idx``: straight-line instructions up to the first transfer and
        its delay slot.  A transfer whose slot is not straight-line, or
        any other opcode, ends the block before it."""
        words = len(self.handlers)
        address = self.base + (idx << 2)
        items: list = []
        while idx < words and len(items) < blockcache.MAX_BLOCK:
            try:
                inst = self._decoded(idx)
                slot = None
                if inst.opcode in _TRANSFERS and idx + 1 < words:
                    slot = self._decoded(idx + 1)
            except EncodingError:
                break
            if slot is not None and slot.opcode in _STRAIGHT:
                items += [(address, inst), (address + 4, slot)]
            if inst.opcode not in _STRAIGHT:
                break
            items.append((address, inst))
            idx += 1
            address += 4
        return items

    def _decoded(self, idx: int) -> Instruction:
        """The instruction at word ``idx``, as the per-word tier decoded it."""
        if self.handlers[idx]:
            return self.insts[idx]
        address = self.base + (idx << 2)
        return decode(int.from_bytes(self.cpu.memory._bytes[address : address + 4], "big"))

    def _promote(self, idx: int, visits: int):
        """A head's second visit, or its ``PROMOTE``-th: installs and
        returns its block if :func:`blockcache.promote` has one."""
        items = self._shape(idx)
        if not items:
            self.blocks[idx] = False
            return None
        memory = self.cpu.memory
        start = items[0][0]
        key = ("risc1", start, bytes(memory._bytes[start : items[-1][0] + 4]),
               memory.size, self.base, self.span)
        entry = blockcache.promote(
            key, visits, lambda: _translate(items, self.base, self.span, memory.size))
        if entry is None:
            return None
        run, shape = entry
        sink = self.cpu._sink
        if sink is not None:  # a measured run: its block records name these words
            code = key[2]
            for i, (address, inst) in enumerate(items):
                sink.describe(address, int.from_bytes(code[4 * i : 4 * i + 4], "big"), inst)
        timing = self.cpu.timing
        costs = tuple(timing.instruction_cycles(op) for op in shape.ops)
        block = blockcache.Block(run, shape, costs, shape.last, shape.pend)
        self.blocks[idx] = self.live[idx] = block
        for word in range(idx, idx + block.length):
            self.watch[word] += 1
        return block

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

        # arithmetic / logic, from the block generator's statements ---------
        if op in _ALU_OPS:
            make = _alu_factory(op, scc, inst.imm, bool(dest))
            return make(_regs, regs, psw, amap, bval if inst.imm else bmap, dmap)

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
            unpack = struct.Struct(_FORMATS[width]).unpack_from

            def run():
                cwp = regs.cwp
                b = bval if bmap is None else _regs[bmap[cwp]]
                address = (_regs[amap[cwp]] + b) & WORD
                if width != 1 and address % width or address + width > mem_size:
                    return cpu._load(inst, pc)  # the reference raises the trap
                value = unpack(mem_bytes, address)[0]
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
            pack = struct.Struct(_FORMATS[width]).pack_into
            code_base = self.base
            code_end = self.base + self.span
            note_write = self._note_write

            def run():
                cwp = regs.cwp
                b = bval if bmap is None else _regs[bmap[cwp]]
                address = (_regs[amap[cwp]] + b) & WORD
                value = _regs[value_map[cwp]]
                if address >= MMIO_BASE:
                    cpu._mmio_store(address, value, width, pc)
                    return None
                if width != 1 and address % width or address + width > mem_size:
                    return cpu._store(inst, pc)  # the reference raises the trap
                pack(mem_bytes, address, value & value_mask)
                mem_stats.data_writes += 1
                if code_base <= address < code_end:
                    note_write(address, width)  # self-modifying code
                if cpu._trace_mem:
                    cpu.tracer.mem_ref(stats.cycles, pc, address, "w", width)

            return run

        # control: a taken jump returns its target, an untaken one False -----
        if op is Opcode.JMPR:
            target = (pc + inst.y) & WORD
            cond = Cond(dest & 0xF)
            if cond is Cond.ALW:
                def run():
                    stats.taken_jumps += 1
                    return target

                return run
            test = _cond_test(cond)

            def run():
                if test(psw.cc):
                    stats.taken_jumps += 1
                    return target
                stats.untaken_jumps += 1
                return False

            return run

        if op is Opcode.JMP:
            test = _cond_test(Cond(dest & 0xF))

            def run():
                cwp = regs.cwp
                b = bval if bmap is None else _regs[bmap[cwp]]
                target = (_regs[amap[cwp]] + b) & WORD
                if test(psw.cc):
                    stats.taken_jumps += 1
                    return target
                stats.untaken_jumps += 1
                return False

            return run

        if op is Opcode.CALLR:
            target = (pc + inst.y) & WORD
            pend = ("call", dest, pc)

            def run():
                cpu._pending = pend
                return target

            return run

        if op is Opcode.CALL or op is Opcode.RET:
            pend = ("call", dest, pc) if op is Opcode.CALL else ("ret", 0, pc)

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

    # -- the run loop ------------------------------------------------------

    def run(self, limit: int, observed: bool) -> None:
        """Execute up to ``limit`` steps, ``observed`` or not; raises on
        halt or trap.

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
        self.observed = observed
        handlers = self.handlers
        counts = self.counts
        costs = self.costs
        names = self.names
        insts = self.insts
        base = self.base
        span = self.span
        compile_word = self._compile_word
        sink = cpu._sink
        record = sink.buf.append if sink is not None else None
        # a measured run drains the sink's buffer between batches of
        # iterations, each appending a few records at most
        batch = sink.chunk if sink is not None else limit
        # blocks run where nothing watches single steps; ``head`` is the
        # PC after the last transfer's delay slot (-1: never a head)
        hot = not observed
        blocks = self.blocks
        heat = self.heat
        promote = self._promote
        promote_at = blockcache.PROMOTE
        regs = cpu.regs
        R = regs._regs
        rows = self.rows
        mem = memory._bytes
        watch = self.watch
        pc = cpu.pc
        npc = cpu.npc
        last_pc = cpu._last_pc
        head = pc if hot else -1
        fetches = 0
        try:
            while limit > 0:
                # a hot run keeps half its budget outside the batch: a
                # block runs many steps in one iteration, drawn from it
                steps = min((limit + 1) >> 1 if hot else limit, batch)
                limit -= steps
                for i in range(steps):
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
                    if pc == head:
                        offset = pc - base
                        if (
                            npc == pc + 4
                            and 0 <= offset < span
                            and not offset & 3
                            and cpu._pending is None
                            and cpu._interrupt_request is None
                        ):
                            idx = offset >> 2
                            block = blocks[idx]
                            if block is None:
                                visits = heat[idx] = heat[idx] + 1
                                if visits >= promote_at or visits == 2:
                                    block = promote(idx, visits)
                            if block and block.length <= limit + 1:
                                done, pc, npc = block.run(
                                    R, rows[regs.cwp], mem, psw, stats, watch
                                )
                                if done and record is not None:
                                    # one retire record: the run, or an exit's prefix
                                    record(head | done << 32)
                                if done == block.length:
                                    block.runs += 1
                                    if block.pend is not None:
                                        # the delay slot ran: rotate the window
                                        target = pc
                                        pc = cpu.pc = block.last
                                        npc = cpu.npc = target
                                        try:
                                            cpu._apply_window_change(block.pend)
                                        except Trap:
                                            # the slot ran, but never retired
                                            block.runs -= 1
                                            block.cuts[done - 1] += 1
                                            fetches += 1
                                            memory.stats.data_reads += block.shape.loads[-1]
                                            memory.stats.data_writes += block.shape.stores[-1]
                                            last_pc = pc - 4
                                            self._fold(block)  # a spill may have dropped it
                                            raise
                                        pc = target
                                        npc = target + 4
                                    limit -= done - 1
                                    last_pc = block.last
                                    head = pc
                                    continue
                                # an exit: the per-word tier runs the next
                                # instruction, in this same iteration
                                block.cuts[done] += 1
                                limit -= done
                                if done:
                                    last_pc = pc - 4
                                    if done == block.length - 1:
                                        cpu._pending = block.pend
                            elif block and block.length <= ((limit + steps - i) >> 1) + 1:
                                # a new split leaves the block room: hand back
                                # the batch's unused iterations
                                limit += steps - i
                                break
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
                    if record is not None:
                        record(pc)
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
                        if target is False:  # an untaken jump
                            target = npc + 4
                        pc, npc = npc, target
                        if hot:
                            head = target
                if sink is not None:
                    sink.drain()
        finally:
            cpu.pc = pc
            cpu.npc = npc
            cpu._last_pc = last_pc
            memory.stats.inst_fetches += fetches
            self._flush_all()
