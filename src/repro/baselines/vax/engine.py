"""Translating fast execution engine for the VAX-like baseline.

The reference interpreter (:meth:`repro.baselines.vax.cpu.VaxCPU.step`)
re-parses the variable-length instruction at every step.  This engine
parses each instruction once (:func:`repro.baselines.vax.isa.decode`) and
runs it on two tiers that share one run loop:

* the *per-instruction tier* translates the instruction at a PC into a
  closure over what the parse found: registers, displacements, literals,
  widths, the autoincrement/autodecrement steps (applied in specifier
  order before execution), the static cycle cost, the fall-through PC and
  the branch target.  It returns the next PC.  CALLS, RET, HALT, JMP and
  PUSHL are written by hand; every other closure is generated;
* the *block tier* runs hot straight-line code.  A head is the PC after a
  branch, a CALLS, a RET, an instruction blocks do not cover or exited
  before, or another block.  Under the promotion rule, cache and counts
  the RISC I engine shares (:mod:`repro.core.blockcache`), the
  instructions up to the first branch or ``jmp``, that transfer
  included, become one generated function: operands inlined, loads and
  stores through ``struct`` on the memory bytearray, N Z V C in locals
  written back when it returns.  A block never raises: before an
  out-of-range access, an MMIO store, a store into the code segment or a
  zero divisor it returns with the exact PC and the per-instruction tier
  runs that instruction.  Autoincrement and autodecrement specifiers,
  CALLS, RET and HALT end a block before them.

:data:`SEMANTICS` and :data:`BRANCHES` are the one place a straight-line
mnemonic's operation and flag rule are written; both tiers are generated
from their statements (``docs/ENGINE.md``).

Exactness is the contract: the same exit code, console, every
:class:`~repro.baselines.vax.cpu.VaxStats` field, memory counters,
registers, flags and tracer events as the reference loop
(``tests/test_engine_diff.py``, ``tests/test_blocks.py``).  The fold rule
is :class:`repro.core.engine.PredecodedEngine`'s.  An *observed* run (the
shell decides) keeps the stats per step where ``step()`` does, calls the
hook after operand evaluation with ``cpu.pc`` at the fall-through, and
emits the reference's events.  An unobserved run folds ``instructions``,
``inst_bytes``, ``by_mnemonic`` and ``cycles`` (count times static cost,
plus ``memory_cycles`` per data reference) when the loop exits, and
``data_reads``/``data_writes`` from the memory counters, into which a
block folds its static references.  A uarch probe alone leaves a run
unobserved: each step appends its PC and the data-reference count so far
to the retire stream.  Observed and measured runs stay per-instruction.

Bytes that do not decode, bad specifiers and PCs outside the code
segment run through ``cpu.step()`` for one step.  An inline range check
on translated stores, and the engine's ``write_watch`` for every other
write, drop the closures and blocks a write touches.
"""

from __future__ import annotations

import re
import struct
from collections import namedtuple
from functools import lru_cache

from repro.baselines.vax.cpu import _Operand, _signed
from repro.baselines.vax.isa import AP, FP, SP, INSTRUCTIONS, Decoded, decode
from repro.core import blockcache
from repro.core.api import MMIO_BASE, MachineShell
from repro.machine.memory import MemoryError_
from repro.machine.traps import Trap, TrapKind

WORD = 0xFFFFFFFF
SIGN = 0x80000000

#: The longest encoding: an opcode and three specifiers of five bytes.
MAX_LENGTH = 16

#: entry mask -> the registers CALLS saves (r2..r11), in push order
_SAVED = {mask: tuple(r for r in range(2, 12) if mask >> r & 1) for mask in range(0x1000)}
#: a CALLS frame of n words from its lowest address: mask, return PC, FP,
#: AP, the saved registers (last pushed first), the argument count
_FRAMES = {n: struct.Struct(f">{n}I") for n in range(5, 16)}

#: Every straight-line mnemonic: ``(operation, flag rule, trap)``.  The
#: operation is an expression over the operands read or addressed, ``a``
#: then ``b`` in specifier order (widths and access codes from ``isa``),
#: giving the value of the operand written (``None``: none).  The flag
#: rule (:func:`_flag_lines`) works at the last operand's width; on
#: ``trap`` the instruction traps instead.  ``W``/``S``: word mask, sign.
SEMANTICS = {
    **dict.fromkeys(("movl", "movw", "movb", "movzbl", "movzwl", "moval"), ("a", "nz", None)),
    "cvtbl": ("(a ^ 128) - 128 & W", "nz", None),
    "cvtwl": ("(a ^ 32768) - 32768 & W", "nz", None),
    "clrl": ("0", "clr", None),
    "tstl": (None, "tst", None),
    "incl": ("a + 1 & W", "nz", None),
    "decl": ("a - 1 & W", "nz", None),
    "mnegl": ("-a & W", "nz", None),
    "mcoml": ("~a & W", "nz", None),
    **dict.fromkeys(("addl2", "addl3"), ("b + a & W", "add", None)),
    **dict.fromkeys(("subl2", "subl3"), ("b - a & W", "sub", None)),
    **dict.fromkeys(("mull2", "mull3"), ("((b ^ S) - S) * ((a ^ S) - S) & W", "nz", None)),
    # C division truncates toward zero
    **dict.fromkeys(("divl2", "divl3"), ("int(((b ^ S) - S) / ((a ^ S) - S)) & W", "nz", "not a")),
    **dict.fromkeys(("bisl2", "bisl3"), ("b | a", "nz", None)),
    **dict.fromkeys(("xorl2", "xorl3"), ("b ^ a", "nz", None)),
    **dict.fromkeys(("andl2", "andl3"), ("b & a", "nz", None)),
    # ``a`` is the signed 8-bit count; amounts are masked to 5 bits
    "ashl": ("(b << (a & 31) if a < 128 else ((b ^ S) - S) >> (256 - a & 31)) & W", "nz", None),
    **dict.fromkeys(("cmpl", "cmpw", "cmpb"), (None, "cmp", None)),
}
#: Each branch's condition, over the flags ``n z v c``.
BRANCHES = {
    "brb": "True", "brw": "True", "beql": "z", "bneq": "not z", "blss": "n", "bgeq": "not n",
    "bleq": "n or z", "bgtr": "not (n or z)", "blssu": "c", "bgequ": "not c",
    "blequ": "c or z", "bgtru": "not (c or z)",
}
#: the flags each rule sets
_FLAGS = {"nz": "nz", "tst": "nzvc", "clr": "nzv", "add": "nzvc", "sub": "nzvc", "cmp": "nzvc"}
_DIVIDE = "raise Trap(TrapKind.ILLEGAL_INSTRUCTION, 'integer divide by zero')"
#: the globals every generated function shares (read only)
_GLOBALS = {"Trap": Trap, "TrapKind": TrapKind, **blockcache.STRUCTS}


def _flag_lines(rule: str, width: int, flag: str) -> list:
    """Statements setting the flags by ``rule`` from ``a``, ``b`` and the
    result ``s``; ``flag`` prefixes each flag's name."""
    n, z, v, c = (flag + name for name in "nzvc")
    top = 1 << (8 * width - 1)
    if rule == "cmp":  # flipping the sign bits turns the signed order unsigned
        return [f"{z} = a == b", f"{n} = a ^ {top} < b ^ {top}", f"{c} = a < b", f"{v} = False"]
    if rule == "tst":
        return [f"{z} = a == 0", f"{n} = a >= {SIGN}", f"{v} = {c} = False"]
    if rule == "clr":
        return [f"{n} = False", f"{z} = True", f"{v} = False"]
    lines = [f"{z} = s == 0", f"{n} = s >= {top}"]
    if rule == "add":
        lines += [f"{c} = a + b > {WORD}", f"{v} = ~(a ^ b) & (a ^ s) & {SIGN} != 0"]
    elif rule == "sub":
        lines += [f"{c} = b < a", f"{v} = (b ^ a) & (b ^ s) & {SIGN} != 0"]
    return lines


def _semantic_lines(m: str, values: list, store, flag: str, on_trap: str) -> list:
    """Statements executing straight-line mnemonic ``m`` from
    :data:`SEMANTICS`: ``values`` are the expressions of the operands it
    reads, ``store(result)`` writes its result, ``flag`` prefixes the
    flags' names and ``on_trap`` runs instead of a trap."""
    operation, rule, trap = SEMANTICS[m]
    lines = [f"{name} = {value}" for name, value in zip("ab", values)]
    if trap is not None:
        lines.append(f"if {trap}: {on_trap}")
    if operation is not None:
        lines += ["s = " + operation.replace("W", str(WORD)).replace("S", str(SIGN)), store("s")]
    return lines + _flag_lines(rule, INSTRUCTIONS[m].operands[-1].width, flag)


def _condition(m: str, local=()) -> str:
    """Branch ``m``'s condition over the CPU's flags, or locals ``local``."""
    return re.sub(r"\b[nzvc]\b", lambda f: f[0] if f[0] in local else "cpu." + f[0], BRANCHES[m])


@lru_cache(maxsize=None)
def _factory(m: str):
    """``make(cpu, fall, *operands) -> handler`` for mnemonic ``m`` on the
    per-instruction tier, from the block generator's statements; a
    branch's operand is its target.  Otherwise ``operands`` hold, in
    specifier order, the value closure (a read, or the address) of each
    operand read or addressed, then its write closure if it is written."""
    if m in BRANCHES:
        params, body = ["target"], [f"return target if {_condition(m)} else fall"]
    else:
        params, values, store = [], [], None
        for k, spec in enumerate(INSTRUCTIONS[m].operands):
            if spec.access in "rma":
                params.append(f"V{k}")
                values.append(f"V{k}()")
            if spec.access in "wm":
                params.append(f"D{k}")
                store = f"D{k}({{}})".format
        body = _semantic_lines(m, values, store, "cpu.", _DIVIDE) + ["return fall"]
    source = f"def make(cpu, fall, {', '.join(params)}):\n    def run():\n"
    source += "".join(f"        {line}\n" for line in body) + "    return run\n"
    return blockcache.define(source, "make", _GLOBALS)


def _cost(timing, decoded: Decoded) -> int:
    """Base plus specifier cycles of one instruction."""
    return timing.base_cycles[decoded.info.kind] + sum(
        timing.specifier_cycles[spec.family] for spec in decoded.operands
        if spec.family != "branch"
    )


# -- the block generator ------------------------------------------------------


def _covers(decoded: Decoded, size: int, lo: int, hi: int) -> bool:
    """Whether a block runs this instruction (else a block ends before
    it): no side-effecting specifier, no operand that always traps, no
    absolute access that always leaves the block."""
    m = decoded.info.mnemonic
    if m not in SEMANTICS and m not in BRANCHES and m not in ("jmp", "pushl"):
        return False
    for spec in decoded.operands:
        family, access, width = spec.family, spec.access, spec.width
        if family in ("autoinc", "autodec", "bad"):
            return False
        if family in ("literal", "immediate", "register"):
            if access == "a" or access in "wm" and family != "register":
                return False  # an address of neither, or a write to a constant
        elif family == "absolute" and access in "rwm":
            at = spec.value
            if at + width > size or access in "wm" and lo - width < at < hi:
                return False
    return True


#: what a block's accounting needs, fixed by its bytes: its end, and per
#: instruction its decoded form and its data reads and writes
_Shape = namedtuple("_Shape", "end decoded reads writes")


def _translate(items: list, size: int, lo: int, hi: int):
    """``(function, shape)`` of the block of ``(pc, decoded)`` items.
    ``function(R, M, cpu)`` — registers, memory, the CPU (its flags) —
    returns ``(done, pc)``: the instructions it ran and the next PC."""
    lines = ["def block(R, M, cpu, U32=U32, U16=U16, P32=P32, P16=P16):"]
    local: list = []  # the flags set so far, held in locals
    reads, writes = [], []
    for done, (pc, decoded) in enumerate(items):
        m = decoded.info.mnemonic
        fall = pc + decoded.length
        writeback = "".join(f"cpu.{flag} = {flag}; " for flag in local)
        checks, values, stores = [], [], []
        loads = stored = 0
        for k, spec in enumerate(op for op in decoded.operands if op.family != "branch"):
            family, access, width = spec.family, spec.access, spec.width
            if family in ("literal", "immediate"):
                values.append(str(spec.value))
                continue
            if family == "register":
                reg, mask = f"R[{spec.reg}]", (1 << 8 * width) - 1
                if access in "rm":
                    values.append(reg if width == 4 else f"{reg} & {mask}")
                if access in "wm":
                    stores.append(f"{reg} = {{}}".format if width == 4 else
                                  f"{reg} = {reg} & {~mask & WORD} | {{}} & {mask}".format)
                continue
            at = str(spec.value) if family == "absolute" else f"t{k}"
            if family != "absolute":
                disp = f" + {spec.value} & {WORD}" if spec.value else ""
                lines.append(f"    {at} = R[{spec.reg}]{disp}")
                if access != "a":
                    checks.append(f"{at} > {size - width}"
                                  + (f" or {lo - width} < {at} < {hi}" if access in "wm" else ""))
            if access == "a":
                values.append(at)
            if access in "rm":
                loads += 1
                values.append({4: f"U32(M, {at})[0]", 2: f"U16(M, {at})[0]", 1: f"M[{at}]"}[width])
            if access in "wm":
                stored += 1
                stores.append({4: f"P32(M, {at}, {{}})", 2: f"P16(M, {at}, {{}} & 65535)",
                               1: f"M[{at}] = {{}} & 255"}[width].format)
        if m == "pushl":
            lines.append(f"    u = R[{SP}] - 4 & {WORD}")
            checks.append(f"u > {size - 4} or {lo - 4} < u < {hi}")
            stored += 1
        bail = f"{writeback}return {done}, {pc}"
        if checks:
            lines.append(f"    if {' or '.join(checks)}: {bail}")
        reads.append(loads)
        writes.append(stored)
        if m in BRANCHES or m == "jmp":
            target = (fall + decoded.operands[0].value) & WORD
            test = "True" if m == "jmp" else _condition(m, local)
            to = values[0] if m == "jmp" else target if test == "True" else (
                f"{target} if {test} else {fall}")
            lines.append(f"    {writeback}return {done + 1}, {to}")
            break
        if m == "pushl":
            body = [f"P32(M, u, {values[0]})", f"R[{SP}] = u"]
        else:
            body = _semantic_lines(m, values, stores[-1] if stores else None, "", bail)
            local += [flag for flag in _FLAGS[SEMANTICS[m][1]] if flag not in local]
        lines += [f"    {line}" for line in body]
    else:
        writeback = "".join(f"cpu.{flag} = {flag}; " for flag in local)
        lines.append(f"    {writeback}return {len(items)}, {fall}")
    shape = _Shape(fall, tuple(decoded for _, decoded in items), tuple(reads), tuple(writes))
    return blockcache.define("\n".join(lines), "block", _GLOBALS), shape


def _bus_error(address: int, width: int, size: int) -> MemoryError_:
    """The trap :class:`~repro.machine.memory.Memory` raises out of range."""
    return MemoryError_(
        TrapKind.BUS_ERROR, f"access of {width} byte(s) at {address:#x} exceeds {size:#x}"
    )


def _not_memory():
    """The address of a register or immediate operand (``VaxCPU._address``)."""
    raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "address operand must reference memory")


#: What one PC translated to: its ``VaxOpcodeInfo``, cost (base plus
#: specifier cycles), length, fall-through PC and branch displacement;
#: ``pre`` applies its side-effecting specifiers (``None``: it has none),
#: ``body`` executes it once ``pre`` ran and returns the next PC, and
#: ``describe`` evaluates the operands as ``on_execute`` receives them.
Translation = namedtuple("Translation", "info cost length fall branch_disp pre body describe")


class VaxEngine:
    """The fast executor bound to one :class:`~repro.baselines.vax.cpu.VaxCPU`.

    Covers the loaded program's code segment; the machine's shell builds
    it and keeps it across ``run()`` calls.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        #: the stats object the closures update (``restore`` replaces the
        #: machine's, and drops this engine with it)
        self.stats = cpu.stats
        segments = cpu._program.segments
        code = [s for s in segments if s.name == "code"] or list(segments)
        #: the memory's bytes, traffic counters and size
        self.mem, self.mstats, self.size = cpu.memory._bytes, cpu.memory.stats, cpu.memory.size
        self.code_lo = min(s.base for s in code)
        self.code_hi = min(max(s.end for s in code), self.size)
        #: pc -> closure, or False to run that PC through ``cpu.step()``
        self.handlers: dict = {}
        self.translations: dict[int, Translation] = {}
        self.counts: dict[int, int] = {}
        #: head -> installed block, or False (never a block head)
        self.blocks: dict = {}
        #: head -> visits counted towards promotion
        self.heat: dict[int, int] = {}
        #: PCs whose next PC is a head: transfers, the instructions blocks
        #: do not cover, and those blocks exited before
        self.resume: set = set()
        #: set by :meth:`run`: observed runs keep the stats per step
        self.observed = False
        #: the PC a handler moved to before it faulted (RET)
        self.fault_pc: int | None = None

    # -- bookkeeping -------------------------------------------------------

    def _flush(self, pc: int) -> None:
        """Fold one PC's counted executions into the stats."""
        count = self.counts[pc]
        if count:
            self.counts[pc] = 0
            if not self.observed:
                t = self.translations[pc]
                stats = self.stats
                stats.instructions += count
                stats.cycles += count * t.cost
                stats.inst_bytes += count * t.length
                stats.by_mnemonic[t.info.mnemonic] += count

    def _fold(self, block: blockcache.Block) -> None:
        """Fold one block's counted runs and exits into the stats; its data
        references go to the memory counters, folded with the run's."""
        stats, traffic, shape = self.stats, self.mstats, block.shape
        for i, executed in block.ran():
            stats.instructions += executed
            stats.cycles += executed * block.costs[i]
            stats.inst_bytes += executed * shape.decoded[i].length
            stats.by_mnemonic[shape.decoded[i].info.mnemonic] += executed
            traffic.data_reads += executed * shape.reads[i]
            traffic.data_writes += executed * shape.writes[i]

    def _note_write(self, address: int, width: int = 4) -> None:
        """Drop the translations and blocks a store of ``width`` bytes
        overlaps."""
        if address < self.code_hi and address + width > self.code_lo:
            handlers = self.handlers
            translations = self.translations
            for pc in range(address - MAX_LENGTH + 1, address + width):
                if pc in handlers:
                    t = translations.get(pc)
                    if t is None or pc + t.length > address:
                        del handlers[pc]
            for head, block in list(self.blocks.items()):
                if block and head < address + width and address < block.shape.end:
                    self._fold(block)
                    del self.blocks[head]
                    self.heat.pop(head, None)

    # -- translation -------------------------------------------------------

    def _translate(self, pc: int):
        """Translate the instruction at ``pc``; returns its handler."""
        if pc in self.translations:
            self._flush(pc)  # credit the executions of the old bytes
            del self.translations[pc]
            del self.counts[pc]
        handler = False
        if self.code_lo <= pc < self.code_hi:
            decoded = decode(self.mem, pc)
            if (
                decoded is not None
                and pc + decoded.length <= self.code_hi
                and all(spec.family != "bad" for spec in decoded.operands)
            ):
                t = self._make(pc, decoded)
                self.translations[pc] = t
                self.counts[pc] = 0
                if decoded.info.kind in ("branch", "calls", "ret") or not _covers(
                        decoded, self.size, self.code_lo, self.code_hi):
                    self.resume.add(pc)
                if self.cpu._sink is not None:
                    self.cpu._sink.describe(pc, t.fall)
                handler = t.body
                if t.pre is not None:
                    pre, body = t.pre, t.body

                    def handler():
                        pre()
                        return body()

        self.handlers[pc] = handler
        return handler

    def _shape(self, head: int) -> list:
        """``(pc, decoded)`` items of the block headed at ``head``: the
        instructions blocks cover, up to the first branch or ``jmp``."""
        lo, hi = self.code_lo, self.code_hi
        items: list = []
        pc = head
        while lo <= pc < hi and len(items) < blockcache.MAX_BLOCK:
            decoded = decode(self.mem, pc)
            if decoded is None or pc + decoded.length > hi or not _covers(
                    decoded, self.size, lo, hi):
                break
            items.append((pc, decoded))
            if decoded.info.kind == "branch":
                break
            pc += decoded.length
        return items

    def _promote(self, head: int, visits: int):
        """A head's second visit, or its ``PROMOTE``-th: installs and
        returns its block if :func:`blockcache.promote` has one."""
        items = self._shape(head)
        if not items:
            self.blocks[head] = False
            return None
        end = items[-1][0] + items[-1][1].length
        key = ("cisc", head, bytes(self.mem[head:end]), self.size, self.code_lo, self.code_hi)
        entry = blockcache.promote(
            key, visits, lambda: _translate(items, self.size, self.code_lo, self.code_hi))
        if entry is None:
            return None
        run, shape = entry
        costs = tuple(_cost(self.cpu.timing, decoded) for decoded in shape.decoded)
        block = self.blocks[head] = blockcache.Block(run, shape, costs)
        return block

    def _make(self, pc: int, decoded: Decoded) -> Translation:
        info = decoded.info
        fall = pc + decoded.length
        specs = [spec for spec in decoded.operands if spec.family != "branch"]
        branch_disp = next(
            (spec.value for spec in decoded.operands if spec.family == "branch"), None
        )
        # with an autoincrement or autodecrement among the specifiers,
        # every memory address is fixed in specifier order before the
        # instruction runs, as the parse fixes it; otherwise each is
        # computed when it is used, from registers nothing has changed yet
        staged = any(spec.family in ("autoinc", "autodec") for spec in specs)
        steps, reads, writes, addresses, describes = [], [], [], [], []
        for spec in specs:
            step, read, write, address, describe = self._operand(spec, fall, staged)
            if step is not None:
                steps.append(step)
            reads.append(read)
            writes.append(write)
            addresses.append(address)
            describes.append(describe)
        pre = None
        if steps:
            steps = tuple(steps)

            def pre():
                for step in steps:
                    step()

        def describe():
            return [operand() for operand in describes]

        body = self._body(info.mnemonic, specs, reads, writes, addresses, fall, branch_disp)
        return Translation(info, _cost(self.cpu.timing, decoded), decoded.length, fall,
                           branch_disp, pre, body, describe)

    def _operand(self, spec, fall: int, staged: bool):
        """``(step, read, write, address, describe)`` for one specifier.

        ``step`` is the specifier's part of the instruction's pre step
        (``None`` if it has none); the others are closures over the
        operand, as ``VaxCPU._read``/``_write``/``_address`` and the
        reference's operand object behave.
        """
        family, reg, value, width = spec.family, spec.reg, spec.value, spec.width
        regs = self.cpu.regs

        if family in ("literal", "immediate"):
            operand = _Operand("imm", value)

            def write(result):
                raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "write to immediate operand")

            return None, lambda: value, write, _not_memory, lambda: operand

        if family == "register":
            operand = _Operand("reg", reg)
            mask = (1 << (8 * width)) - 1
            if width == 4:
                def read():
                    return regs[reg] & WORD

                def write(result):
                    regs[reg] = result & WORD
            else:
                keep = ~mask & WORD

                def read():
                    return regs[reg] & mask

                def write(result):
                    regs[reg] = (regs[reg] & keep) | (result & mask)

            return None, read, write, _not_memory, lambda: operand

        # every memory address is ``(base[index] + disp) & WORD``: a
        # register plus displacement (deferred is displacement 0), a
        # constant (absolute), or the cell a staged step filled
        step = None
        base, index, disp = regs, reg, value
        if staged:
            base, index, disp = [0], 0, 0
            if family == "autodec":
                def step():
                    base[0] = regs[reg] = (regs[reg] - width) & WORD
            elif family == "autoinc":
                def step():
                    base[0] = regs[reg]
                    regs[reg] = (base[0] + width) & WORD
            elif family == "absolute":
                def step():
                    base[0] = value
            else:
                def step():
                    base[0] = (regs[reg] + value) & WORD
        elif family == "absolute":
            base, index = [0], 0

        def address():
            return (base[index] + disp) & WORD

        read, write = self._memory(width, fall, base, index, disp)
        return step, read, write, address, lambda: _Operand("mem", address())

    def _memory(self, width: int, fall: int, base: list, index: int, disp: int):
        """Read and write closures for the memory operand at
        ``(base[index] + disp) & WORD``."""
        cpu, stats = self.cpu, self.stats
        mem, mstats, size = self.mem, self.mstats, self.size
        mask = (1 << (8 * width)) - 1
        code_lo, code_hi = self.code_lo, self.code_hi
        note_write = self._note_write
        # the shell's store: the data_writes it counts are folded into
        # the VaxStats with every other reference
        mmio_store = MachineShell._mmio_store

        def read():
            at = (base[index] + disp) & WORD
            if at + width > size:
                raise _bus_error(at, width, size)
            mstats.data_reads += 1
            if cpu._trace_mem:
                cpu.tracer.mem_ref(stats.cycles, fall, at, "r", width)
            return int.from_bytes(mem[at : at + width], "big")

        def write(result):
            at = (base[index] + disp) & WORD
            if at >= MMIO_BASE:
                mmio_store(cpu, at, result, width, fall)
                return
            if at + width > size:
                raise _bus_error(at, width, size)
            mem[at : at + width] = (result & mask).to_bytes(width, "big")
            mstats.data_writes += 1
            if at < code_hi and at + width > code_lo:
                note_write(at, width)  # self-modifying code
            if cpu._trace_mem:
                cpu.tracer.mem_ref(stats.cycles, fall, at, "w", width)

        return read, write

    def _push(self):
        """A ``push(value)`` closure, as ``VaxCPU._push``."""
        regs = self.cpu.regs
        mem, mstats, size = self.mem, self.mstats, self.size
        code_lo, code_hi = self.code_lo, self.code_hi
        note_write = self._note_write

        def push(value):
            sp = regs[SP] = (regs[SP] - 4) & WORD
            if sp + 4 > size:
                raise _bus_error(sp, 4, size)
            mem[sp : sp + 4] = (value & WORD).to_bytes(4, "big")
            mstats.data_writes += 1
            if sp < code_hi and sp + 4 > code_lo:
                note_write(sp, 4)

        return push

    def _body(self, m: str, specs, reads, writes, addresses, fall: int, branch_disp):
        """The closure that executes mnemonic ``m``; returns the next PC."""
        cpu = self.cpu

        if branch_disp is not None:
            return _factory(m)(cpu, fall, (fall + branch_disp) & WORD)

        if m == "halt":
            return lambda: cpu._halt(_signed(cpu.regs[0]))

        if m == "jmp":
            return addresses[0]

        if m == "calls":
            return self._calls(reads[0], addresses[1], fall)

        if m == "ret":
            return self._ret(fall)

        if m == "pushl":
            push, source = self._push(), reads[0]

            def run():
                push(source())
                return fall
            return run

        operands = []
        for spec, read, write, address in zip(specs, reads, writes, addresses):
            if spec.access in "rma":
                operands.append(address if spec.access == "a" else read)
            if spec.access in "wm":
                operands.append(write)
        return _factory(m)(cpu, fall, *operands)

    # -- procedure linkage -------------------------------------------------

    def _linkage(self, method, fall: int, *args) -> int:
        """Run the reference's CALLS or RET, ``method(*args)``, for a frame
        that leaves memory or covers code; returns the next PC.  It counts
        data references in the VaxStats too: they are folded from the
        memory counters, as the engine's own."""
        cpu, stats = self.cpu, self.stats
        reads, writes = stats.data_reads, stats.data_writes
        cpu.pc = fall
        try:
            method(*args)
        except MemoryError_:
            self.fault_pc = cpu.pc  # RET may have moved the PC already
            raise
        finally:
            stats.data_reads, stats.data_writes = reads, writes
        return cpu.pc

    def _calls(self, nargs_of, target_of, fall: int):
        cpu, stats, regs = self.cpu, self.stats, self.cpu.regs
        mem, mstats, size = self.mem, self.mstats, self.size
        code_lo, code_hi = self.code_lo, self.code_hi

        def run():
            nargs = nargs_of()
            target = target_of()
            sp = regs[SP]
            if target + 2 <= size:
                mask = mem[target] << 8 | mem[target + 1]
                saved = _SAVED[mask & 0xFFF]
                words = 5 + len(saved)
                low = sp - 4 * words
                if 0 <= low and sp <= size and (low >= code_hi or sp <= code_lo):
                    if cpu._trace_flow:
                        cpu.tracer.call(stats.cycles, fall, cpu._depth + 1, target)
                    # arg count, saved registers, AP, FP, return PC, mask
                    _FRAMES[words].pack_into(mem, low, mask, fall, regs[FP], regs[AP],
                                             *[regs[reg] for reg in reversed(saved)], nargs)
                    mstats.data_reads += 1
                    mstats.data_writes += words
                    regs[SP] = regs[FP] = low
                    regs[AP] = (sp - 4) & WORD  # the argcount slot
                    stats.calls += 1
                    depth = cpu._depth = cpu._depth + 1
                    if depth > stats.max_call_depth:
                        stats.max_call_depth = depth
                    stats.call_linkage_refs += 1 + words
                    return target + 2
            operands = [_Operand("imm", nargs), _Operand("mem", target)]
            return self._linkage(cpu._calls, fall, operands)

        return run

    def _ret(self, fall: int):
        cpu, stats, regs = self.cpu, self.stats, self.cpu.regs
        mem, mstats, size = self.mem, self.mstats, self.size

        def run():
            sp = regs[FP]
            if sp + 4 <= size:
                saved = _SAVED[mem[sp + 2] << 8 & 0xF00 | mem[sp + 3]]
                words = 5 + len(saved)
                if sp + 4 * words <= size:
                    if cpu._trace_flow:
                        cpu.tracer.ret(stats.cycles, fall, cpu._depth - 1)
                    _mask, pc, regs[FP], regs[AP], *values, nargs = _FRAMES[words].unpack_from(
                        mem, sp
                    )
                    for reg, value in zip(reversed(saved), values):
                        regs[reg] = value
                    regs[SP] = (sp + 4 * words + 4 * nargs) & WORD
                    mstats.data_reads += words
                    stats.returns += 1
                    cpu._depth -= 1
                    stats.call_linkage_refs += words
                    return pc
            return self._linkage(cpu._ret, fall)

        return run

    # -- the run loop ------------------------------------------------------

    def _faulted(self, pc: int) -> int:
        """The PC the machine is left at when the instruction at ``pc`` raised."""
        fault_pc, self.fault_pc = self.fault_pc, None
        return self.translations[pc].fall if fault_pc is None else fault_pc

    def _observed_step(self, pc: int, handler):
        """One step with the stats kept as ``VaxCPU.step()`` keeps them."""
        cpu = self.cpu
        stats = self.stats
        mstats = cpu.memory.stats
        t = self.translations[pc]
        stats.inst_bytes += t.length
        hook = cpu.on_execute
        if hook is not None:
            cpu.pc = t.fall
            if t.pre is not None:
                t.pre()
            hook(pc, t.info, t.describe(), t.branch_disp)
            handler = t.body
        if cpu._sink is not None:
            cpu._sink.retire(pc, t.fall)
        reads, writes = mstats.data_reads, mstats.data_writes
        try:
            return handler()
        except Trap as trap:
            trap.pc = pc
            if cpu._trace_trap:
                cpu.tracer.trap(stats.cycles, pc, trap.kind.name, trap.detail)
            raise
        finally:
            reads = mstats.data_reads - reads
            writes = mstats.data_writes - writes
            stats.data_reads += reads
            stats.data_writes += writes
            cycles = t.cost + (reads + writes) * cpu.timing.memory_cycles
            stats.cycles += cycles
            stats.instructions += 1
            stats.by_mnemonic[t.info.mnemonic] += 1
            self.counts[pc] += 1
            if cpu._trace_retire:
                cpu.tracer.retire(stats.cycles, pc, t.info.mnemonic, cycles)

    def run(self, limit: int, observed: bool) -> None:
        """Execute up to ``limit`` steps, ``observed`` or not; raises on
        halt or trap.

        Returns normally only when the step budget ran out — the CPU's
        ``run()`` wrapper turns that into :class:`StepLimitExceeded`.
        """
        cpu = self.cpu
        mstats = cpu.memory.stats
        self.observed = observed
        observed_step = self._observed_step
        lookup = self.handlers.get
        translate = self._translate
        counts = self.counts
        sink = cpu._sink
        record, batch = None, limit
        if sink is not None:  # a measured run: see repro.uarch.sink
            record, batch = sink.buf.append, sink.chunk
        # blocks run where nothing watches single steps; ``head`` is the
        # PC after the last transfer or block (-1: never a head)
        hot = not observed and sink is None
        blocks, heat, promote = self.blocks, self.heat, self._promote
        promote_at = blockcache.PROMOTE
        resume = self.resume if hot else ()
        regs, mem = cpu.regs, self.mem
        pc = cpu.pc
        head = pc if hot else -1
        # data references made inside cpu.step(), which counts its own
        step_reads = step_writes = 0
        reads_at_start, writes_at_start = mstats.data_reads, mstats.data_writes
        try:
            while limit > 0:
                # a hot run keeps half its budget outside the batch: a
                # block runs many steps in one iteration, drawn from it
                steps = min((limit + 1) >> 1 if hot else limit, batch)
                limit -= steps
                for i in range(steps):
                    if pc == head:
                        block = blocks.get(pc)
                        if block is None:
                            visits = heat[pc] = heat.get(pc, 0) + 1
                            if visits >= promote_at or visits == 2:
                                block = promote(pc, visits)
                        if block and block.length <= limit + 1:
                            done, pc = block.run(regs, mem, cpu)
                            if done == block.length:
                                block.runs += 1
                                limit -= done - 1
                                head = pc
                                continue
                            # an exit: the per-instruction tier runs the
                            # next instruction, in this same iteration
                            block.cuts[done] += 1
                            limit -= done
                            resume.add(pc)
                        elif block and block.length <= ((limit + steps - i) >> 1) + 1:
                            # a new split leaves the block room: hand back
                            # the batch's unused iterations
                            limit += steps - i
                            break
                    handler = lookup(pc)
                    if handler is None:
                        handler = translate(pc)
                    if handler is False:
                        cpu.pc = pc
                        reads, writes = mstats.data_reads, mstats.data_writes
                        try:
                            cpu.step()
                        finally:
                            step_reads += mstats.data_reads - reads
                            step_writes += mstats.data_writes - writes
                            pc = cpu.pc
                    elif observed:
                        try:
                            pc = observed_step(pc, handler)
                        except BaseException:
                            pc = self._faulted(pc)
                            raise
                    else:
                        if record is not None:
                            record(pc)
                            record(mstats.data_reads + mstats.data_writes)
                        try:
                            next_pc = handler()
                        except BaseException as exc:
                            counts[pc] += 1
                            if isinstance(exc, Trap):
                                exc.pc = pc
                            pc = self._faulted(pc)
                            raise
                        counts[pc] += 1
                        if pc in resume:
                            head = next_pc
                        pc = next_pc
                if sink is not None:
                    sink.drain()
        finally:
            cpu.pc = pc
            for counted in counts:
                self._flush(counted)
            for block in blocks.values():
                if block:
                    self._fold(block)
            if not observed:
                stats = self.stats
                reads = mstats.data_reads - reads_at_start - step_reads
                writes = mstats.data_writes - writes_at_start - step_writes
                stats.data_reads += reads
                stats.data_writes += writes
                stats.cycles += (reads + writes) * cpu.timing.memory_cycles
