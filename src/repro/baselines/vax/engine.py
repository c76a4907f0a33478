"""Translating fast execution engine for the VAX-like baseline.

The reference interpreter (:meth:`repro.baselines.vax.cpu.VaxCPU.step`)
re-parses the variable-length instruction at every step: it fetches the
opcode, walks the operand specifiers byte by byte, builds one operand
object per specifier and dispatches on the mnemonic by name.  None of
that depends on anything but the instruction bytes.

This engine parses the instruction at each PC once, with
:func:`repro.baselines.vax.isa.decode`, and translates it into a closure
that binds what the parse found:

* register numbers, displacements, literals and immediates;
* operand widths, and the autoincrement/autodecrement steps, applied in
  specifier order before execution as the parse applies them;
* the static cycle cost (base plus specifiers), the fall-through PC and
  the branch target.

A closure returns the next PC.  CALLS and RET are translated too, with
their stack traffic done in place.

Exactness is the contract: the same exit code, console, every
:class:`~repro.baselines.vax.cpu.VaxStats` field, memory counters,
registers, flags and tracer event stream as the reference loop
(``tests/test_engine_diff.py``).  The run loop keeps the fold rule of
:class:`repro.core.engine.PredecodedEngine`:

* per-PC execution counts are always kept;
* a run is *observed* when a tracer kind is wanted or an ``on_execute``
  hook is installed.  An observed run advances the stats per step
  exactly where ``step()`` does, calls the hook after operand evaluation
  with ``cpu.pc`` at the fall-through PC, and emits RETIRE, MEM_REF,
  TRAP, CALL and RET with the reference's PCs and timestamps.  An
  unobserved run folds ``instructions``, ``inst_bytes``, ``by_mnemonic``
  and ``cycles`` when the loop exits: ``cycles`` is the sum of count
  times static cost, plus ``memory_cycles`` for each data reference the
  run made.  ``data_reads``/``data_writes`` are folded from the memory
  counters the same way (per step in an observed run).  A uarch probe
  alone leaves the run unobserved: each step appends its PC and the
  data-reference count so far to the retire stream.

Bytes that do not decode, bad specifiers and PCs outside the loaded code
segment run through ``cpu.step()`` for that one step — semantics by
construction.  Translations survive across ``run()`` calls (chunked
recording calls ``run()`` many times); a :attr:`Memory.write_watch` hook
and an inline range check on translated stores invalidate the ones a
store touches, and ``VaxCPU.load()``/``restore()`` drop them all, as
does a run that ends in a halt or a trap.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.vax.cpu import _Operand, _signed
from repro.baselines.vax.isa import AP, FP, SP, Decoded, decode
from repro.core.api import MMIO_BASE, MachineShell
from repro.machine.memory import MemoryError_
from repro.machine.traps import Trap, TrapKind

WORD = 0xFFFFFFFF
SIGN = 0x80000000

#: The longest encoding: an opcode and three specifiers of five bytes.
MAX_LENGTH = 16

#: entry mask -> the registers CALLS saves (r2..r11), in push order
_SAVED = {mask: tuple(r for r in range(2, 12) if mask >> r & 1) for mask in range(0x1000)}


def _bus_error(address: int, width: int, size: int) -> MemoryError_:
    """The trap :class:`~repro.machine.memory.Memory` raises out of range."""
    return MemoryError_(
        TrapKind.BUS_ERROR, f"access of {width} byte(s) at {address:#x} exceeds {size:#x}"
    )


def _not_memory():
    """The address of a register or immediate operand (``VaxCPU._address``)."""
    raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "address operand must reference memory")


@dataclasses.dataclass(eq=False)
class Translation:
    """What one PC translated to."""

    info: object  # the VaxOpcodeInfo
    cost: int  # base plus specifier cycles
    length: int
    fall: int  # the fall-through PC
    branch_disp: int | None
    #: applies the side-effecting specifiers; None when there are none
    pre: object
    #: executes the instruction once ``pre`` ran; returns the next PC
    body: object
    #: the evaluated operands, as ``on_execute`` receives them
    describe: object


class VaxEngine:
    """The fast executor bound to one :class:`~repro.baselines.vax.cpu.VaxCPU`.

    Built on the first fast ``run()`` after a ``load()`` or ``restore()``
    and kept until the next one, covering the loaded program's code
    segment.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        #: the stats object the closures update (``restore`` replaces the
        #: machine's, and drops this engine with it)
        self.stats = cpu.stats
        segments = cpu._program.segments
        code = [s for s in segments if s.name == "code"] or list(segments)
        self.code_lo = min(s.base for s in code)
        self.code_hi = min(max(s.end for s in code), cpu.memory.size)
        #: pc -> closure, or False to run that PC through ``cpu.step()``
        self.handlers: dict = {}
        self.translations: dict[int, Translation] = {}
        self.counts: dict[int, int] = {}
        #: set by :meth:`run`: observed runs keep the stats per step
        self.observed = False
        #: the PC a handler moved to before it faulted (RET)
        self.fault_pc: int | None = None
        cpu.memory.write_watch = self.note_write

    def close(self) -> None:
        """Drop every translation and detach from the memory."""
        self.handlers.clear()
        self.translations.clear()
        self.counts.clear()
        self.cpu.memory.write_watch = None

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

    def note_write(self, address: int, width: int = 4) -> None:
        """Drop the translations a store of ``width`` bytes overlaps."""
        if address < self.code_hi and address + width > self.code_lo:
            handlers = self.handlers
            translations = self.translations
            for pc in range(address - MAX_LENGTH + 1, address + width):
                if pc in handlers:
                    t = translations.get(pc)
                    if t is None or pc + t.length > address:
                        del handlers[pc]

    # -- translation -------------------------------------------------------

    def _translate(self, pc: int):
        """Translate the instruction at ``pc``; returns its handler."""
        if pc in self.translations:
            self._flush(pc)  # credit the executions of the old bytes
            del self.translations[pc]
            del self.counts[pc]
        handler = False
        if self.code_lo <= pc < self.code_hi:
            decoded = decode(self.cpu.memory._bytes, pc)
            if (
                decoded is not None
                and pc + decoded.length <= self.code_hi
                and all(spec.family != "bad" for spec in decoded.operands)
            ):
                t = self._make(pc, decoded)
                self.translations[pc] = t
                self.counts[pc] = 0
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

    def _make(self, pc: int, decoded: Decoded) -> Translation:
        cpu = self.cpu
        timing = cpu.timing
        info = decoded.info
        fall = pc + decoded.length
        specs = [spec for spec in decoded.operands if spec.family != "branch"]
        branch_disp = next(
            (spec.value for spec in decoded.operands if spec.family == "branch"), None
        )
        cost = timing.base_cycles[info.kind] + sum(
            timing.specifier_cycles[spec.family] for spec in specs
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
        return Translation(
            info, cost, decoded.length, fall, branch_disp, pre, body, describe
        )

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
        cpu = self.cpu
        stats = self.stats
        mem = cpu.memory._bytes
        mstats = cpu.memory.stats
        size = cpu.memory.size
        mask = (1 << (8 * width)) - 1
        code_lo, code_hi = self.code_lo, self.code_hi
        note_write = self.note_write
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

    def _stack(self):
        """``push(value)`` and ``pop()`` closures, as ``VaxCPU._push``/``_pop``."""
        regs = self.cpu.regs
        memory = self.cpu.memory
        mem = memory._bytes
        mstats = memory.stats
        size = memory.size
        code_lo, code_hi = self.code_lo, self.code_hi
        note_write = self.note_write

        def push(value):
            sp = regs[SP] = (regs[SP] - 4) & WORD
            if sp + 4 > size:
                raise _bus_error(sp, 4, size)
            mem[sp : sp + 4] = (value & WORD).to_bytes(4, "big")
            mstats.data_writes += 1
            if sp < code_hi and sp + 4 > code_lo:
                note_write(sp, 4)

        def pop():
            sp = regs[SP]
            if sp + 4 > size:
                raise _bus_error(sp, 4, size)
            mstats.data_reads += 1
            regs[SP] = (sp + 4) & WORD
            return int.from_bytes(mem[sp : sp + 4], "big")

        return push, pop

    def _body(self, m: str, specs, reads, writes, addresses, fall: int, branch_disp):
        """The closure that executes mnemonic ``m``; returns the next PC."""
        cpu = self.cpu
        regs = cpu.regs

        if branch_disp is not None:
            target = (fall + branch_disp) & WORD
            if m in ("brb", "brw"):
                return lambda: target
            if m == "beql":
                return lambda: target if cpu.z else fall
            if m == "bneq":
                return lambda: fall if cpu.z else target
            if m == "blss":
                return lambda: target if cpu.n else fall
            if m == "bgeq":
                return lambda: fall if cpu.n else target
            if m == "bleq":
                return lambda: target if cpu.n or cpu.z else fall
            if m == "bgtr":
                return lambda: fall if cpu.n or cpu.z else target
            if m == "blssu":
                return lambda: target if cpu.c else fall
            if m == "bgequ":
                return lambda: fall if cpu.c else target
            if m == "blequ":
                return lambda: target if cpu.c or cpu.z else fall
            if m == "bgtru":
                return lambda: fall if cpu.c or cpu.z else target

        if m == "halt":
            def run():
                cpu._halt(_signed(regs[0]))
            return run

        if m == "jmp":
            return addresses[0]

        if m == "calls":
            return self._calls(reads[0], addresses[1], fall)

        if m == "ret":
            return self._ret(fall)

        if m == "pushl":
            push, _pop = self._stack()
            source = reads[0]

            def run():
                push(source())
                return fall
            return run

        # moves ---------------------------------------------------------------
        if m in ("movl", "movw", "movb", "movzbl", "movzwl", "cvtbl", "cvtwl", "moval"):
            source = addresses[0] if m == "moval" else reads[0]
            dest = writes[1]
            sign = {"movw": 0x8000, "movb": 0x80}.get(m, SIGN)
            extend = {"cvtbl": 0x80, "cvtwl": 0x8000}.get(m)  # the sign bit
            if extend is not None:
                def run():
                    value = ((source() ^ extend) - extend) & WORD
                    dest(value)
                    cpu.z = value == 0
                    cpu.n = value >= SIGN
                    return fall
            else:
                # the movz forms read exactly the source width: nothing to mask
                def run():
                    value = source()
                    dest(value)
                    cpu.z = value == 0
                    cpu.n = value & sign != 0
                    return fall
            return run

        if m == "clrl":
            dest = writes[0]

            def run():
                dest(0)
                cpu.n, cpu.z, cpu.v = False, True, False
                return fall
            return run

        # alu -----------------------------------------------------------------
        if m == "tstl":
            source = reads[0]

            def run():
                value = source()
                cpu.z = value == 0
                cpu.n = value >= SIGN
                cpu.v = cpu.c = False
                return fall
            return run

        if m in ("incl", "decl", "mnegl", "mcoml"):
            source = reads[0]
            dest = writes[0] if m in ("incl", "decl") else writes[1]
            op = {
                "incl": lambda x: x + 1,
                "decl": lambda x: x - 1,
                "mnegl": lambda x: -x,
                "mcoml": lambda x: ~x,
            }[m]

            def run():
                value = op(source()) & WORD
                dest(value)
                cpu.z = value == 0
                cpu.n = value >= SIGN
                return fall
            return run

        if m in ("cmpl", "cmpw", "cmpb"):
            first, second = reads
            sign = {"cmpl": SIGN, "cmpw": 0x8000, "cmpb": 0x80}[m]

            def run():
                a = first()
                b = second()
                cpu.z = a == b
                # flipping the sign bits turns the signed order unsigned
                cpu.n = a ^ sign < b ^ sign
                cpu.c = a < b  # both already within the operand width
                cpu.v = False
                return fall
            return run

        if m == "ashl":
            count_of, source, dest = reads[0], reads[1], writes[2]
            count = specs[0]
            if count.family in ("literal", "immediate") and not count.value & 0x80:
                amount = count.value & 31  # a constant left shift

                def run():
                    result = (source() << amount) & WORD
                    dest(result)
                    cpu.z = result == 0
                    cpu.n = result >= SIGN
                    return fall
                return run

            def run():
                count = _signed(count_of(), 8)
                value = source()
                # shift amounts are masked to 5 bits, as in VaxCPU._op_ashl
                if count >= 0:
                    result = (value << (count & 31)) & WORD
                else:
                    result = (((value ^ SIGN) - SIGN) >> ((-count) & 31)) & WORD
                dest(result)
                cpu.z = result == 0
                cpu.n = result >= SIGN
                return fall
            return run

        # two- and three-operand arithmetic: dst = second op first
        first, second = reads[0], reads[1]
        dest = writes[2] if m.endswith("3") else writes[1]
        kind = m[:-1]
        if kind == "addl":
            def run():
                a = first()
                b = second()
                result = (b + a) & WORD
                dest(result)
                cpu.z = result == 0
                cpu.n = result >= SIGN
                cpu.c = a + b > WORD
                cpu.v = bool(~(a ^ b) & (a ^ result) & SIGN)
                return fall
            return run

        if kind == "subl":
            def run():
                a = first()
                b = second()
                result = (b - a) & WORD
                dest(result)
                cpu.z = result == 0
                cpu.n = result >= SIGN
                cpu.c = b < a  # borrow
                cpu.v = bool((b ^ a) & (b ^ result) & SIGN)
                return fall
            return run

        if kind in ("bisl", "xorl", "andl", "mull", "divl"):
            if kind == "divl":
                def combine(b, a):
                    divisor, dividend = _signed(a), _signed(b)
                    if divisor == 0:
                        raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "integer divide by zero")
                    return int(dividend / divisor)  # C truncation toward zero
            else:
                combine = {
                    "bisl": int.__or__,
                    "xorl": int.__xor__,
                    "andl": int.__and__,
                    "mull": lambda b, a: _signed(b) * _signed(a),
                }[kind]

            def run():
                a = first()
                result = combine(second(), a) & WORD
                dest(result)
                cpu.z = result == 0
                cpu.n = result >= SIGN
                return fall
            return run

        raise AssertionError(f"no translation for {m}")  # every mnemonic has one

    # -- procedure linkage -------------------------------------------------

    def _calls(self, nargs_of, target_of, fall: int):
        cpu = self.cpu
        stats = self.stats
        regs = cpu.regs
        memory = cpu.memory
        mem = memory._bytes
        mstats = memory.stats
        size = memory.size
        push, _pop = self._stack()

        def run():
            nargs = nargs_of()
            target = target_of()
            if cpu._trace_flow:
                cpu.tracer.call(stats.cycles, fall, cpu._depth + 1, target)
            if target + 2 > size:
                raise _bus_error(target, 2, size)
            mask = int.from_bytes(mem[target : target + 2], "big")
            mstats.data_reads += 1
            sp_at_call = regs[SP]
            saved = _SAVED[mask & 0xFFF]
            push(nargs)  # arg count sits directly below the args
            for reg in saved:
                push(regs[reg])
            push(regs[AP])
            push(regs[FP])
            push(fall)  # return address
            push(mask)
            regs[FP] = regs[SP]
            regs[AP] = (sp_at_call - 4) & WORD  # the argcount slot
            stats.calls += 1
            depth = cpu._depth = cpu._depth + 1
            if depth > stats.max_call_depth:
                stats.max_call_depth = depth
            stats.call_linkage_refs += 6 + len(saved)
            return target + 2

        return run

    def _ret(self, fall: int):
        cpu = self.cpu
        stats = self.stats
        regs = cpu.regs
        _push, pop = self._stack()

        def run():
            if cpu._trace_flow:
                cpu.tracer.ret(stats.cycles, fall, cpu._depth - 1)
            regs[SP] = regs[FP]
            mask = pop()
            pc = pop()
            try:
                regs[FP] = pop()
                regs[AP] = pop()
                saved = _SAVED[mask & 0xFFF]
                for reg in reversed(saved):
                    regs[reg] = pop()
                nargs = pop()
            except MemoryError_:
                self.fault_pc = pc  # the reference has moved the PC already
                raise
            regs[SP] = (regs[SP] + 4 * nargs) & WORD
            stats.returns += 1
            cpu._depth -= 1
            stats.call_linkage_refs += 5 + len(saved)
            return pc

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

    def run(self, limit: int) -> None:
        """Execute up to ``limit`` steps; raises on halt or trap.

        Returns normally only when the step budget ran out — the CPU's
        ``run()`` wrapper turns that into :class:`StepLimitExceeded`.
        """
        cpu = self.cpu
        mstats = cpu.memory.stats
        observed = self.observed = (
            cpu._trace_retire
            or cpu._trace_mem
            or cpu._trace_flow
            or cpu._trace_trap
            or cpu.on_execute is not None
        )
        observed_step = self._observed_step
        lookup = self.handlers.get
        translate = self._translate
        counts = self.counts
        sink = cpu._sink
        record, batch = None, limit
        if sink is not None:  # a measured run: see repro.uarch.sink
            record, batch = sink.buf.append, sink.chunk
            self.handlers.clear()  # retranslated, so described, as they run
        pc = cpu.pc
        # data references made inside cpu.step(), which counts its own
        step_reads = step_writes = 0
        reads_at_start, writes_at_start = mstats.data_reads, mstats.data_writes
        try:
            while limit > 0:
                steps = min(limit, batch)
                limit -= steps
                for _ in range(steps):
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
                        pc = next_pc
                if sink is not None:
                    sink.drain()
        finally:
            cpu.pc = pc
            for counted in counts:
                self._flush(counted)
            if not observed:
                stats = self.stats
                reads = mstats.data_reads - reads_at_start - step_reads
                writes = mstats.data_writes - writes_at_start - step_writes
                stats.data_reads += reads
                stats.data_writes += writes
                stats.cycles += (reads + writes) * cpu.timing.memory_cycles
