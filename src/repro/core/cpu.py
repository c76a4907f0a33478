"""The RISC I cycle-level simulator.

Implements the full ISA semantics: single-cycle register operations,
two-cycle loads/stores, delayed jumps (the instruction after any control
transfer always executes), register-window rotation on CALL/RETURN, and
transparent window overflow/underflow handling with its memory traffic and
handler cycles charged exactly as the paper's evaluation requires.

Software conventions (used by the assembler runtime and the compiler):

* ``r1`` is the memory stack pointer (grows down);
* arguments go in the caller's LOW registers ``r10..r14`` and arrive in the
  callee's HIGH registers ``r26..r30``;
* the return address is written by ``call r31, target`` into the callee's
  ``r31`` (physically the caller's ``r15``), and ``ret r31, 8`` returns past
  the call and its delay slot;
* the return value travels back in the shared register pair
  callee-``r26`` / caller-``r10``.

I/O and program exit use the memory-mapped stores of :mod:`repro.core.api`
(``MMIO_PUTCHAR``, ``MMIO_PUTINT``, ``MMIO_HALT``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.isa.conditions import Cond, ConditionCodes, cond_holds
from repro.isa.encoding import Instruction, decode
from repro.isa.opcodes import Opcode
from repro.core.api import MMIO_BASE, MachineHalted, MachineShell, to_signed
from repro.core.api import MMIO_HALT, MMIO_PUTCHAR, MMIO_PUTINT  # noqa: F401 - re-exported
from repro.core.program import Program
from repro.core.stats import ExecutionStats
from repro.core.timing import RiscTiming
from repro.machine.memory import Memory
from repro.machine.psw import PSW
from repro.machine.regfile import RegisterFile
from repro.machine.traps import Trap, TrapKind

WORD = 0xFFFFFFFF
SIGN = 0x80000000

#: Stack-pointer register (software convention).
SP = 1
#: Return-address register as seen by the callee.
RA = 31

_decode = lru_cache(maxsize=1 << 16)(decode)


class CPU(MachineShell):
    """A RISC I processor attached to a memory.

    Implements the unified :class:`repro.core.api.Machine` protocol
    through :class:`~repro.core.api.MachineShell`;
    ``tracer``/``metrics`` opt into the observability layer and cost one
    pre-resolved boolean test per potential event when left off.
    """

    #: machine tag used in unified result payloads
    name = "risc1"

    def __init__(
        self,
        memory_size: int = 1 << 20,
        num_windows: int = 8,
        timing: RiscTiming | None = None,
        spill_batch: int = 1,
        tracer=None,
        metrics=None,
    ):
        super().__init__(Memory(memory_size), ExecutionStats(), tracer, metrics)
        self.regs = RegisterFile(num_windows, spill_batch=spill_batch)
        self.psw = PSW()
        self.timing = timing or RiscTiming()
        self.npc = 4
        self._last_pc = 0
        #: Register-save stack for window spills (grows down from the top
        #: of memory; the ordinary data stack starts just below it).
        self._save_base = memory_size
        self._save_sp = self._save_base
        self._stack_top = memory_size - (64 << 10)
        #: deferred window rotation: CALL/RETURN change the window only
        #: *after* their delay slot, so the slot executes in the old
        #: window — which is what lets the compiler fill call slots with
        #: argument moves and return slots with the result move.
        self._pending: tuple | None = None
        #: latched external interrupt request (handler address), delivered
        #: at the next restartable instruction boundary.
        self._interrupt_request: int | None = None
        self.interrupts_taken = 0
        #: Optional per-instruction hook ``fn(pc, instruction)``.
        self.on_execute: Callable[[int, Instruction], None] | None = None

    # -- program loading ---------------------------------------------------

    def load(self, program: Program) -> None:
        """Load a program image and reset execution state."""
        super().load(program)
        self.npc = program.entry + 4
        self.regs.write(SP, self._stack_top)

    # -- execution ----------------------------------------------------------

    def _run_steps(self, limit: int, engine: str) -> None:
        """``"fast"`` is the predecoded engine of :mod:`repro.core.engine`;
        ``"reference"`` the plain ``step()`` loop."""
        if engine == "fast" and self._program is not None:
            from repro.core.engine import PredecodedEngine

            PredecodedEngine(self).run(limit)
        else:
            for _ in range(limit):
                self.step()

    def raise_interrupt(self, vector: int) -> None:
        """Latch an external interrupt request.

        Delivery happens before the next instruction that is at a
        *restartable* boundary: interrupts are enabled, no window rotation
        is pending, and the processor is not in a delayed-jump shadow (so
        the saved PC alone restarts execution — the hardware's GTLPC path
        for shadow interrupts is not needed by this model).
        """
        self._interrupt_request = vector

    def _deliver_interrupt(self) -> None:
        vector = self._interrupt_request
        self._interrupt_request = None
        # hardware-forced CALLINT: rotate into a fresh window, save the
        # interrupted PC in the new window's r26, and disable interrupts
        self._enter_frame(26, self.pc, vector)
        self.psw.interrupts_enabled = False
        self.interrupts_taken += 1
        self.pc = vector
        self.npc = vector + 4

    def step(self) -> None:
        """Fetch, decode and execute a single instruction."""
        if (
            self._interrupt_request is not None
            and self.psw.interrupts_enabled
            and self._pending is None
            and self.npc == self.pc + 4  # not in a delayed-jump shadow
        ):
            self._deliver_interrupt()
        pending = self._pending
        self._pending = None
        pc = self.pc
        word = self.memory.fetch_word(pc)
        inst = _decode(word)
        if self._sink is not None:
            self._sink.retire(pc, word, inst)
        if self.on_execute is not None:
            self.on_execute(pc, inst)
        next_npc = self.npc + 4
        try:
            target = self._execute(inst, pc)
        except MachineHalted:
            # account the halting store itself before unwinding
            self.stats.record(inst.opcode, self.timing.instruction_cycles(inst.opcode))
            if self._trace_retire:
                self.tracer.retire(
                    self.stats.cycles, pc, inst.opcode.name,
                    self.timing.instruction_cycles(inst.opcode),
                )
            raise
        except Trap as trap:
            if self._trace_trap:
                self.tracer.trap(self.stats.cycles, pc, trap.kind.name, trap.detail)
            raise
        if pending is not None:
            if self._pending is not None:
                raise Trap(
                    TrapKind.ILLEGAL_INSTRUCTION,
                    "control transfer in a CALL/RETURN delay slot",
                    pc=pc,
                )
            self._apply_window_change(pending)
        if target is not None:
            next_npc = target
        self._last_pc = pc
        self.pc, self.npc = self.npc, next_npc
        self.stats.record(inst.opcode, self.timing.instruction_cycles(inst.opcode))
        if self._trace_retire:
            self.tracer.retire(
                self.stats.cycles, pc, inst.opcode.name, self.timing.instruction_cycles(inst.opcode)
            )

    # -- instruction semantics ----------------------------------------------

    def _execute(self, inst: Instruction, pc: int) -> int | None:
        """Execute ``inst``; return the delayed-jump target if any."""
        op = inst.opcode
        handler = _DISPATCH.get(op)
        if handler is None:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, str(op), pc=pc)
        return handler(self, inst, pc)

    def _s2_value(self, inst: Instruction) -> int:
        """Second operand: immediate or register, as a 32-bit pattern."""
        if inst.imm:
            return inst.s2 & WORD
        return self.regs.read(inst.s2)

    def _set_cc(self, inst: Instruction, result: int, carry: bool, overflow: bool) -> None:
        if inst.scc:
            self.psw.cc = ConditionCodes.from_result(result, carry, overflow)

    # arithmetic ---------------------------------------------------------

    def _alu_add(self, inst: Instruction, pc: int, with_carry: bool = False) -> None:
        a = self.regs.read(inst.rs1)
        b = self._s2_value(inst)
        carry_in = 1 if (with_carry and self.psw.cc.c) else 0
        raw = a + b + carry_in
        result = raw & WORD
        carry = raw > WORD
        overflow = bool(~(a ^ b) & (a ^ result) & SIGN)
        self.regs.write(inst.dest, result)
        self._set_cc(inst, result, carry, overflow)

    def _alu_sub(
        self, inst: Instruction, pc: int, with_carry: bool = False, reverse: bool = False
    ) -> None:
        a = self.regs.read(inst.rs1)
        b = self._s2_value(inst)
        if reverse:
            a, b = b, a
        borrow_in = 0 if (not with_carry or self.psw.cc.c) else 1
        raw = a - b - borrow_in
        result = raw & WORD
        carry = raw >= 0  # carry means "no borrow", the RISC convention
        overflow = bool((a ^ b) & (a ^ result) & SIGN)
        self.regs.write(inst.dest, result)
        self._set_cc(inst, result, carry, overflow)

    def _alu_logic(self, inst: Instruction, pc: int, fn: Callable[[int, int], int]) -> None:
        result = fn(self.regs.read(inst.rs1), self._s2_value(inst)) & WORD
        self.regs.write(inst.dest, result)
        self._set_cc(inst, result, carry=False, overflow=False)

    def _alu_shift(self, inst: Instruction, pc: int, kind: str) -> None:
        value = self.regs.read(inst.rs1)
        amount = self._s2_value(inst) & 31
        if kind == "sll":
            result = (value << amount) & WORD
        elif kind == "srl":
            result = value >> amount
        else:  # sra
            result = (to_signed(value) >> amount) & WORD
        self.regs.write(inst.dest, result)
        self._set_cc(inst, result, carry=False, overflow=False)

    # memory -------------------------------------------------------------

    _LOAD_SPEC = {
        Opcode.LDL: (4, False),
        Opcode.LDSU: (2, False),
        Opcode.LDSS: (2, True),
        Opcode.LDBU: (1, False),
        Opcode.LDBS: (1, True),
    }
    _STORE_SPEC = {Opcode.STL: 4, Opcode.STS: 2, Opcode.STB: 1}

    def _load(self, inst: Instruction, pc: int) -> None:
        width, signed = self._LOAD_SPEC[inst.opcode]
        address = (self.regs.read(inst.rs1) + self._s2_value(inst)) & WORD
        try:
            value = self.memory.read(address, width, signed=signed)
        except Trap as trap:
            trap.pc = pc
            raise
        if self._trace_mem:
            self.tracer.mem_ref(self.stats.cycles, pc, address, "r", width)
        self.regs.write(inst.dest, value & WORD)

    def _store(self, inst: Instruction, pc: int) -> None:
        width = self._STORE_SPEC[inst.opcode]
        address = (self.regs.read(inst.rs1) + self._s2_value(inst)) & WORD
        value = self.regs.read(inst.dest)
        if address >= MMIO_BASE:
            self._mmio_store(address, value, width, pc)
            return
        try:
            self.memory.write(address, value, width)
        except Trap as trap:
            trap.pc = pc
            raise
        if self._trace_mem:
            self.tracer.mem_ref(self.stats.cycles, pc, address, "w", width)

    # control ---------------------------------------------------------------

    def _jmp(self, inst: Instruction, pc: int) -> int | None:
        target = (self.regs.read(inst.rs1) + self._s2_value(inst)) & WORD
        return self._conditional(inst.cond, target)

    def _jmpr(self, inst: Instruction, pc: int) -> int | None:
        return self._conditional(inst.cond, (pc + inst.y) & WORD)

    def _conditional(self, cond: Cond, target: int) -> int | None:
        if cond_holds(cond, self.psw.cc):
            self.stats.taken_jumps += 1
            return target
        self.stats.untaken_jumps += 1
        return None

    def _call(self, inst: Instruction, pc: int) -> int:
        target = (self.regs.read(inst.rs1) + self._s2_value(inst)) & WORD
        self._pending = ("call", inst.dest, pc)
        return target

    def _callr(self, inst: Instruction, pc: int) -> int:
        target = (pc + inst.y) & WORD
        self._pending = ("call", inst.dest, pc)
        return target

    def _apply_window_change(self, pending: tuple) -> None:
        kind, dest, pc = pending
        if kind == "call":
            # the window change lands during the delay-slot step, when
            # self.npc already holds the call's destination address
            self._enter_frame(dest, pc, self.npc)
        else:
            self._leave_frame()

    def _enter_frame(self, dest: int, pc: int, target: int = 0) -> None:
        if self._trace_flow:
            # emitted before any spill so a CALL that overflows traces as
            # CALL -> WINDOW_OVERFLOW, matching the machine's causality
            self.tracer.call(self.stats.cycles, pc, self.regs.depth + 1, target)
        spills = self.regs.call_advance()
        if spills:
            self._spill_windows(spills)
        self.regs.write(dest, pc)
        self.stats.calls += 1
        self.stats.max_call_depth = max(self.stats.max_call_depth, self.regs.depth)
        self.psw.cwp = self.regs.cwp
        if self._sink is not None:
            self._sink.note_window()

    def _ret(self, inst: Instruction, pc: int) -> int:
        target = (self.regs.read(inst.rs1) + self._s2_value(inst)) & WORD
        self._pending = ("ret", 0, pc)
        return target

    def _leave_frame(self) -> None:
        if self._trace_flow:
            self.tracer.ret(self.stats.cycles, self.pc, self.regs.depth - 1)
        fill = self.regs.ret_retreat()
        if fill is not None:
            self._fill_window(fill)
        self.stats.returns += 1
        self.psw.cwp = self.regs.cwp
        if self._sink is not None:
            self._sink.note_window()

    def _spill_windows(self, windows: list[int]) -> None:
        """One overflow trap saving one or more windows (oldest first)."""
        for window in windows:
            for slot in self.regs.window_slots(window):
                self._save_sp -= 4
                self.memory.write(self._save_sp, self.regs.read_physical(slot), 4)
        self.stats.window_overflows += 1
        registers = self.timing.window_registers * len(windows)
        cycles = self.timing.trap_entry_cycles + registers * self.timing.memory_op_cycles
        if self._trace_window:
            self.tracer.window_overflow(
                self.stats.cycles, len(windows), self.regs.depth, cycles
            )
        self.stats.spilled_registers += registers
        self.stats.cycles += cycles
        self.stats.overflow_cycles += cycles

    def _fill_window(self, window: int) -> None:
        for slot in reversed(self.regs.window_slots(window)):
            self.regs.write_physical(slot, self.memory.read(self._save_sp, 4))
            self._save_sp += 4
        self.regs.note_fill()
        self.stats.window_underflows += 1
        if self._trace_window:
            self.tracer.window_underflow(
                self.stats.cycles, self.regs.depth, self.timing.underflow_handler_cycles
            )
        self.stats.filled_registers += self.timing.window_registers
        self.stats.cycles += self.timing.underflow_handler_cycles
        self.stats.overflow_cycles += self.timing.underflow_handler_cycles

    def _callint(self, inst: Instruction, pc: int) -> None:
        self.psw.interrupts_enabled = False
        self._enter_frame(inst.dest, self._last_pc, self.npc)

    def _retint(self, inst: Instruction, pc: int) -> int:
        self.psw.interrupts_enabled = True
        return self._ret(inst, pc)

    # miscellaneous -----------------------------------------------------------

    def _ldhi(self, inst: Instruction, pc: int) -> None:
        self.regs.write(inst.dest, (inst.y & 0x7FFFF) << 13)

    def _gtlpc(self, inst: Instruction, pc: int) -> None:
        self.regs.write(inst.dest, self._last_pc)

    def _getpsw(self, inst: Instruction, pc: int) -> None:
        self.psw.cwp = self.regs.cwp
        self.regs.write(inst.dest, self.psw.pack())

    def _putpsw(self, inst: Instruction, pc: int) -> None:
        word = self.regs.read(inst.dest)
        # The CWP field is not writable state here: the real window pointer
        # lives in the register file and only CALL/RETURN rotate it.  A
        # PUTPSW whose CWP bits disagree with the actual pointer would
        # silently desynchronize the PSW (GETPSW used to mask this by
        # re-syncing first), so it traps instead of being half-applied.
        if (word >> 8) & 0xF != self.regs.cwp & 0xF:
            raise Trap(
                TrapKind.ILLEGAL_INSTRUCTION,
                f"PUTPSW CWP {(word >> 8) & 0xF} does not match "
                f"the current window {self.regs.cwp & 0xF}",
                pc=pc,
            )
        self.psw.unpack(word)

    # -- snapshot / restore ------------------------------------------------

    def _snapshot_state(self) -> dict:
        return {
            "npc": self.npc,
            "last_pc": self._last_pc,
            "pending": list(self._pending) if self._pending is not None else None,
            "interrupt_request": self._interrupt_request,
            "interrupts_taken": self.interrupts_taken,
            "save_sp": self._save_sp,
            "regs": {
                "num_windows": self.regs.num_windows,
                "spill_batch": self.regs.spill_batch,
                "data": list(self.regs._regs),
                "cwp": self.regs.cwp,
                "resident": self.regs.resident,
                "depth": self.regs.depth,
                "overflows": self.regs.overflows,
                "underflows": self.regs.underflows,
                "calls": self.regs.calls,
                "returns": self.regs.returns,
            },
            "psw": self.psw.pack(),
        }

    def _restore_state(self, state: dict) -> None:
        regs = state["regs"]
        if regs["num_windows"] != self.regs.num_windows:
            raise ValueError(
                f"snapshot has {regs['num_windows']} windows, "
                f"this CPU has {self.regs.num_windows}"
            )
        self.npc = state["npc"]
        self._last_pc = state["last_pc"]
        pending = state["pending"]
        self._pending = tuple(pending) if pending is not None else None
        self._interrupt_request = state["interrupt_request"]
        self.interrupts_taken = state["interrupts_taken"]
        self._save_sp = state["save_sp"]
        self.regs._regs[:] = regs["data"]
        self.regs.spill_batch = regs["spill_batch"]
        self.regs.cwp = regs["cwp"]
        self.regs.resident = regs["resident"]
        self.regs.depth = regs["depth"]
        self.regs.overflows = regs["overflows"]
        self.regs.underflows = regs["underflows"]
        self.regs.calls = regs["calls"]
        self.regs.returns = regs["returns"]
        self.psw.unpack(state["psw"])

    # -- bookkeeping -----------------------------------------------------------

    def _sync_memory_stats(self) -> None:
        self.stats.data_reads = self.memory.stats.data_reads
        self.stats.data_writes = self.memory.stats.data_writes
        self.stats.window_overflows = self.regs.overflows
        self.stats.window_underflows = self.regs.underflows


def _make_dispatch() -> dict[Opcode, Callable[[CPU, Instruction, int], int | None]]:
    import operator

    table: dict[Opcode, Callable[[CPU, Instruction, int], int | None]] = {
        Opcode.ADD: lambda cpu, i, pc: cpu._alu_add(i, pc),
        Opcode.ADDC: lambda cpu, i, pc: cpu._alu_add(i, pc, with_carry=True),
        Opcode.SUB: lambda cpu, i, pc: cpu._alu_sub(i, pc),
        Opcode.SUBC: lambda cpu, i, pc: cpu._alu_sub(i, pc, with_carry=True),
        Opcode.SUBR: lambda cpu, i, pc: cpu._alu_sub(i, pc, reverse=True),
        Opcode.SUBCR: lambda cpu, i, pc: cpu._alu_sub(i, pc, with_carry=True, reverse=True),
        Opcode.AND: lambda cpu, i, pc: cpu._alu_logic(i, pc, operator.and_),
        Opcode.OR: lambda cpu, i, pc: cpu._alu_logic(i, pc, operator.or_),
        Opcode.XOR: lambda cpu, i, pc: cpu._alu_logic(i, pc, operator.xor),
        Opcode.SLL: lambda cpu, i, pc: cpu._alu_shift(i, pc, "sll"),
        Opcode.SRL: lambda cpu, i, pc: cpu._alu_shift(i, pc, "srl"),
        Opcode.SRA: lambda cpu, i, pc: cpu._alu_shift(i, pc, "sra"),
        Opcode.JMP: CPU._jmp,
        Opcode.JMPR: CPU._jmpr,
        Opcode.CALL: CPU._call,
        Opcode.CALLR: CPU._callr,
        Opcode.RET: CPU._ret,
        Opcode.CALLINT: lambda cpu, i, pc: cpu._callint(i, pc),
        Opcode.RETINT: CPU._retint,
        Opcode.LDHI: lambda cpu, i, pc: cpu._ldhi(i, pc),
        Opcode.GTLPC: lambda cpu, i, pc: cpu._gtlpc(i, pc),
        Opcode.GETPSW: lambda cpu, i, pc: cpu._getpsw(i, pc),
        Opcode.PUTPSW: lambda cpu, i, pc: cpu._putpsw(i, pc),
    }
    for opcode in CPU._LOAD_SPEC:
        table[opcode] = lambda cpu, i, pc: cpu._load(i, pc)
    for opcode in CPU._STORE_SPEC:
        table[opcode] = lambda cpu, i, pc: cpu._store(i, pc)
    return table


_DISPATCH = _make_dispatch()
