"""Simulator for the VAX-like baseline, with the microcoded cost model.

Executes programs produced by :func:`repro.baselines.vax.assembler.assemble_vax`,
charging cycles per the :class:`repro.baselines.vax.timing.VaxTiming` model
and counting real memory traffic — including every stack reference made by
the CALLS/RET procedure linkage, which is the quantity the paper's
register-window comparison cares about.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.baselines.vax.isa import (
    AP,
    BRANCH_CONDITIONS,
    BY_OPCODE,
    DISP_SIZES,
    FP,
    Mode,
    PC,
    SP,
    VaxOpcodeInfo,
)
from repro.baselines.vax.timing import VaxTiming
from repro.core.api import MMIO_BASE, MachineShell, register_stats_type
from repro.core.program import Program
from repro.machine.memory import Memory
from repro.machine.traps import Trap, TrapKind

WORD = 0xFFFFFFFF
SIGN = 0x80000000


def _signed(value: int, bits: int = 32) -> int:
    mask = (1 << bits) - 1
    value &= mask
    return value - (1 << bits) if value & (1 << (bits - 1)) else value


@dataclasses.dataclass
class VaxStats:
    """Execution counters for one VAX-like run."""

    instructions: int = 0
    cycles: int = 0
    by_mnemonic: Counter = dataclasses.field(default_factory=Counter)
    inst_bytes: int = 0
    data_reads: int = 0
    data_writes: int = 0
    calls: int = 0
    returns: int = 0
    call_linkage_refs: int = 0  # memory references made by CALLS/RET themselves
    max_call_depth: int = 1

    @property
    def data_references(self) -> int:
        return self.data_reads + self.data_writes

    def summary(self) -> str:
        lines = [
            f"instructions executed : {self.instructions}",
            f"cycles                : {self.cycles}",
            f"CPI                   : {self.cycles / self.instructions:.3f}"
            if self.instructions
            else "CPI                   : n/a",
            f"instruction bytes     : {self.inst_bytes}",
            f"data memory refs      : {self.data_references}"
            f" ({self.data_reads} reads, {self.data_writes} writes)",
            f"calls / returns       : {self.calls} / {self.returns}",
            f"call linkage refs     : {self.call_linkage_refs}",
            f"max call depth        : {self.max_call_depth}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name != "by_mnemonic"
        }
        payload["by_mnemonic"] = dict(self.by_mnemonic)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "VaxStats":
        data = dict(payload)
        data["by_mnemonic"] = Counter(data.get("by_mnemonic", {}))
        return cls(**data)


register_stats_type("cisc", VaxStats)


@dataclasses.dataclass
class _Operand:
    kind: str  # "reg", "mem", "imm"
    value: int  # register number, address, or immediate value


class VaxCPU(MachineShell):
    """The VAX-like processor attached to a memory.

    Implements the unified :class:`repro.core.api.Machine` protocol
    through :class:`~repro.core.api.MachineShell`, the same surface as
    the RISC I :class:`~repro.core.cpu.CPU`.
    """

    #: machine tag used in unified result payloads
    name = "cisc"

    def __init__(
        self,
        memory_size: int = 1 << 20,
        timing: VaxTiming | None = None,
        tracer=None,
        metrics=None,
    ):
        # real VAX permits unaligned operands, so no alignment trap here
        memory = Memory(memory_size, check_alignment=False)
        super().__init__(memory, VaxStats(), tracer, metrics)
        self.regs = [0] * 16
        self.timing = timing or VaxTiming()
        self.n = self.z = self.v = self.c = False
        self._depth = 1
        self._stack_top = memory_size - 16
        #: Optional per-instruction hook ``fn(pc, info, operands,
        #: branch_disp)``, fired after operand evaluation and before
        #: execution, with ``pc`` at the fall-through — identically on
        #: both engines.
        self.on_execute = None

    def load(self, program: Program) -> None:
        super().load(program)
        self.regs[SP] = self._stack_top
        self.regs[FP] = self._stack_top
        self.regs[AP] = self._stack_top

    # -- execution --------------------------------------------------------------

    def _make_engine(self):
        """The translating engine of :mod:`repro.baselines.vax.engine`."""
        from repro.baselines.vax.engine import VaxEngine

        return VaxEngine(self)

    def step(self) -> None:
        pc = self.pc
        try:
            opcode = self._fetch(1)
            info = BY_OPCODE.get(opcode)
            if info is None:
                raise Trap(TrapKind.ILLEGAL_INSTRUCTION, f"opcode {opcode:#04x}")
            cycles = self.timing.base_cycles[info.kind]
            operands = []
            branch_disp: int | None = None
            for spec in info.operands:
                if spec.access == "b":
                    branch_disp = _signed(self._fetch(2), 16)
                else:
                    operand, family = self._operand(spec.width)
                    cycles += self.timing.specifier_cycles[family]
                    operands.append(operand)
        except Trap as trap:
            trap.pc = pc
            raise
        if self.on_execute is not None:
            self.on_execute(pc, info, operands, branch_disp)
        if self._sink is not None:
            self._sink.retire(pc, self.pc)
        reads_before = self.memory.stats.data_reads
        writes_before = self.memory.stats.data_writes
        try:
            self._execute(info, operands, branch_disp)
        except Trap as trap:
            trap.pc = pc
            if self._trace_trap:
                self.tracer.trap(self.stats.cycles, pc, trap.kind.name, trap.detail)
            raise
        finally:
            refs = (
                self.memory.stats.data_reads
                - reads_before
                + self.memory.stats.data_writes
                - writes_before
            )
            cycles += refs * self.timing.memory_cycles
            self.stats.cycles += cycles
            self.stats.instructions += 1
            self.stats.by_mnemonic[info.mnemonic] += 1
            if self._trace_retire:
                self.tracer.retire(self.stats.cycles, pc, info.mnemonic, cycles)

    # -- snapshot / restore ------------------------------------------------------

    def _snapshot_state(self) -> dict:
        return {
            "depth": self._depth,
            "regs": list(self.regs),
            "flags": [self.n, self.z, self.v, self.c],
        }

    def _restore_state(self, state: dict) -> None:
        self._depth = state["depth"]
        self.regs[:] = state["regs"]
        self.n, self.z, self.v, self.c = state["flags"]

    # -- instruction stream ------------------------------------------------------

    def _fetch(self, width: int) -> int:
        value = int.from_bytes(self.memory.dump(self.pc, width), "big")
        self.pc += width
        self.stats.inst_bytes += width
        return value

    def _operand(self, width: int) -> tuple[_Operand, str]:
        """Fetch one operand specifier and evaluate it.

        Returns the operand and its addressing-mode family (for the
        timing model).  Autoincrement and autodecrement modify their
        register here, mid-parse, in specifier order.
        """
        regs = self.regs
        spec = self._fetch(1)
        if spec < 0x40:
            return _Operand("imm", spec), "literal"
        mode = spec >> 4
        reg = spec & 0xF
        if reg == PC and mode != Mode.AUTOINC and mode != Mode.ABSOLUTE:
            # the PC is no general register: only immediate and absolute name it
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, f"operand specifier {spec:#04x}")
        if mode == Mode.REGISTER:
            return _Operand("reg", reg), "register"
        if mode == Mode.DEFERRED:
            return _Operand("mem", regs[reg]), "deferred"
        if mode == Mode.AUTODEC:
            regs[reg] = (regs[reg] - width) & WORD
            return _Operand("mem", regs[reg]), "autodec"
        if mode == Mode.AUTOINC:
            if reg == 15:  # immediate
                return _Operand("imm", self._fetch(width)), "immediate"
            address = regs[reg]
            regs[reg] = (address + width) & WORD
            return _Operand("mem", address), "autoinc"
        if mode == Mode.ABSOLUTE and reg == 15:
            return _Operand("mem", self._fetch(4)), "absolute"
        if mode in DISP_SIZES:
            size = DISP_SIZES[mode]
            disp = _signed(self._fetch(size), size * 8)
            return _Operand("mem", (regs[reg] + disp) & WORD), "disp"
        raise Trap(TrapKind.ILLEGAL_INSTRUCTION, f"operand specifier {spec:#04x}")

    # -- operand access -----------------------------------------------------------

    def _read(self, operand: _Operand, width: int, signed: bool = False) -> int:
        if operand.kind == "imm":
            value = operand.value
        elif operand.kind == "reg":
            value = self.regs[operand.value] & ((1 << (8 * width)) - 1)
        else:
            value = self.memory.read(operand.value, width)
            self.stats.data_reads += 1
            if self._trace_mem:
                self.tracer.mem_ref(self.stats.cycles, self.pc, operand.value, "r", width)
        if signed:
            value = _signed(value, width * 8) & WORD
        return value & WORD if width == 4 else value

    def _write(self, operand: _Operand, value: int, width: int) -> None:
        if operand.kind == "imm":
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "write to immediate operand")
        if operand.kind == "reg":
            if width == 4:
                self.regs[operand.value] = value & WORD
            else:
                mask = (1 << (8 * width)) - 1
                self.regs[operand.value] = (self.regs[operand.value] & ~mask & WORD) | (
                    value & mask
                )
            return
        address = operand.value
        if address >= MMIO_BASE:
            self._mmio_store(address, value, width)
            return
        self.memory.write(address, value, width)
        self.stats.data_writes += 1
        if self._trace_mem:
            self.tracer.mem_ref(self.stats.cycles, self.pc, address, "w", width)

    def _mmio_store(self, address: int, value: int, width: int = 4) -> None:
        self.stats.data_writes += 1  # VAX stats count stores directly
        super()._mmio_store(address, value, width, self.pc)

    def _address(self, operand: _Operand) -> int:
        if operand.kind != "mem":
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "address operand must reference memory")
        return operand.value

    # -- flags ----------------------------------------------------------------------

    def _set_nz(self, result: int, width: int = 4) -> None:
        result &= (1 << (8 * width)) - 1
        self.z = result == 0
        self.n = bool(result & (1 << (8 * width - 1)))

    # -- stack helpers -----------------------------------------------------------------

    def _push(self, value: int) -> None:
        self.regs[SP] = (self.regs[SP] - 4) & WORD
        self.memory.write(self.regs[SP], value & WORD, 4)
        self.stats.data_writes += 1

    def _pop(self) -> int:
        value = self.memory.read(self.regs[SP], 4)
        self.stats.data_reads += 1
        self.regs[SP] = (self.regs[SP] + 4) & WORD
        return value

    # -- execution of each instruction ---------------------------------------------------

    def _execute(
        self, info: VaxOpcodeInfo, ops: list[_Operand], branch_disp: int | None
    ) -> None:
        m = info.mnemonic
        if m == "halt":
            self._halt(_signed(self.regs[0]))
        if m in BRANCH_CONDITIONS:
            assert branch_disp is not None
            if BRANCH_CONDITIONS[m](self.n, self.z, self.v, self.c):
                self.pc = (self.pc + branch_disp) & WORD
            return
        if m == "jmp":
            self.pc = self._address(ops[0])
            return
        if m == "calls":
            self._calls(ops)
            return
        if m == "ret":
            self._ret()
            return
        handler = getattr(self, f"_op_{m}", None)
        if handler is None:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, m)
        handler(ops, info)

    # moves -------------------------------------------------------------------------

    def _op_movl(self, ops, info):
        value = self._read(ops[0], 4)
        self._write(ops[1], value, 4)
        self._set_nz(value)

    def _op_movw(self, ops, info):
        value = self._read(ops[0], 2)
        self._write(ops[1], value, 2)
        self._set_nz(value, 2)

    def _op_movb(self, ops, info):
        value = self._read(ops[0], 1)
        self._write(ops[1], value, 1)
        self._set_nz(value, 1)

    def _op_movzbl(self, ops, info):
        value = self._read(ops[0], 1) & 0xFF
        self._write(ops[1], value, 4)
        self._set_nz(value)

    def _op_cvtbl(self, ops, info):
        value = _signed(self._read(ops[0], 1), 8) & WORD
        self._write(ops[1], value, 4)
        self._set_nz(value)

    def _op_movzwl(self, ops, info):
        value = self._read(ops[0], 2) & 0xFFFF
        self._write(ops[1], value, 4)
        self._set_nz(value)

    def _op_cvtwl(self, ops, info):
        value = _signed(self._read(ops[0], 2), 16) & WORD
        self._write(ops[1], value, 4)
        self._set_nz(value)

    def _op_moval(self, ops, info):
        address = self._address(ops[0])
        self._write(ops[1], address, 4)
        self._set_nz(address)

    def _op_pushl(self, ops, info):
        self._push(self._read(ops[0], 4))

    def _op_clrl(self, ops, info):
        self._write(ops[0], 0, 4)
        self.n, self.z, self.v = False, True, False

    # alu ----------------------------------------------------------------------------

    def _op_tstl(self, ops, info):
        self._set_nz(self._read(ops[0], 4))
        self.v = self.c = False

    def _op_incl(self, ops, info):
        value = (self._read(ops[0], 4) + 1) & WORD
        self._write(ops[0], value, 4)
        self._set_nz(value)

    def _op_decl(self, ops, info):
        value = (self._read(ops[0], 4) - 1) & WORD
        self._write(ops[0], value, 4)
        self._set_nz(value)

    def _op_mnegl(self, ops, info):
        value = (-self._read(ops[0], 4)) & WORD
        self._write(ops[1], value, 4)
        self._set_nz(value)

    def _op_mcoml(self, ops, info):
        value = (~self._read(ops[0], 4)) & WORD
        self._write(ops[1], value, 4)
        self._set_nz(value)

    def _binary(self, ops, fn, three: bool):
        a = self._read(ops[0], 4)
        b = self._read(ops[1], 4)
        result = fn(b, a) & WORD  # two-operand form: dst = dst op src
        self._write(ops[2] if three else ops[1], result, 4)
        self._set_nz(result)
        return a, b, result

    def _op_addl2(self, ops, info):
        a, b, r = self._binary(ops, lambda x, y: x + y, three=False)
        self.c = a + b > WORD
        self.v = bool(~(a ^ b) & (a ^ r) & SIGN)

    def _op_addl3(self, ops, info):
        a, b, r = self._binary(ops, lambda x, y: x + y, three=True)
        self.c = a + b > WORD
        self.v = bool(~(a ^ b) & (a ^ r) & SIGN)

    def _op_subl2(self, ops, info):
        # SUBL2 sub, dif: dif = dif - sub
        a, b, r = self._binary(ops, lambda dif, sub: dif - sub, three=False)
        self.c = b < a  # borrow
        self.v = bool((b ^ a) & (b ^ r) & SIGN)

    def _op_subl3(self, ops, info):
        # SUBL3 sub, min, dif: dif = min - sub
        a, b, r = self._binary(ops, lambda minuend, sub: minuend - sub, three=True)
        self.c = b < a
        self.v = bool((b ^ a) & (b ^ r) & SIGN)

    def _op_mull2(self, ops, info):
        self._binary(ops, lambda x, y: _signed(x) * _signed(y), three=False)

    def _op_mull3(self, ops, info):
        self._binary(ops, lambda x, y: _signed(x) * _signed(y), three=True)

    def _divide(self, divisor: int, dividend: int) -> int:
        divisor_s, dividend_s = _signed(divisor), _signed(dividend)
        if divisor_s == 0:
            raise Trap(TrapKind.ILLEGAL_INSTRUCTION, "integer divide by zero")
        return int(dividend_s / divisor_s)  # C truncation toward zero

    def _op_divl2(self, ops, info):
        # DIVL2 divisor, quo: quo = quo / divisor
        self._binary(ops, lambda quo, divisor: self._divide(divisor, quo), three=False)

    def _op_divl3(self, ops, info):
        # DIVL3 divisor, dividend, quo
        self._binary(ops, lambda dividend, divisor: self._divide(divisor, dividend), three=True)

    def _op_bisl2(self, ops, info):
        self._binary(ops, lambda x, y: x | y, three=False)

    def _op_bisl3(self, ops, info):
        self._binary(ops, lambda x, y: x | y, three=True)

    def _op_xorl2(self, ops, info):
        self._binary(ops, lambda x, y: x ^ y, three=False)

    def _op_xorl3(self, ops, info):
        self._binary(ops, lambda x, y: x ^ y, three=True)

    def _op_andl2(self, ops, info):
        self._binary(ops, lambda x, y: x & y, three=False)

    def _op_andl3(self, ops, info):
        self._binary(ops, lambda x, y: x & y, three=True)

    def _op_ashl(self, ops, info):
        count = _signed(self._read(ops[0], 1), 8)
        value = self._read(ops[1], 4)
        # shift amounts are masked to 5 bits, matching the RISC I shifter,
        # so out-of-range C shifts behave identically on both targets
        if count >= 0:
            result = (value << (count & 31)) & WORD
        else:
            result = (_signed(value) >> ((-count) & 31)) & WORD
        self._write(ops[2], result, 4)
        self._set_nz(result)

    def _compare(self, a: int, b: int, width: int) -> None:
        a_s, b_s = _signed(a, width * 8), _signed(b, width * 8)
        self.z = a == b
        self.n = a_s < b_s
        self.c = (a & ((1 << (8 * width)) - 1)) < (b & ((1 << (8 * width)) - 1))
        self.v = False

    def _op_cmpl(self, ops, info):
        self._compare(self._read(ops[0], 4), self._read(ops[1], 4), 4)

    def _op_cmpw(self, ops, info):
        self._compare(self._read(ops[0], 2), self._read(ops[1], 2), 2)

    def _op_cmpb(self, ops, info):
        self._compare(self._read(ops[0], 1), self._read(ops[1], 1), 1)

    # procedure linkage -------------------------------------------------------------------

    @staticmethod
    def _mask_registers(mask: int) -> list[int]:
        return [reg for reg in range(2, 12) if mask & (1 << reg)]

    def _calls(self, ops: list[_Operand]) -> None:
        nargs = self._read(ops[0], 4)
        target = self._address(ops[1])
        if self._trace_flow:
            self.tracer.call(self.stats.cycles, self.pc, self._depth + 1, target)
        refs_before = self.stats.data_references
        mask = self.memory.read(target, 2)
        self.stats.data_reads += 1
        sp_at_call = self.regs[SP]
        self._push(nargs)  # arg count sits directly below the args
        for reg in self._mask_registers(mask):
            self._push(self.regs[reg])
        self._push(self.regs[AP])
        self._push(self.regs[FP])
        self._push(self.pc)  # return address
        self._push(mask)
        self.regs[FP] = self.regs[SP]
        self.regs[AP] = (sp_at_call - 4) & WORD  # the argcount slot
        self.pc = target + 2
        self.stats.calls += 1
        self._depth += 1
        self.stats.max_call_depth = max(self.stats.max_call_depth, self._depth)
        self.stats.call_linkage_refs += self.stats.data_references - refs_before

    def _ret(self) -> None:
        if self._trace_flow:
            self.tracer.ret(self.stats.cycles, self.pc, self._depth - 1)
        refs_before = self.stats.data_references
        self.regs[SP] = self.regs[FP]
        mask = self._pop()
        self.pc = self._pop()
        self.regs[FP] = self._pop()
        self.regs[AP] = self._pop()
        for reg in reversed(self._mask_registers(mask)):
            self.regs[reg] = self._pop()
        nargs = self._pop()
        self.regs[SP] = (self.regs[SP] + 4 * nargs) & WORD
        self.stats.returns += 1
        self._depth -= 1
        self.stats.call_linkage_refs += self.stats.data_references - refs_before
