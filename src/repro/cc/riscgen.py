"""RISC I code generator.

Lowering decisions, in the spirit of the paper's own (simple) C compiler:

* scalar locals whose address is never taken live in LOCAL registers
  (r16..); expression temporaries take the remaining LOCAL registers, with
  linear-scan spilling to the frame when they run out;
* incoming parameters stay in the HIGH registers (r26..r30) they arrive in;
  up to five register parameters are supported;
* arrays and address-taken variables live in the stack frame (SP = r1);
* multiplication/division/modulo call the runtime routines of
  :mod:`repro.cc.runtime` (RISC I has no multiply hardware);
* the epilogue deallocates the frame *in the RETURN delay slot* — the stack
  pointer is a GLOBAL register, so that slot is window-safe;
* delay-slot filling and peephole cleanup run afterwards in
  :mod:`repro.cc.delay`.
"""

from __future__ import annotations

from repro.asm.assembler import REGISTERS as R, Assembler, immediate, memory, symbol
from repro.asm.core import render
from repro.cc import ir
from repro.cc.codegen import FunctionCodegen, ModuleCodegen, runtime_routine
from repro.cc.errors import CompileError
from repro.cc.regalloc import allocate
from repro.cc.runtime import ROUTINES, needed_routines
from repro.cc.sema import VarInfo
from repro.isa.encoding import S2_MAX, S2_MIN

#: Maximum register arguments (LOW r10..r14; r15 backs the return address).
MAX_ARGS = 5

_BINOP_MNEMONIC = {
    "+": "add",
    "-": "sub",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "sll",
    ">>": "sra",
}
_RUNTIME_BINOP = {"*": "__mul", "/": "__div", "%": "__mod"}
_REL_COND = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}

_LOAD_MNEMONIC = {(4, False): "ldl", (4, True): "ldl", (2, False): "ldsu", (2, True): "ldss", (1, False): "ldbu", (1, True): "ldbs"}
_STORE_MNEMONIC = {4: "stl", 2: "sts", 1: "stb"}

def _fits(value: int) -> bool:
    return S2_MIN <= value <= S2_MAX


class _FunctionCodegen(FunctionCodegen):
    """Places variables in window registers and lowers IR to RISC I."""

    def __init__(self, func: ir.IRFunction, used_runtime: set[str]):
        self.var_reg: dict[VarInfo, int] = {}
        self.var_slot: dict[VarInfo, int] = {}
        super().__init__(func, used_runtime)

    # -- placement --------------------------------------------------------

    def _place_variables(self) -> None:
        func = self.func
        if len(func.params) > MAX_ARGS:
            raise CompileError(
                f"{func.name}: more than {MAX_ARGS} parameters is not supported "
                "by the RISC I register-window convention"
            )
        offset = 0

        def stack_slot(size: int) -> int:
            nonlocal offset
            size = (size + 3) & ~3
            slot = offset
            offset += size
            return slot

        for i, param in enumerate(func.params):
            if param.addressed:
                self.var_slot[param] = stack_slot(4)
            else:
                self.var_reg[param] = 26 + i

        reg_local_budget = 6  # r16..r21; the rest of LOCAL is the temp pool
        next_reg = 16
        for var in func.locals:
            register_ok = (
                not var.addressed
                and not var.type.is_array
                and next_reg < 16 + reg_local_budget
            )
            if register_ok:
                self.var_reg[var] = next_reg
                next_reg += 1
            else:
                self.var_slot[var] = stack_slot(var.type.size)

        pool = list(range(next_reg, 26))
        self.alloc = allocate(func.instrs, pool)
        self.spill_base = offset
        offset += 4 * self.alloc.num_spill_slots
        self.frame_size = (offset + 7) & ~7

    # -- operand access -----------------------------------------------------------

    def value_reg(self, op: ir.Operand, scratch):
        """Return a register holding ``op``'s value, emitting code if needed."""
        if isinstance(op, ir.Temp):
            if op in self.alloc.registers:
                return R[self.alloc.registers[op]]
            slot = self.spill_base + 4 * self.alloc.spills[op]
            self.emit("ldl", scratch, memory(1, slot))
            return scratch
        if isinstance(op, int):
            if op == 0:
                return R[0]
            self.emit(*self._constant(scratch, op))
            return scratch
        # VarInfo
        if op in self.var_reg:
            return R[self.var_reg[op]]
        if op in self.var_slot:
            self.emit("ldl", scratch, memory(1, self.var_slot[op]))
            return scratch
        # global scalar
        self.emit("set", scratch, symbol(op.name))
        self.emit("ldl", scratch, memory(scratch.reg, 0))
        return scratch

    @staticmethod
    def _constant(target, value: int) -> tuple:
        """The instruction that puts a constant in register ``target``."""
        if _fits(value):
            return "add", target, R[0], immediate(value)
        return "set", target, immediate(value)

    def dest_reg(self, dst: ir.Temp):
        """Register the result of ``dst`` should be computed into."""
        if dst in self.alloc.registers:
            return R[self.alloc.registers[dst]]
        return R[9]

    def commit(self, dst: ir.Temp, reg) -> None:
        """Store a spilled temp's value from its staging register."""
        if dst in self.alloc.spills:
            slot = self.spill_base + 4 * self.alloc.spills[dst]
            self.emit("stl", reg, memory(1, slot))

    def move_to(self, target, op: ir.Operand) -> None:
        """Materialize ``op``'s value directly into register ``target``."""
        if isinstance(op, int):
            self.emit(*self._constant(target, op))
            return
        source = self.value_reg(op, scratch=target if target is not R[1] else R[9])
        if source is not target:
            self.emit("add", target, source, immediate(0))

    def _s2_operand(self, op: ir.Operand, scratch):
        """Second ALU operand: an immediate if it fits, else a register."""
        if isinstance(op, int) and _fits(op):
            return immediate(op)
        return self.value_reg(op, scratch)

    # -- instruction emission ----------------------------------------------------

    def _prologue(self) -> None:
        if self.frame_size:
            self.emit("add", R[1], R[1], immediate(-self.frame_size))
        for i, param in enumerate(self.func.params):
            if param in self.var_slot:
                self.emit("stl", R[26 + i], memory(1, self.var_slot[param]))

    def _gen_const(self, instr: ir.Const) -> None:
        self._copy(instr.dst, instr.value)

    def _gen_move(self, instr: ir.Move) -> None:
        self._copy(instr.dst, instr.src)

    def _gen_getvar(self, instr: ir.GetVar) -> None:
        self._copy(instr.dst, instr.var)

    def _copy(self, dst: ir.Temp, src: ir.Operand) -> None:
        reg = self.dest_reg(dst)
        self.move_to(reg, src)
        self.commit(dst, reg)

    def _gen_jump(self, instr: ir.Jump) -> None:
        self.emit("jmp", symbol(instr.target))
        self.emit("nop")

    def _gen_setvar(self, instr: ir.SetVar) -> None:
        var = instr.var
        if var in self.var_reg:
            self.move_to(R[self.var_reg[var]], instr.src)
            return
        value = self.value_reg(instr.src, R[9])
        if var in self.var_slot:
            self.emit("stl", value, memory(1, self.var_slot[var]))
            return
        self.emit("set", R[8], symbol(var.name))
        self.emit("stl", value, memory(8, 0))

    def _gen_addrvar(self, instr: ir.AddrVar) -> None:
        reg = self.dest_reg(instr.dst)
        var = instr.var
        if var in self.var_slot:
            self.emit("add", reg, R[1], immediate(self.var_slot[var]))
        elif var.is_global:
            self.emit("set", reg, symbol(var.name))
        else:
            raise CompileError(f"riscgen: address of register variable {var.name!r}")
        self.commit(instr.dst, reg)

    def _gen_unop(self, instr: ir.UnOp) -> None:
        reg = self.dest_reg(instr.dst)
        src = self.value_reg(instr.src, R[8])
        if instr.op == "lnot":
            self._emit_setcc_pattern(reg, "eq", src, immediate(0))
        elif instr.op == "neg":
            self.emit("subr", reg, src, immediate(0))
        else:  # bnot
            self.emit("xor", reg, src, immediate(-1))
        self.commit(instr.dst, reg)

    def _gen_binop(self, instr: ir.BinOp) -> None:
        if instr.op in _RUNTIME_BINOP:
            self._gen_runtime_binop(instr)
            return
        reg = self.dest_reg(instr.dst)
        a, b, op = instr.a, instr.b, instr.op
        if isinstance(a, int) and op == "-":
            # imm - reg: use the reverse-subtract instruction
            b_reg = self.value_reg(b, R[8])
            if _fits(a):
                self.emit("subr", reg, b_reg, immediate(a))
            else:
                a_reg = self.value_reg(a, R[9])
                self.emit("sub", reg, a_reg, b_reg)
            self.commit(instr.dst, reg)
            return
        if isinstance(a, int) and op in ("+", "&", "|", "^"):
            a, b = b, a  # commutative: put the constant second
        a_reg = self.value_reg(a, R[8])
        s2 = self._s2_operand(b, R[9])
        self.emit(_BINOP_MNEMONIC[op], reg, a_reg, s2)
        self.commit(instr.dst, reg)

    def _gen_runtime_binop(self, instr: ir.BinOp) -> None:
        name = _RUNTIME_BINOP[instr.op]
        self.used_runtime.add(name)
        self.move_to(R[10], instr.a)
        self.move_to(R[11], instr.b)
        self.emit("call", symbol(name))
        self.emit("nop")
        self._take_result(instr.dst)

    def _emit_setcc_pattern(self, reg, cond: str, a_reg, s2) -> None:
        done = self._local_label("scc")
        self.emit("sub!", R[0], a_reg, s2)
        self.emit("add", reg, R[0], immediate(1))
        self.emit(f"j{cond}", symbol(done))
        self.emit("nop")
        self.emit("add", reg, R[0], immediate(0))
        self.emit_label(done)

    def _gen_setcmp(self, instr: ir.SetCmp) -> None:
        reg = self.dest_reg(instr.dst)
        op, a, b = instr.op, instr.a, instr.b
        if isinstance(a, int) and not isinstance(b, int):
            op, a, b = ir.SWAP_REL[op], b, a
        a_reg = self.value_reg(a, R[8])
        s2 = self._s2_operand(b, R[9])
        self._emit_setcc_pattern(reg, _REL_COND[op], a_reg, s2)
        self.commit(instr.dst, reg)

    def _gen_cbranch(self, instr: ir.CBranch) -> None:
        op, a, b = instr.op, instr.a, instr.b
        if isinstance(a, int) and not isinstance(b, int):
            op, a, b = ir.SWAP_REL[op], b, a
        a_reg = self.value_reg(a, R[8])
        s2 = self._s2_operand(b, R[9])
        self.emit("sub!", R[0], a_reg, s2)
        self.emit(f"j{_REL_COND[op]}", symbol(instr.target))
        self.emit("nop")

    def _gen_load(self, instr: ir.Load) -> None:
        reg = self.dest_reg(instr.dst)
        address = self._address(instr.addr, instr.offset)
        self.emit(_LOAD_MNEMONIC[(instr.width, instr.signed)], reg, address)
        self.commit(instr.dst, reg)

    def _gen_store(self, instr: ir.Store) -> None:
        # address first: materializing a large offset may use r9, which is
        # also the value's staging register
        address = self._address(instr.addr, instr.offset)
        value = self.value_reg(instr.src, R[9])
        self.emit(_STORE_MNEMONIC[instr.width], value, address)

    def _address(self, addr: ir.Operand, offset: int):
        """Reduce (addr operand, byte offset) to an ``offset(rB)`` operand."""
        if isinstance(addr, int):
            total = addr + offset
            if _fits(total):
                return memory(0, total)
            self.emit("set", R[8], immediate(total))
            return memory(8, 0)
        base = self.value_reg(addr, R[8])
        if _fits(offset):
            return memory(base.reg, offset)
        self.emit("set", R[9], immediate(offset))
        self.emit("add", R[8], base, R[9])
        return memory(8, 0)

    def _gen_call(self, instr: ir.Call) -> None:
        if instr.name == "putchar":
            self.emit("putc", self.value_reg(instr.args[0], R[9]))
            return
        if instr.name == "putint":
            self.emit("puti", self.value_reg(instr.args[0], R[9]))
            return
        name = "__puts" if instr.name == "puts" else instr.name
        if name.startswith("__"):
            self.used_runtime.add(name)
        if len(instr.args) > MAX_ARGS:
            raise CompileError(
                f"call to {instr.name}: more than {MAX_ARGS} arguments is not "
                "supported by the RISC I register-window convention"
            )
        for i, arg in enumerate(instr.args):
            self.move_to(R[10 + i], arg)
        self.emit("call", symbol(name))
        self.emit("nop")
        if instr.dst is not None:
            self._take_result(instr.dst)

    def _take_result(self, dst: ir.Temp) -> None:
        """Move a call's result out of r10 into ``dst``."""
        reg = self.dest_reg(dst)
        if reg is not R[10]:
            self.emit("add", reg, R[10], immediate(0))
        self.commit(dst, reg)

    def _gen_ret(self, instr: ir.Ret) -> None:
        if instr.src is not None:
            self.move_to(R[26], instr.src)
        self.emit("ret")
        if self.frame_size:
            # window-safe delay slot
            self.emit("add", R[1], R[1], immediate(self.frame_size))
        else:
            self.emit("nop")


class RiscCodegen(ModuleCodegen):
    """Generates a complete RISC I module from an IR program."""

    BACKEND = "RISC I backend"
    ENTRY = "_start"
    START = (("call", symbol("main")), ("nop",), ("halt", R[10]))
    WORD = ".word"
    FUNCTION = _FunctionCodegen

    def runtime(self):
        return [
            stmt
            for name in needed_routines(self.used_runtime)
            for stmt in runtime_routine(Assembler, ROUTINES[name][0])
        ]


def generate_risc_assembly(program: ir.IRProgram) -> str:
    """IR program -> RISC I assembly text (before delay-slot optimization)."""
    return render(RiscCodegen(program).generate())
