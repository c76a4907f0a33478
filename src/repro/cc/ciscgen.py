"""VAX-like (CISC) code generator.

Lowering decisions, in the idiom of a 1981 CISC compiler:

* every variable lives in memory — parameters in the CALLS argument list
  (``4+4i(ap)``), locals in the stack frame at negative FP offsets,
  globals at absolute addresses — and instructions operate on those memory
  operands directly (``addl3 4(ap), -4(fp), r2``), which is exactly the
  memory-traffic profile the paper attributes to CISC compilers;
* only expression temporaries use registers (r2..r5, declared in the
  procedure's CALLS entry mask; r0/r1 are caller-trashed staging and the
  return-value register);
* multiply and divide use the hardware instructions (the CISC advantage);
  ``%`` lowers to the div/mul/sub triple since the baseline has no EDIV;
* procedure linkage is CALLS/RET with argument pushes — the expensive
  mechanism the register-window comparison (E7) measures.

Byte-width memory accesses always stage values through a register: the
shared simulator memory is big-endian, so a ``movb`` from a word-sized
slot would read the wrong byte.
"""

from __future__ import annotations

from repro.asm.core import render
from repro.baselines.vax.assembler import (
    Operand, VaxAssembler, absolute, deferred, displacement, immediate, register, symbol,
)
from repro.cc import ir
from repro.cc.codegen import FunctionCodegen, ModuleCodegen, runtime_routine
from repro.cc.errors import CompileError
from repro.cc.regalloc import allocate
from repro.cc.sema import VarInfo

MMIO_PUTCHAR = Operand("absolute", value=0x7F000000, text="@#0x7F000000")
MMIO_PUTINT = Operand("absolute", value=0x7F000004, text="@#0x7F000004")
MMIO_HALT = Operand("absolute", value=0x7F00000C, text="@#0x7F00000C")

_TEMP_POOL = [2, 3, 4, 5]
R0, R1, SP = register("r0"), register("r1"), register("sp")

_BINOP3 = {"+": "addl3", "&": "andl3", "|": "bisl3", "^": "xorl3", "*": "mull3"}
_REL_BRANCH = {"==": "beql", "!=": "bneq", "<": "blss", "<=": "bleq", ">": "bgtr", ">=": "bgeq"}
_REL_INVERSE = {"==": "bneq", "!=": "beql", "<": "bgeq", "<=": "bgtr", ">": "bleq", ">=": "blss"}

PUTS_RUNTIME = """__puts:\t;@fn __puts
    .entry 0x000C
    movl 4(ap), r2
__puts_loop:
    movzbl (r2), r3
    tstl r3
    beql __puts_done
    movl r3, @#0x7F000000
    incl r2
    brw __puts_loop
__puts_done:
    ret
"""


class _FunctionCodegen(FunctionCodegen):
    """Places variables in memory and lowers IR to VAX-like instructions."""

    def __init__(self, func: ir.IRFunction, used_runtime: set[str]):
        self.var_operand: dict[VarInfo, Operand] = {}
        super().__init__(func, used_runtime)

    # -- placement ---------------------------------------------------------

    def _place_variables(self) -> None:
        for i, param in enumerate(self.func.params):
            self.var_operand[param] = displacement(4 + 4 * i, "ap")
        offset = 0
        for var in self.func.locals:
            size = (var.type.size + 3) & ~3
            offset += size
            self.var_operand[var] = displacement(-offset, "fp")
        self.alloc = allocate(self.func.instrs, _TEMP_POOL)
        self._locals_size = offset
        offset += 4 * self.alloc.num_spill_slots
        self.frame_size = (offset + 3) & ~3

    # -- operands -----------------------------------------------------------------

    def operand(self, op: ir.Operand) -> Operand:
        """The operand specifier, folding memory and immediate operands directly."""
        if isinstance(op, int):
            return immediate(op)
        if isinstance(op, ir.Temp):
            if op in self.alloc.registers:
                return register(f"r{self.alloc.registers[op]}")
            slot = self._locals_size + 4 + 4 * self.alloc.spills[op]
            return displacement(-slot, "fp")
        if op in self.var_operand:
            return self.var_operand[op]
        return absolute(op.name)  # global

    def reg_operand(self, op: ir.Operand, scratch: Operand) -> Operand:
        """Force an operand into a register (needed for byte stores etc.)."""
        operand = self.operand(op)
        if operand.kind == "register":
            return operand
        self.emit("movl", operand, scratch)
        return scratch

    def dest(self, dst: ir.Temp) -> Operand:
        return self.operand(dst)

    # -- body -----------------------------------------------------------------------

    def _prologue(self) -> None:
        mask = 0
        for reg in set(self.alloc.registers.values()):
            mask |= 1 << reg
        self.emit(".entry", Operand("mask", value=mask, text=f"{mask:#06x}"))
        if self.frame_size:
            self.emit("subl2", immediate(self.frame_size), SP)

    def _gen_const(self, instr: ir.Const) -> None:
        self._movl(instr.value, instr.dst)

    def _gen_move(self, instr: ir.Move) -> None:
        self._movl(instr.src, instr.dst)

    def _gen_getvar(self, instr: ir.GetVar) -> None:
        self._movl(instr.var, instr.dst)

    def _gen_setvar(self, instr: ir.SetVar) -> None:
        self._movl(instr.src, instr.var)

    def _movl(self, src: ir.Operand, dst: ir.Operand) -> None:
        self.emit("movl", self.operand(src), self.operand(dst))

    def _gen_jump(self, instr: ir.Jump) -> None:
        self.emit("brw", symbol(instr.target))

    def _gen_cbranch(self, instr: ir.CBranch) -> None:
        self.emit("cmpl", self.operand(instr.a), self.operand(instr.b))
        self.emit(_REL_BRANCH[instr.op], symbol(instr.target))

    def _gen_ret(self, instr: ir.Ret) -> None:
        if instr.src is not None:
            self.emit("movl", self.operand(instr.src), R0)
        self.emit("ret")

    def _gen_addrvar(self, instr: ir.AddrVar) -> None:
        var = instr.var
        if var in self.var_operand:
            self.emit("moval", self.var_operand[var], self.dest(instr.dst))
        elif var.is_global:
            self.emit("moval", absolute(var.name), self.dest(instr.dst))
        else:
            raise CompileError(f"ciscgen: address of unknown variable {var.name!r}")

    def _gen_unop(self, instr: ir.UnOp) -> None:
        dst = self.dest(instr.dst)
        src = self.operand(instr.src)
        if instr.op == "neg":
            self.emit("mnegl", src, dst)
        elif instr.op == "bnot":
            self.emit("mcoml", src, dst)
        else:  # lnot
            done = self._local_label("lnot")
            self.emit("clrl", dst)
            self.emit("tstl", src)
            self.emit("bneq", symbol(done))
            self.emit("incl", dst)
            self.emit_label(done)

    def _gen_binop(self, instr: ir.BinOp) -> None:
        dst = self.dest(instr.dst)
        a, b = self.operand(instr.a), self.operand(instr.b)
        op = instr.op
        if op in _BINOP3:
            self.emit(_BINOP3[op], b, a, dst)
        elif op == "-":
            self.emit("subl3", b, a, dst)  # dif = min - sub
        elif op == "/":
            self.emit("divl3", b, a, dst)  # quo = dividend / divisor
        elif op == "%":
            # no EDIV in the baseline: r = a - (a/b)*b
            self.emit("divl3", b, a, R0)
            self.emit("mull3", R0, b, R1)
            self.emit("subl3", R1, a, dst)
        elif op == "<<":
            self._gen_shift(instr, left=True)
        elif op == ">>":
            self._gen_shift(instr, left=False)
        else:
            raise CompileError(f"ciscgen: unhandled operator {op!r}")

    def _gen_shift(self, instr: ir.BinOp, left: bool) -> None:
        dst = self.dest(instr.dst)
        src = self.operand(instr.a)
        if isinstance(instr.b, int):
            # C-level shift counts follow the RISC I shifter: 5 bits only
            count = instr.b & 31
            if not left:
                count = -count
            self.emit("ashl", immediate(count & 0xFF), src, dst)
            return
        # the count operand is byte-width: stage memory-resident counts in a
        # register so the low byte read picks up the right end of the word.
        # Mask to 5 bits *before* negating — ashl reads a signed byte, so an
        # unmasked count outside [0, 127] (or negative) would change both
        # magnitude and direction and diverge from the RISC I shifter.
        count = self.reg_operand(instr.b, R0)
        self.emit("andl3", immediate(31), count, R0)
        if not left:
            self.emit("mnegl", R0, R0)
        self.emit("ashl", R0, src, dst)

    def _gen_setcmp(self, instr: ir.SetCmp) -> None:
        dst = self.dest(instr.dst)
        done = self._local_label("scc")
        self.emit("clrl", dst)
        self.emit("cmpl", self.operand(instr.a), self.operand(instr.b))
        self.emit(_REL_INVERSE[instr.op], symbol(done))
        self.emit("incl", dst)
        self.emit_label(done)

    def _mem_operand(self, addr: ir.Operand, offset: int) -> Operand:
        """Memory operand for a computed address plus constant offset."""
        if isinstance(addr, ir.Temp) and addr in self.alloc.registers:
            reg = f"r{self.alloc.registers[addr]}"
        else:
            reg = self.reg_operand(addr, R1).text
        return deferred(reg) if offset == 0 else displacement(offset, reg)

    def _gen_load(self, instr: ir.Load) -> None:
        dst = self.dest(instr.dst)
        mem = self._mem_operand(instr.addr, instr.offset)
        if instr.width == 4:
            self.emit("movl", mem, dst)
        elif instr.width == 2:
            self.emit("cvtwl" if instr.signed else "movzwl", mem, dst)
        else:
            self.emit("cvtbl" if instr.signed else "movzbl", mem, dst)

    def _gen_store(self, instr: ir.Store) -> None:
        mem = self._mem_operand(instr.addr, instr.offset)
        if instr.width == 4:
            self.emit("movl", self.operand(instr.src), mem)
            return
        value = self.reg_operand(instr.src, R0)
        self.emit("movb" if instr.width == 1 else "movw", value, mem)

    def _gen_call(self, instr: ir.Call) -> None:
        if instr.name == "putchar":
            self.emit("movl", self.operand(instr.args[0]), MMIO_PUTCHAR)
            return
        if instr.name == "putint":
            self.emit("movl", self.operand(instr.args[0]), MMIO_PUTINT)
            return
        name = "__puts" if instr.name == "puts" else instr.name
        if name == "__puts":
            self.used_runtime.add(name)
        for arg in reversed(instr.args):
            self.emit("pushl", self.operand(arg))
        self.emit("calls", immediate(len(instr.args)), symbol(name))
        if instr.dst is not None:
            self.emit("movl", R0, self.dest(instr.dst))


class CiscCodegen(ModuleCodegen):
    """Generates a complete VAX-like module from an IR program."""

    BACKEND = "VAX-like CISC backend"
    ENTRY = "__start"
    START = (("calls", immediate(0), symbol("main")), ("movl", R0, MMIO_HALT))
    WORD = ".long"
    FUNCTION = _FunctionCodegen

    def runtime(self):
        if "__puts" not in self.used_runtime:
            return []
        return runtime_routine(VaxAssembler, PUTS_RUNTIME)


def generate_cisc_assembly(program: ir.IRProgram) -> str:
    """IR program -> VAX-like assembly text."""
    return render(CiscCodegen(program).generate())
