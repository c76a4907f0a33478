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

from repro.cc import ir
from repro.cc.codegen import FunctionCodegen, ModuleCodegen
from repro.cc.errors import CompileError
from repro.cc.regalloc import allocate
from repro.cc.sema import VarInfo

MMIO_PUTCHAR = "@#0x7F000000"
MMIO_PUTINT = "@#0x7F000004"
MMIO_HALT = "@#0x7F00000C"

_TEMP_POOL = [2, 3, 4, 5]

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
        self.var_text: dict[VarInfo, str] = {}
        super().__init__(func, used_runtime)

    # -- placement ---------------------------------------------------------

    def _place_variables(self) -> None:
        for i, param in enumerate(self.func.params):
            self.var_text[param] = f"{4 + 4 * i}(ap)"
        offset = 0
        for var in self.func.locals:
            size = (var.type.size + 3) & ~3
            offset += size
            self.var_text[var] = f"{-offset}(fp)"
        self.alloc = allocate(self.func.instrs, _TEMP_POOL)
        self._locals_size = offset
        offset += 4 * self.alloc.num_spill_slots
        self.frame_size = (offset + 3) & ~3

    # -- operands -----------------------------------------------------------------

    def operand(self, op: ir.Operand) -> str:
        """Operand text, folding memory and immediate operands directly."""
        if isinstance(op, int):
            return f"#{op}"
        if isinstance(op, ir.Temp):
            if op in self.alloc.registers:
                return f"r{self.alloc.registers[op]}"
            slot = self._locals_size + 4 + 4 * self.alloc.spills[op]
            return f"{-slot}(fp)"
        if op in self.var_text:
            return self.var_text[op]
        return f"@#{op.name}"  # global

    def reg_operand(self, op: ir.Operand, scratch: str) -> str:
        """Force an operand into a register (needed for byte stores etc.)."""
        text = self.operand(op)
        if text.startswith("r") and text[1:].isdigit():
            return text
        self.emit(f"movl {text}, {scratch}")
        return scratch

    def dest(self, dst: ir.Temp) -> str:
        return self.operand(dst)

    # -- body -----------------------------------------------------------------------

    def _prologue(self) -> None:
        mask = 0
        for reg in set(self.alloc.registers.values()):
            mask |= 1 << reg
        self.emit(f".entry {mask:#06x}")
        if self.frame_size:
            self.emit(f"subl2 #{self.frame_size}, sp")

    def _gen_const(self, instr: ir.Const) -> None:
        self._movl(instr.value, instr.dst)

    def _gen_move(self, instr: ir.Move) -> None:
        self._movl(instr.src, instr.dst)

    def _gen_getvar(self, instr: ir.GetVar) -> None:
        self._movl(instr.var, instr.dst)

    def _gen_setvar(self, instr: ir.SetVar) -> None:
        self._movl(instr.src, instr.var)

    def _movl(self, src: ir.Operand, dst: ir.Operand) -> None:
        self.emit(f"movl {self.operand(src)}, {self.operand(dst)}")

    def _gen_jump(self, instr: ir.Jump) -> None:
        self.emit(f"brw {instr.target}")

    def _gen_cbranch(self, instr: ir.CBranch) -> None:
        self.emit(f"cmpl {self.operand(instr.a)}, {self.operand(instr.b)}")
        self.emit(f"{_REL_BRANCH[instr.op]} {instr.target}")

    def _gen_ret(self, instr: ir.Ret) -> None:
        if instr.src is not None:
            self.emit(f"movl {self.operand(instr.src)}, r0")
        self.emit("ret")

    def _gen_addrvar(self, instr: ir.AddrVar) -> None:
        var = instr.var
        if var in self.var_text:
            self.emit(f"moval {self.var_text[var]}, {self.dest(instr.dst)}")
        elif var.is_global:
            self.emit(f"moval @#{var.name}, {self.dest(instr.dst)}")
        else:
            raise CompileError(f"ciscgen: address of unknown variable {var.name!r}")

    def _gen_unop(self, instr: ir.UnOp) -> None:
        dst = self.dest(instr.dst)
        src = self.operand(instr.src)
        if instr.op == "neg":
            self.emit(f"mnegl {src}, {dst}")
        elif instr.op == "bnot":
            self.emit(f"mcoml {src}, {dst}")
        else:  # lnot
            done = self._local_label("lnot")
            self.emit(f"clrl {dst}")
            self.emit(f"tstl {src}")
            self.emit(f"bneq {done}")
            self.emit(f"incl {dst}")
            self.emit_label(done)

    def _gen_binop(self, instr: ir.BinOp) -> None:
        dst = self.dest(instr.dst)
        a, b = self.operand(instr.a), self.operand(instr.b)
        op = instr.op
        if op in _BINOP3:
            self.emit(f"{_BINOP3[op]} {b}, {a}, {dst}")
        elif op == "-":
            self.emit(f"subl3 {b}, {a}, {dst}")  # dif = min - sub
        elif op == "/":
            self.emit(f"divl3 {b}, {a}, {dst}")  # quo = dividend / divisor
        elif op == "%":
            # no EDIV in the baseline: r = a - (a/b)*b
            self.emit(f"divl3 {b}, {a}, r0")
            self.emit(f"mull3 r0, {b}, r1")
            self.emit(f"subl3 r1, {a}, {dst}")
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
            self.emit(f"ashl #{count & 0xFF}, {src}, {dst}")
            return
        # the count operand is byte-width: stage memory-resident counts in a
        # register so the low byte read picks up the right end of the word.
        # Mask to 5 bits *before* negating — ashl reads a signed byte, so an
        # unmasked count outside [0, 127] (or negative) would change both
        # magnitude and direction and diverge from the RISC I shifter.
        count = self.reg_operand(instr.b, "r0")
        self.emit(f"andl3 #31, {count}, r0")
        if left:
            self.emit(f"ashl r0, {src}, {dst}")
        else:
            self.emit(f"mnegl r0, r0")
            self.emit(f"ashl r0, {src}, {dst}")

    def _gen_setcmp(self, instr: ir.SetCmp) -> None:
        dst = self.dest(instr.dst)
        done = self._local_label("scc")
        self.emit(f"clrl {dst}")
        self.emit(f"cmpl {self.operand(instr.a)}, {self.operand(instr.b)}")
        self.emit(f"{_REL_INVERSE[instr.op]} {done}")
        self.emit(f"incl {dst}")
        self.emit_label(done)

    def _mem_operand(self, addr: ir.Operand, offset: int) -> str:
        """Memory operand text for a computed address plus constant offset."""
        if isinstance(addr, ir.Temp) and addr in self.alloc.registers:
            reg = f"r{self.alloc.registers[addr]}"
        else:
            reg = self.reg_operand(addr, "r1")
        return f"({reg})" if offset == 0 else f"{offset}({reg})"

    def _gen_load(self, instr: ir.Load) -> None:
        dst = self.dest(instr.dst)
        mem = self._mem_operand(instr.addr, instr.offset)
        if instr.width == 4:
            self.emit(f"movl {mem}, {dst}")
        elif instr.width == 2:
            self.emit(f"{'cvtwl' if instr.signed else 'movzwl'} {mem}, {dst}")
        else:
            self.emit(f"{'cvtbl' if instr.signed else 'movzbl'} {mem}, {dst}")

    def _gen_store(self, instr: ir.Store) -> None:
        mem = self._mem_operand(instr.addr, instr.offset)
        if instr.width == 4:
            self.emit(f"movl {self.operand(instr.src)}, {mem}")
            return
        value = self.reg_operand(instr.src, "r0")
        self.emit(f"{'movb' if instr.width == 1 else 'movw'} {value}, {mem}")

    def _gen_call(self, instr: ir.Call) -> None:
        if instr.name == "putchar":
            self.emit(f"movl {self.operand(instr.args[0])}, {MMIO_PUTCHAR}")
            return
        if instr.name == "putint":
            self.emit(f"movl {self.operand(instr.args[0])}, {MMIO_PUTINT}")
            return
        name = "__puts" if instr.name == "puts" else instr.name
        if name == "__puts":
            self.used_runtime.add(name)
        for arg in reversed(instr.args):
            self.emit(f"pushl {self.operand(arg)}")
        self.emit(f"calls #{len(instr.args)}, {name}")
        if instr.dst is not None:
            self.emit(f"movl r0, {self.dest(instr.dst)}")


class CiscCodegen(ModuleCodegen):
    """Generates a complete VAX-like assembly module from an IR program."""

    BACKEND = "VAX-like CISC backend"
    ENTRY = "__start"
    START = ("calls #0, main", f"movl r0, {MMIO_HALT}")
    WORD = ".long"
    FUNCTION = _FunctionCodegen

    def runtime(self) -> str:
        return PUTS_RUNTIME if "__puts" in self.used_runtime else ""


def generate_cisc_assembly(program: ir.IRProgram) -> str:
    """IR program -> VAX-like assembly text."""
    return CiscCodegen(program).generate()
