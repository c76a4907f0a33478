"""Three-address intermediate representation.

The IR is the meeting point of the shared front-end and the per-ISA
backends.  Operands are virtual registers (:class:`Temp`), integer
constants, or abstract variables (:class:`repro.cc.sema.VarInfo`) whose
placement — register, stack slot, global — each backend decides for
itself.  That freedom is what lets the RISC I backend keep scalars in
window registers while the VAX-like backend keeps them in the stack frame
and folds memory operands into instructions, each in its own 1981 idiom.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from repro.cc.sema import VarInfo


@dataclasses.dataclass(frozen=True, slots=True)
class Temp:
    """A virtual register."""

    id: int

    def __hash__(self) -> int:
        # the register allocator and both code generators key dicts by
        # temps: hash the id itself, not a generated one-field tuple
        return self.id

    def __repr__(self) -> str:
        return f"t{self.id}"


Operand = Union[Temp, int, VarInfo]

#: Arithmetic/logical binary operators carried by :class:`BinOp`.
ARITH_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")
#: Relational operators carried by :class:`CBranch` and :class:`SetCmp`.
REL_OPS = ("==", "!=", "<", "<=", ">", ">=")

#: Negation map for branch inversion.
INVERT_REL = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
#: Operand-swap map (a op b  ==  b swap(op) a).
SWAP_REL = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclasses.dataclass
class Instr:
    pass


@dataclasses.dataclass
class Const(Instr):
    dst: Temp
    value: int


@dataclasses.dataclass
class Move(Instr):
    dst: Temp
    src: Operand


@dataclasses.dataclass
class UnOp(Instr):
    dst: Temp
    op: str  # "neg", "bnot", "lnot"
    src: Operand


@dataclasses.dataclass
class BinOp(Instr):
    dst: Temp
    op: str
    a: Operand
    b: Operand


@dataclasses.dataclass
class SetCmp(Instr):
    """dst = (a relop b) ? 1 : 0"""

    dst: Temp
    op: str
    a: Operand
    b: Operand


@dataclasses.dataclass
class Load(Instr):
    dst: Temp
    addr: Operand
    width: int
    signed: bool = False
    offset: int = 0


@dataclasses.dataclass
class Store(Instr):
    addr: Operand
    src: Operand
    width: int
    offset: int = 0


@dataclasses.dataclass
class AddrVar(Instr):
    """dst = address of a stack-resident or global variable."""

    dst: Temp
    var: VarInfo


@dataclasses.dataclass
class GetVar(Instr):
    dst: Temp
    var: VarInfo


@dataclasses.dataclass
class SetVar(Instr):
    var: VarInfo
    src: Operand


@dataclasses.dataclass
class Call(Instr):
    dst: Optional[Temp]
    name: str
    args: list[Operand]


@dataclasses.dataclass
class Label(Instr):
    name: str


@dataclasses.dataclass
class Jump(Instr):
    target: str


@dataclasses.dataclass
class CBranch(Instr):
    """Branch to ``target`` when ``a relop b`` holds (signed compare)."""

    op: str
    a: Operand
    b: Operand
    target: str


@dataclasses.dataclass
class Ret(Instr):
    src: Optional[Operand] = None


#: Statement classes tracked for the HLL-cost experiment (E2).
STATEMENT_CLASSES = ("assignment", "if", "loop", "call", "return")


@dataclasses.dataclass
class Marker(Instr):
    """Zero-cost annotation: one executed high-level-language statement.

    Emitted by the IR generator at every statement of interest and counted
    by the IR interpreter; code generators and estimators ignore it.  This
    is the instrumentation behind the paper's Table II (dynamic HLL
    statement frequencies).
    """

    kind: str  # one of STATEMENT_CLASSES


@dataclasses.dataclass
class SrcLoc(Instr):
    """Zero-cost annotation: the following instructions came from this
    source line.

    Emitted by the IR generator at every statement boundary; the code
    generators stamp the statements that follow with it, and the layout
    pass collects those stamps into the :class:`repro.core.program.Program`
    line table.  Interpreters, estimators and the register allocator all
    skip it.
    """

    line: int


@dataclasses.dataclass
class IRFunction:
    name: str
    instrs: list[Instr] = dataclasses.field(default_factory=list)
    num_temps: int = 0
    #: VarInfo for params, in order (backends set up their homes).
    params: list[VarInfo] = dataclasses.field(default_factory=list)
    #: all locals, including array/addressed ones.
    locals: list[VarInfo] = dataclasses.field(default_factory=list)
    is_leaf: bool = True
    #: source line of the function definition (0 when unknown).
    line: int = 0


@dataclasses.dataclass
class GlobalDef:
    var: VarInfo
    init_value: Optional[int] = None
    init_string: Optional[str] = None  # label of a string literal


@dataclasses.dataclass
class IRProgram:
    functions: list[IRFunction] = dataclasses.field(default_factory=list)
    globals: list[GlobalDef] = dataclasses.field(default_factory=list)
    #: string label -> bytes (NUL-terminated when emitted)
    strings: dict[str, str] = dataclasses.field(default_factory=dict)

    def function(self, name: str) -> IRFunction:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)


def format_ir(program: IRProgram) -> str:
    """Pretty-print an IR program (for tests and debugging)."""
    lines: list[str] = []
    for gdef in program.globals:
        lines.append(f"global {gdef.var.name}: {gdef.var.type}")
    for label, text in program.strings.items():
        lines.append(f"string {label}: {text!r}")
    for func in program.functions:
        params = ", ".join(p.name for p in func.params)
        lines.append(f"func {func.name}({params}):")
        for instr in func.instrs:
            if isinstance(instr, Label):
                lines.append(f"{instr.name}:")
            else:
                lines.append(f"    {_format_instr(instr)}")
    return "\n".join(lines)


def _fmt(op: Operand) -> str:
    if isinstance(op, Temp):
        return repr(op)
    if isinstance(op, VarInfo):
        return op.name
    return str(op)


def _format_instr(instr: Instr) -> str:
    if isinstance(instr, Const):
        return f"{instr.dst} = {instr.value}"
    if isinstance(instr, Move):
        return f"{instr.dst} = {_fmt(instr.src)}"
    if isinstance(instr, UnOp):
        return f"{instr.dst} = {instr.op} {_fmt(instr.src)}"
    if isinstance(instr, BinOp):
        return f"{instr.dst} = {_fmt(instr.a)} {instr.op} {_fmt(instr.b)}"
    if isinstance(instr, SetCmp):
        return f"{instr.dst} = {_fmt(instr.a)} {instr.op} {_fmt(instr.b)}"
    if isinstance(instr, Load):
        sign = "s" if instr.signed else "u"
        return f"{instr.dst} = load{instr.width}{sign} [{_fmt(instr.addr)}+{instr.offset}]"
    if isinstance(instr, Store):
        return f"store{instr.width} [{_fmt(instr.addr)}+{instr.offset}] = {_fmt(instr.src)}"
    if isinstance(instr, AddrVar):
        return f"{instr.dst} = &{instr.var.name}"
    if isinstance(instr, GetVar):
        return f"{instr.dst} = {instr.var.name}"
    if isinstance(instr, SetVar):
        return f"{instr.var.name} = {_fmt(instr.src)}"
    if isinstance(instr, Call):
        args = ", ".join(_fmt(a) for a in instr.args)
        prefix = f"{instr.dst} = " if instr.dst else ""
        return f"{prefix}call {instr.name}({args})"
    if isinstance(instr, Jump):
        return f"jump {instr.target}"
    if isinstance(instr, CBranch):
        return f"if {_fmt(instr.a)} {instr.op} {_fmt(instr.b)} goto {instr.target}"
    if isinstance(instr, Ret):
        return f"ret {_fmt(instr.src)}" if instr.src is not None else "ret"
    if isinstance(instr, SrcLoc):
        return f"# line {instr.line}"
    return repr(instr)
