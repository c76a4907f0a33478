"""The 31 instructions of RISC I.

The paper's Table III lists the complete instruction set: 12 arithmetic and
logical instructions, 8 memory-access instructions (five loads, three
stores), 7 control-transfer instructions, and 4 miscellaneous instructions.
This module is the single source of truth for the instruction set; the
assembler, disassembler, simulator, code generator and the Table III
reproduction all derive from :data:`INSTRUCTION_SET_TABLE`.
"""

from __future__ import annotations

import dataclasses
import enum


class Category(enum.Enum):
    """Instruction category, matching the grouping in the paper's table."""

    ARITH = "arithmetic/logical"
    MEMORY = "memory access"
    CONTROL = "control transfer"
    MISC = "miscellaneous"


class Format(enum.Enum):
    """Instruction encoding format.

    RISC I has a single 32-bit instruction size with two layouts:

    * ``SHORT``: ``opcode(7) | scc(1) | dest(5) | rs1(5) | imm(1) | s2(13)``
      where ``s2`` is a register number when ``imm`` is 0 and a
      sign-extended 13-bit immediate when ``imm`` is 1.
    * ``LONG``: ``opcode(7) | scc(1) | dest(5) | y(19)`` with a 19-bit
      immediate (used by LDHI and the PC-relative jump and call).
    """

    SHORT = "short"
    LONG = "long"


class Opcode(enum.IntEnum):
    """Machine opcodes (7-bit field).

    The concrete numeric assignment below is our own (the paper does not
    publish the opcode map); what matters architecturally is that there are
    31 instructions and the opcode field is 7 bits wide.
    """

    # -- arithmetic / logical (12) ------------------------------------
    ADD = 0x01
    ADDC = 0x02
    SUB = 0x03
    SUBC = 0x04
    SUBR = 0x05
    SUBCR = 0x06
    AND = 0x07
    OR = 0x08
    XOR = 0x09
    SLL = 0x0A
    SRL = 0x0B
    SRA = 0x0C
    # -- memory access (8) --------------------------------------------
    LDL = 0x10
    LDSU = 0x11
    LDSS = 0x12
    LDBU = 0x13
    LDBS = 0x14
    STL = 0x18
    STS = 0x19
    STB = 0x1A
    # -- control transfer (7) -----------------------------------------
    JMP = 0x20
    JMPR = 0x21
    CALL = 0x22
    CALLR = 0x23
    RET = 0x24
    CALLINT = 0x25
    RETINT = 0x26
    # -- miscellaneous (4) ----------------------------------------------
    LDHI = 0x30
    GTLPC = 0x31
    GETPSW = 0x32
    PUTPSW = 0x33


@dataclasses.dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one instruction (one row of Table III)."""

    opcode: Opcode
    mnemonic: str
    category: Category
    format: Format
    operands: str
    semantics: str
    comment: str
    #: Execution time in processor cycles (1 for register ops, 2 for
    #: instructions that make a data-memory access).
    cycles: int
    #: Whether the instruction reads or writes data memory.
    memory_access: bool = False
    #: Whether the instruction is a delayed control transfer.
    delayed: bool = False
    #: Whether the SCC (set condition codes) bit is meaningful.
    may_set_cc: bool = False


def _arith(op: Opcode, sem: str, comment: str) -> OpcodeInfo:
    return OpcodeInfo(
        opcode=op,
        mnemonic=op.name.lower(),
        category=Category.ARITH,
        format=Format.SHORT,
        operands="Rs,S2,Rd",
        semantics=sem,
        comment=comment,
        cycles=1,
        may_set_cc=True,
    )


def _load(op: Opcode, sem: str, comment: str) -> OpcodeInfo:
    return OpcodeInfo(
        opcode=op,
        mnemonic=op.name.lower(),
        category=Category.MEMORY,
        format=Format.SHORT,
        operands="(Rs)S2,Rd",
        semantics=sem,
        comment=comment,
        cycles=2,
        memory_access=True,
    )


def _store(op: Opcode, sem: str, comment: str) -> OpcodeInfo:
    return OpcodeInfo(
        opcode=op,
        mnemonic=op.name.lower(),
        category=Category.MEMORY,
        format=Format.SHORT,
        operands="Rm,(Rs)S2",
        semantics=sem,
        comment=comment,
        cycles=2,
        memory_access=True,
    )


#: The complete RISC I instruction set — exactly 31 instructions.
INSTRUCTION_SET_TABLE: tuple[OpcodeInfo, ...] = (
    _arith(Opcode.ADD, "Rd := Rs + S2", "integer add"),
    _arith(Opcode.ADDC, "Rd := Rs + S2 + carry", "add with carry"),
    _arith(Opcode.SUB, "Rd := Rs - S2", "integer subtract"),
    _arith(Opcode.SUBC, "Rd := Rs - S2 - ~carry", "subtract with carry"),
    _arith(Opcode.SUBR, "Rd := S2 - Rs", "integer subtract, reversed"),
    _arith(Opcode.SUBCR, "Rd := S2 - Rs - ~carry", "subtract with carry, reversed"),
    _arith(Opcode.AND, "Rd := Rs & S2", "logical AND"),
    _arith(Opcode.OR, "Rd := Rs | S2", "logical OR"),
    _arith(Opcode.XOR, "Rd := Rs xor S2", "logical EXCLUSIVE OR"),
    _arith(Opcode.SLL, "Rd := Rs shifted by S2", "shift left logical"),
    _arith(Opcode.SRL, "Rd := Rs shifted by S2", "shift right logical"),
    _arith(Opcode.SRA, "Rd := Rs shifted by S2", "shift right arithmetic"),
    _load(Opcode.LDL, "Rd := M[Rs + S2]", "load long (32-bit word)"),
    _load(Opcode.LDSU, "Rd := M[Rs + S2]", "load short unsigned (16-bit)"),
    _load(Opcode.LDSS, "Rd := M[Rs + S2]", "load short signed (16-bit)"),
    _load(Opcode.LDBU, "Rd := M[Rs + S2]", "load byte unsigned"),
    _load(Opcode.LDBS, "Rd := M[Rs + S2]", "load byte signed"),
    _store(Opcode.STL, "M[Rs + S2] := Rm", "store long (32-bit word)"),
    _store(Opcode.STS, "M[Rs + S2] := Rm", "store short (16-bit)"),
    _store(Opcode.STB, "M[Rs + S2] := Rm", "store byte"),
    OpcodeInfo(
        opcode=Opcode.JMP,
        mnemonic="jmp",
        category=Category.CONTROL,
        format=Format.SHORT,
        operands="COND,S2(Rs)",
        semantics="pc := Rs + S2",
        comment="conditional jump, delayed",
        cycles=1,
        delayed=True,
    ),
    OpcodeInfo(
        opcode=Opcode.JMPR,
        mnemonic="jmpr",
        category=Category.CONTROL,
        format=Format.LONG,
        operands="COND,Y",
        semantics="pc := pc + Y",
        comment="conditional relative jump, delayed",
        cycles=1,
        delayed=True,
    ),
    OpcodeInfo(
        opcode=Opcode.CALL,
        mnemonic="call",
        category=Category.CONTROL,
        format=Format.SHORT,
        operands="Rd,S2(Rs)",
        semantics="Rd := pc; pc := Rs + S2; CWP := CWP + 1",
        comment="call procedure and change window, delayed",
        cycles=1,
        delayed=True,
    ),
    OpcodeInfo(
        opcode=Opcode.CALLR,
        mnemonic="callr",
        category=Category.CONTROL,
        format=Format.LONG,
        operands="Rd,Y",
        semantics="Rd := pc; pc := pc + Y; CWP := CWP + 1",
        comment="call relative and change window, delayed",
        cycles=1,
        delayed=True,
    ),
    OpcodeInfo(
        opcode=Opcode.RET,
        mnemonic="ret",
        category=Category.CONTROL,
        format=Format.SHORT,
        operands="Rm,S2",
        semantics="pc := Rm + S2; CWP := CWP - 1",
        comment="return and restore window, delayed",
        cycles=1,
        delayed=True,
    ),
    OpcodeInfo(
        opcode=Opcode.CALLINT,
        mnemonic="callint",
        category=Category.CONTROL,
        format=Format.SHORT,
        operands="Rd",
        semantics="Rd := last pc; CWP := CWP + 1",
        comment="disable interrupts, enter trap window",
        cycles=1,
    ),
    OpcodeInfo(
        opcode=Opcode.RETINT,
        mnemonic="retint",
        category=Category.CONTROL,
        format=Format.SHORT,
        operands="Rm,S2",
        semantics="pc := Rm + S2; CWP := CWP - 1",
        comment="enable interrupts, exit trap window, delayed",
        cycles=1,
        delayed=True,
    ),
    OpcodeInfo(
        opcode=Opcode.LDHI,
        mnemonic="ldhi",
        category=Category.MISC,
        format=Format.LONG,
        operands="Rd,Y",
        semantics="Rd<31:13> := Y; Rd<12:0> := 0",
        comment="load immediate high (build 32-bit constants)",
        cycles=1,
    ),
    OpcodeInfo(
        opcode=Opcode.GTLPC,
        mnemonic="gtlpc",
        category=Category.MISC,
        format=Format.SHORT,
        operands="Rd",
        semantics="Rd := last pc",
        comment="restart delayed jump after interrupt",
        cycles=1,
    ),
    OpcodeInfo(
        opcode=Opcode.GETPSW,
        mnemonic="getpsw",
        category=Category.MISC,
        format=Format.SHORT,
        operands="Rd",
        semantics="Rd := PSW",
        comment="read processor status word",
        cycles=1,
    ),
    OpcodeInfo(
        opcode=Opcode.PUTPSW,
        mnemonic="putpsw",
        category=Category.MISC,
        format=Format.SHORT,
        operands="Rm",
        semantics="PSW := Rm",
        comment="write processor status word",
        cycles=1,
    ),
)

#: All opcodes, in table order.
ALL_OPCODES: tuple[Opcode, ...] = tuple(info.opcode for info in INSTRUCTION_SET_TABLE)

_BY_OPCODE: dict[Opcode, OpcodeInfo] = {info.opcode: info for info in INSTRUCTION_SET_TABLE}
_BY_MNEMONIC: dict[str, OpcodeInfo] = {
    info.mnemonic: info for info in INSTRUCTION_SET_TABLE
}


def opcode_info(key: "Opcode | str | int") -> OpcodeInfo:
    """Look up instruction metadata by :class:`Opcode`, mnemonic or number."""
    if isinstance(key, Opcode):
        return _BY_OPCODE[key]
    if isinstance(key, str):
        try:
            return _BY_MNEMONIC[key.lower()]
        except KeyError:
            raise KeyError(f"unknown mnemonic: {key!r}") from None
    try:
        return _BY_OPCODE[Opcode(key)]
    except ValueError:
        raise KeyError(f"unknown opcode: {key!r}") from None
