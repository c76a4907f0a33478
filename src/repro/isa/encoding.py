"""Binary instruction encoding for RISC I.

Every RISC I instruction is exactly 32 bits.  There are two layouts:

Short-immediate format (most instructions)::

    31       25  24  23    19  18    14  13  12            0
    +----------+---+--------+--------+---+-----------------+
    |  opcode  |scc|  dest  |  rs1   |imm|       s2        |
    +----------+---+--------+--------+---+-----------------+
       7 bits    1    5        5       1       13 bits

    imm = 0: s2<4:0> names a register; imm = 1: s2 is a sign-extended
    13-bit immediate.

Long-immediate format (LDHI, JMPR, CALLR)::

    31       25  24  23    19  18                          0
    +----------+---+--------+-----------------------------+
    |  opcode  |scc|  dest  |              Y              |
    +----------+---+--------+-----------------------------+
       7 bits    1    5                19 bits

Conditional jumps reuse the ``dest`` field to hold the 4-bit condition.
"""

from __future__ import annotations

import dataclasses

from repro.isa.conditions import Cond
from repro.isa.opcodes import Format, Opcode, opcode_info

#: Instruction width in bytes; fixed, one of the core RISC I design rules.
INSTRUCTION_BYTES = 4

S2_BITS = 13
Y_BITS = 19
S2_MIN = -(1 << (S2_BITS - 1))
S2_MAX = (1 << (S2_BITS - 1)) - 1
Y_MIN = -(1 << (Y_BITS - 1))
Y_MAX = (1 << (Y_BITS - 1)) - 1


class EncodingError(ValueError):
    """Raised when an instruction's fields do not fit its format."""


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise EncodingError(f"{name}={value} out of range [{lo}, {hi}]")


@dataclasses.dataclass(frozen=True)
class Instruction:
    """A decoded RISC I instruction.

    ``dest`` holds the destination register for most instructions, the
    source register for stores/PUTPSW, and the jump condition for JMP/JMPR.
    For the short format, ``s2`` is a register number when ``imm`` is False
    and a signed 13-bit immediate when ``imm`` is True.  For the long
    format, ``y`` is the signed 19-bit immediate and the other operand
    fields are ignored.
    """

    opcode: Opcode
    dest: int = 0
    rs1: int = 0
    s2: int = 0
    imm: bool = False
    y: int = 0
    scc: bool = False

    @property
    def format(self) -> Format:
        return opcode_info(self.opcode).format

    @property
    def cond(self) -> Cond:
        """The jump condition (only meaningful for JMP/JMPR)."""
        return Cond(self.dest & 0xF)

    @classmethod
    def short(
        cls,
        opcode: Opcode,
        dest: int = 0,
        rs1: int = 0,
        s2: int = 0,
        imm: bool = False,
        scc: bool = False,
    ) -> "Instruction":
        """Build and validate a short-format instruction."""
        inst = cls(opcode=opcode, dest=dest, rs1=rs1, s2=s2, imm=imm, scc=scc)
        inst.validate()
        return inst

    @classmethod
    def long(cls, opcode: Opcode, dest: int = 0, y: int = 0, scc: bool = False) -> "Instruction":
        """Build and validate a long-format instruction."""
        inst = cls(opcode=opcode, dest=dest, y=y, scc=scc)
        inst.validate()
        return inst

    def validate(self) -> None:
        """Raise :class:`EncodingError` if any field is out of range."""
        _check_fields(self.opcode, self.dest, self.rs1, self.s2, self.imm, self.y)


def _check_fields(opcode: Opcode, dest: int, rs1: int, s2: int, imm: bool, y: int) -> Format:
    """Check every field against the opcode's format; return the format."""
    fmt = opcode_info(opcode).format
    _check_range("dest", dest, 0, 31)
    if fmt is Format.LONG:
        _check_range("y", y, Y_MIN, Y_MAX)
        return fmt
    _check_range("rs1", rs1, 0, 31)
    if imm:
        _check_range("s2", s2, S2_MIN, S2_MAX)
    else:
        _check_range("s2 (register)", s2, 0, 31)
    return fmt


def encode_fields(
    opcode: Opcode,
    dest: int = 0,
    rs1: int = 0,
    s2: int = 0,
    imm: bool = False,
    y: int = 0,
    scc: bool = False,
) -> int:
    """Validate an instruction given by its fields and encode it into its
    32-bit binary word (the fields of :class:`Instruction`)."""
    fmt = _check_fields(opcode, dest, rs1, s2, imm, y)
    word = (int(opcode) & 0x7F) << 25 | (1 if scc else 0) << 24 | (dest & 0x1F) << 19
    if fmt is Format.LONG:
        return word | y & ((1 << Y_BITS) - 1)
    return word | (rs1 & 0x1F) << 14 | (1 if imm else 0) << 13 | s2 & ((1 << S2_BITS) - 1)


def encode(inst: Instruction) -> int:
    """Validate an instruction and encode it into its 32-bit binary word."""
    return encode_fields(inst.opcode, inst.dest, inst.rs1, inst.s2, inst.imm, inst.y, inst.scc)


def _sign_extend(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def decode(word: int) -> Instruction:
    """Decode a 32-bit binary word into an :class:`Instruction`.

    Raises :class:`EncodingError` for an opcode that is not one of the 31
    RISC I instructions (this models the illegal-instruction trap).
    """
    if not 0 <= word <= 0xFFFFFFFF:
        raise EncodingError(f"instruction word out of 32-bit range: {word:#x}")
    opcode_num = (word >> 25) & 0x7F
    try:
        opcode = Opcode(opcode_num)
    except ValueError:
        raise EncodingError(f"illegal opcode {opcode_num:#04x} in word {word:#010x}") from None

    scc = bool((word >> 24) & 1)
    dest = (word >> 19) & 0x1F
    if opcode_info(opcode).format is Format.LONG:
        return Instruction(opcode=opcode, dest=dest, scc=scc, y=_sign_extend(word, Y_BITS))

    rs1 = (word >> 14) & 0x1F
    imm = bool((word >> 13) & 1)
    raw_s2 = word & ((1 << S2_BITS) - 1)
    s2 = _sign_extend(raw_s2, S2_BITS) if imm else raw_s2 & 0x1F
    return Instruction(opcode=opcode, dest=dest, rs1=rs1, s2=s2, imm=imm, scc=scc)


def format_fields(fmt: Format) -> tuple[tuple[str, int], ...]:
    """Return the (name, width) bit-field layout of a format, MSB first.

    Used by the Figure-2 (instruction formats) reproduction.
    """
    if fmt is Format.SHORT:
        return (("opcode", 7), ("scc", 1), ("dest", 5), ("rs1", 5), ("imm", 1), ("s2", 13))
    return (("opcode", 7), ("scc", 1), ("dest", 5), ("y", 19))
