"""Instruction set of the VAX-like baseline.

Opcodes follow the real VAX numbering where one exists (MOVL = 0xD0,
ADDL3 = 0xC1, CALLS = 0xFB, ...); the handful of convenience instructions
that real VAX spells differently (ANDL2/3 instead of BICL2/3) take unused
opcodes and are documented as simplifications.

Each instruction lists its operands as ``(access, width)`` pairs:

* ``r`` — read value
* ``w`` — write value
* ``m`` — modify (read then write)
* ``a`` — address (effective address is the operand)
* ``b`` — branch displacement (16-bit, a documented simplification of
  VAX's 8-bit conditional branches)

:func:`decode` is the one byte-level parse of an instruction, shared by
the translating engine (:mod:`repro.baselines.vax.engine`) and the
disassembler.  The reference ``VaxCPU.step()`` keeps its own parse, so
the engine differential tests compare two independent decoders.
"""

from __future__ import annotations

import dataclasses
import enum


class Mode(enum.IntEnum):
    """Operand-specifier addressing modes (high nibble of the spec byte)."""

    LITERAL = 0x0  # modes 0..3: 6-bit short literal
    REGISTER = 0x5
    DEFERRED = 0x6  # (Rn)
    AUTODEC = 0x7  # -(Rn)
    AUTOINC = 0x8  # (Rn)+ ; reg 15 -> immediate
    ABSOLUTE = 0x9  # with reg 15: @#address
    DISP8 = 0xA
    DISP16 = 0xC
    DISP32 = 0xE


#: Register aliases.
AP, FP, SP, PC = 12, 13, 14, 15
REGISTER_NAMES = {**{f"r{i}": i for i in range(16)}, "ap": AP, "fp": FP, "sp": SP, "pc": PC}


@dataclasses.dataclass(frozen=True)
class OperandSpec:
    access: str  # r, w, m, a, b
    width: int  # 1, 2, 4


def _ops(*pairs: str) -> tuple[OperandSpec, ...]:
    return tuple(OperandSpec(p[0], int(p[1])) for p in pairs)


@dataclasses.dataclass(frozen=True)
class VaxOpcodeInfo:
    opcode: int
    mnemonic: str
    operands: tuple[OperandSpec, ...]
    kind: str  # classification for the timing model


#: mnemonic -> definition.
INSTRUCTIONS: dict[str, VaxOpcodeInfo] = {
    info.mnemonic: info
    for info in (
        VaxOpcodeInfo(0x00, "halt", _ops(), "control"),
        VaxOpcodeInfo(0x04, "ret", _ops(), "ret"),
        VaxOpcodeInfo(0x11, "brb", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x31, "brw", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x12, "bneq", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x13, "beql", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x14, "bgtr", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x15, "bleq", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x18, "bgeq", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x19, "blss", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x1A, "bgtru", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x1B, "blequ", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x1E, "bgequ", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x1F, "blssu", _ops("b2"), "branch"),
        VaxOpcodeInfo(0x17, "jmp", _ops("a4"), "branch"),
        VaxOpcodeInfo(0xFB, "calls", _ops("r4", "a4"), "calls"),
        VaxOpcodeInfo(0x90, "movb", _ops("r1", "w1"), "move"),
        VaxOpcodeInfo(0xB0, "movw", _ops("r2", "w2"), "move"),
        VaxOpcodeInfo(0xD0, "movl", _ops("r4", "w4"), "move"),
        VaxOpcodeInfo(0x9A, "movzbl", _ops("r1", "w4"), "move"),
        VaxOpcodeInfo(0x98, "cvtbl", _ops("r1", "w4"), "move"),
        VaxOpcodeInfo(0x3C, "movzwl", _ops("r2", "w4"), "move"),
        VaxOpcodeInfo(0x32, "cvtwl", _ops("r2", "w4"), "move"),
        VaxOpcodeInfo(0xDE, "moval", _ops("a4", "w4"), "move"),
        VaxOpcodeInfo(0xDD, "pushl", _ops("r4"), "push"),
        VaxOpcodeInfo(0xD4, "clrl", _ops("w4"), "move"),
        VaxOpcodeInfo(0xD5, "tstl", _ops("r4"), "alu"),
        VaxOpcodeInfo(0xD6, "incl", _ops("m4"), "alu"),
        VaxOpcodeInfo(0xD7, "decl", _ops("m4"), "alu"),
        VaxOpcodeInfo(0xCE, "mnegl", _ops("r4", "w4"), "alu"),
        VaxOpcodeInfo(0xD2, "mcoml", _ops("r4", "w4"), "alu"),
        VaxOpcodeInfo(0xC0, "addl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xC1, "addl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xC2, "subl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xC3, "subl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xC4, "mull2", _ops("r4", "m4"), "mul"),
        VaxOpcodeInfo(0xC5, "mull3", _ops("r4", "r4", "w4"), "mul"),
        VaxOpcodeInfo(0xC6, "divl2", _ops("r4", "m4"), "div"),
        VaxOpcodeInfo(0xC7, "divl3", _ops("r4", "r4", "w4"), "div"),
        VaxOpcodeInfo(0xC8, "bisl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xC9, "bisl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xCC, "xorl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xCD, "xorl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xE0, "andl2", _ops("r4", "m4"), "alu"),
        VaxOpcodeInfo(0xE1, "andl3", _ops("r4", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0x78, "ashl", _ops("r1", "r4", "w4"), "alu"),
        VaxOpcodeInfo(0xD1, "cmpl", _ops("r4", "r4"), "alu"),
        VaxOpcodeInfo(0x91, "cmpb", _ops("r1", "r1"), "alu"),
        VaxOpcodeInfo(0xB1, "cmpw", _ops("r2", "r2"), "alu"),
    )
}

BY_OPCODE: dict[int, VaxOpcodeInfo] = {info.opcode: info for info in INSTRUCTIONS.values()}

#: Conditional-branch condition evaluators on (n, z, v, c).
BRANCH_CONDITIONS = {
    "brb": lambda n, z, v, c: True,
    "brw": lambda n, z, v, c: True,
    "beql": lambda n, z, v, c: z,
    "bneq": lambda n, z, v, c: not z,
    "blss": lambda n, z, v, c: n,
    "bleq": lambda n, z, v, c: n or z,
    "bgtr": lambda n, z, v, c: not (n or z),
    "bgeq": lambda n, z, v, c: not n,
    "blssu": lambda n, z, v, c: c,
    "blequ": lambda n, z, v, c: c or z,
    "bgtru": lambda n, z, v, c: not (c or z),
    "bgequ": lambda n, z, v, c: not c,
}


#: Bytes of displacement that follow a displacement-mode specifier.
DISP_SIZES = {Mode.DISP8: 1, Mode.DISP16: 2, Mode.DISP32: 4}


@dataclasses.dataclass(frozen=True)
class Specifier:
    """One decoded operand of an instruction.

    ``family`` is the addressing mode as the timing model prices it (the
    keys of ``VaxTiming.specifier_cycles``): ``literal``, ``immediate``,
    ``register``, ``deferred``, ``autoinc``, ``autodec``, ``disp``,
    ``absolute`` or ``branch`` — or ``bad`` for a specifier byte the
    machine does not implement, which includes every mode but immediate
    and absolute on r15 (the PC).  ``value`` is the literal or immediate
    as encoded (unsigned), the absolute address, the signed
    displacement (``disp`` and ``branch``) or the offending byte
    (``bad``).
    """

    family: str
    reg: int
    value: int
    access: str
    width: int


@dataclasses.dataclass(frozen=True)
class Decoded:
    """One parsed instruction: its definition, operands and byte length."""

    info: VaxOpcodeInfo
    operands: tuple[Specifier, ...]
    length: int


def decode(data: bytes | bytearray, offset: int) -> Decoded | None:
    """Parse the instruction starting at ``data[offset]``.

    Returns ``None`` for an unknown opcode.  A bad specifier byte
    decodes as a one-byte ``bad`` operand and parsing goes on, so a
    listing can show it; bytes missing past the end of ``data`` read as
    a shorter field, and ``length`` then runs past the end — a caller
    that executes must check both.
    """
    pos = offset

    def take(width: int) -> int:
        nonlocal pos
        value = int.from_bytes(data[pos : pos + width], "big")
        pos += width
        return value

    info = BY_OPCODE.get(take(1))
    if info is None:
        return None
    operands = []
    for spec in info.operands:
        access, width = spec.access, spec.width
        if access == "b":
            disp = take(2)
            disp = (disp & 0x7FFF) - (disp & 0x8000)
            operands.append(Specifier("branch", 0, disp, access, width))
            continue
        byte = take(1)
        mode, reg = byte >> 4, byte & 0xF
        if byte < 0x40:
            operand = Specifier("literal", 0, byte, access, width)
        elif reg == PC and mode != Mode.AUTOINC and mode != Mode.ABSOLUTE:
            # the PC is no general register: only immediate and absolute name it
            operand = Specifier("bad", 0, byte, access, width)
        elif mode == Mode.REGISTER:
            operand = Specifier("register", reg, 0, access, width)
        elif mode == Mode.DEFERRED:
            operand = Specifier("deferred", reg, 0, access, width)
        elif mode == Mode.AUTODEC:
            operand = Specifier("autodec", reg, 0, access, width)
        elif mode == Mode.AUTOINC and reg == 15:
            operand = Specifier("immediate", 0, take(width), access, width)
        elif mode == Mode.AUTOINC:
            operand = Specifier("autoinc", reg, 0, access, width)
        elif mode == Mode.ABSOLUTE and reg == 15:
            operand = Specifier("absolute", 0, take(4), access, width)
        elif mode in DISP_SIZES:
            size = DISP_SIZES[mode]
            disp = take(size)
            sign = 1 << (size * 8 - 1)
            operand = Specifier("disp", reg, (disp & (sign - 1)) - (disp & sign), access, width)
        else:
            operand = Specifier("bad", 0, byte, access, width)
        operands.append(operand)
    return Decoded(info, tuple(operands), pos - offset)
