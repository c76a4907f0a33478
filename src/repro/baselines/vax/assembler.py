"""Assembler for the VAX-like baseline.

Line syntax, directives and layout come from :mod:`repro.asm.core`; this
module adds what makes the machine a CISC: operand-specifier parsing,
variable-length sizing and encoding.

Operand syntax (a subset of VAX MACRO):

=================  ==========================================
``#42`` / ``#sym``  short literal (0..63) or full immediate
``r3 sp fp ap``     register
``(r3)``            register deferred
``-(sp)``           autodecrement push
``(r3)+``           autoincrement
``8(fp)``           displacement (8/16/32-bit chosen by value)
``@#sym``           absolute address
``sym``             absolute (address operands) or 16-bit
                    relative displacement (branch operands)
=================  ==========================================

Directives: ``.text .data .entry .long .word .byte .space .ascii .asciiz
.align .equ .global``.  ``.entry mask`` emits the 2-byte register-save
mask that CALLS reads at the procedure entry point.
"""

from __future__ import annotations

import dataclasses
import re

from repro.asm.core import (
    NAME_RE,
    AssemblerError,
    Statement,
    TwoPassAssembler,
    parse_number,
    split_symbol,
)
from repro.baselines.vax.isa import INSTRUCTIONS, PC, Mode, REGISTER_NAMES, OperandSpec
from repro.core.program import DEFAULT_CODE_BASE, Program

_REG_TEXT = r"(?:r\d{1,2}|sp|fp|ap|pc)"
_DISP_RE = re.compile(rf"^(-?\w+)\(({_REG_TEXT})\)$", re.IGNORECASE)
_DEFERRED_RE = re.compile(rf"^\(({_REG_TEXT})\)$", re.IGNORECASE)
_AUTOINC_RE = re.compile(rf"^\(({_REG_TEXT})\)\+$", re.IGNORECASE)
_AUTODEC_RE = re.compile(rf"^-\(({_REG_TEXT})\)$", re.IGNORECASE)


def _reg_lookup(name: str, line: int) -> int:
    """A general register: the PC (r15) is named only by ``#`` and ``@#``."""
    number = REGISTER_NAMES.get(name.lower())
    if number is None:
        raise AssemblerError(f"bad register {name!r}", line)
    if number == PC:
        raise AssemblerError(f"the PC is not a general register: {name!r}", line)
    return number


@dataclasses.dataclass(slots=True)
class Operand:
    """A parsed operand specifier with enough information for exact sizing."""

    #: literal, immediate, register, deferred, autoinc, autodec, disp,
    #: absolute, symbol, or mask (the operand of ``.entry``)
    kind: str
    reg: int = 0
    value: int = 0
    symbol: str | None = None
    #: constant added to a symbol's resolved value (``sym+4`` operands)
    addend: int = 0
    #: how the operand is written
    text: str = ""

    def size(self, width: int, access: str) -> int:
        if access == "b":
            return 2
        if self.kind == "literal":
            return 1
        if self.kind == "immediate":
            return 1 + width
        if self.kind in ("register", "deferred", "autoinc", "autodec"):
            return 1
        if self.kind == "disp":
            return 1 + _disp_bytes(self.value)
        if self.kind in ("absolute", "symbol"):
            return 5
        raise AssertionError(self.kind)


def _disp_bytes(value: int) -> int:
    if -128 <= value <= 127:
        return 1
    if -32768 <= value <= 32767:
        return 2
    return 4


def parse_operand(text: str, line: int) -> Operand:
    text = text.strip()
    if text.startswith("@#"):
        rest = text[2:]
        expr = split_symbol(rest, line)
        if expr:
            return Operand("absolute", symbol=expr[0], addend=expr[1], text=text)
        return Operand("absolute", value=parse_number(rest, line), text=text)
    if text.startswith("#"):
        rest = text[1:]
        if NAME_RE.match(rest) and not rest.lstrip("-").isdigit():
            return Operand("immediate", symbol=rest, text=text)
        return immediate(parse_number(rest, line), text)
    if text.lower() in REGISTER_NAMES:
        return Operand("register", reg=_reg_lookup(text, line), text=text)
    match = _AUTODEC_RE.match(text)
    if match:
        return Operand("autodec", reg=_reg_lookup(match.group(1), line), text=text)
    match = _AUTOINC_RE.match(text)
    if match:
        return Operand("autoinc", reg=_reg_lookup(match.group(1), line), text=text)
    match = _DEFERRED_RE.match(text)
    if match:
        return Operand("deferred", reg=_reg_lookup(match.group(1), line), text=text)
    match = _DISP_RE.match(text)
    if match:
        disp = parse_number(match.group(1), line)
        return Operand("disp", reg=_reg_lookup(match.group(2), line), value=disp, text=text)
    if NAME_RE.match(text):
        return Operand("symbol", symbol=text, text=text)
    raise AssemblerError(f"cannot parse operand {text!r}", line)


# -- operands for code generators --------------------------------------------------


def immediate(value: int, text: str = "") -> Operand:
    """``#value``: a short literal when it fits in 6 bits."""
    kind = "literal" if 0 <= value <= 63 else "immediate"
    return Operand(kind, value=value, text=text or f"#{value}")


_REGISTERS = {
    name: Operand("register", reg=number, text=name) for name, number in REGISTER_NAMES.items()
}


def register(name: str) -> Operand:
    """A register by name (``r2``, ``sp``)."""
    return _REGISTERS[name]


def displacement(offset: int, base: str) -> Operand:
    """``offset(base)``."""
    return Operand("disp", reg=REGISTER_NAMES[base], value=offset, text=f"{offset}({base})")


def deferred(base: str) -> Operand:
    """``(base)``."""
    return Operand("deferred", reg=REGISTER_NAMES[base], text=f"({base})")


def absolute(name: str) -> Operand:
    """``@#name``: the memory word at a symbol's address."""
    return Operand("absolute", symbol=name, text=f"@#{name}")


def symbol(name: str) -> Operand:
    """A bare symbol: a branch target or a procedure."""
    return Operand("symbol", symbol=name, text=name)


class VaxAssembler(TwoPassAssembler):
    """VAX-like: a one-byte opcode followed by variable-length operand specifiers."""

    DATA_WIDTHS = {".long": 4, ".word": 2, ".byte": 1}
    ENTRY_SYMBOLS = ("__start", "main")
    TARGET_DIRECTIVES = frozenset({".entry"})
    DATA_IN_TEXT = True

    def parse_operands(self, stmt: Statement) -> list[Operand]:
        """The operand specifiers, or the register mask of ``.entry``."""
        m = stmt.mnemonic
        if m == ".entry":
            return [
                Operand("mask", value=parse_number(text, stmt.line), text=text)
                for text in stmt.operands[:1]
            ]
        info = INSTRUCTIONS.get(m)
        if info is None:
            raise AssemblerError(f"unknown mnemonic {m!r}", stmt.line)
        if len(stmt.operands) != len(info.operands):
            raise AssemblerError(
                f"{m} expects {len(info.operands)} operand(s), got {len(stmt.operands)}",
                stmt.line,
            )
        return [parse_operand(text, stmt.line) for text in stmt.operands]

    def size(self, stmt: Statement) -> int:
        if stmt.mnemonic == ".entry":
            return 2
        info = INSTRUCTIONS[stmt.mnemonic]
        return 1 + sum(
            operand.size(spec.width, spec.access)
            for operand, spec in zip(stmt.parsed, info.operands)
        )

    def encode(self, stmt: Statement, address: int) -> bytes:
        if stmt.mnemonic == ".entry":
            return (stmt.parsed[0].value if stmt.parsed else 0).to_bytes(2, "big")
        info = INSTRUCTIONS[stmt.mnemonic]
        out = bytearray([info.opcode])
        for operand, spec in zip(stmt.parsed, info.operands):
            out += self._encode_operand(operand, spec, address + len(out), stmt.line)
        return bytes(out)

    def _value(self, operand: Operand, line: int) -> int:
        """A symbolic operand's resolved address, else its number."""
        if operand.symbol:
            return self.resolve(operand.symbol, line) + operand.addend
        return operand.value

    def _encode_operand(
        self, operand: Operand, spec: OperandSpec, cursor: int, line: int
    ) -> bytes:
        if spec.access == "b":
            if operand.kind in ("symbol", "immediate", "literal"):
                target = self._value(operand, line)
            else:
                raise AssemblerError("branch needs a label or address", line)
            disp = target - (cursor + 2)
            if not -32768 <= disp <= 32767:
                raise AssemblerError(f"branch displacement {disp} out of range", line)
            return disp.to_bytes(2, "big", signed=True)

        kind = operand.kind
        if kind == "symbol":
            # bare symbol: absolute for address operands, immediate otherwise
            value = self._value(operand, line)
            if spec.access == "a":
                return bytes([(Mode.ABSOLUTE << 4) | 15]) + value.to_bytes(4, "big")
            return bytes([(Mode.AUTOINC << 4) | 15]) + (value & 0xFFFFFFFF).to_bytes(4, "big")
        if kind == "literal":
            return bytes([operand.value & 0x3F])
        if kind == "immediate":
            value = self._value(operand, line)
            mask = (1 << (8 * spec.width)) - 1
            return bytes([(Mode.AUTOINC << 4) | 15]) + (value & mask).to_bytes(
                spec.width, "big"
            )
        if kind == "register":
            return bytes([(Mode.REGISTER << 4) | operand.reg])
        if kind == "deferred":
            return bytes([(Mode.DEFERRED << 4) | operand.reg])
        if kind == "autoinc":
            return bytes([(Mode.AUTOINC << 4) | operand.reg])
        if kind == "autodec":
            return bytes([(Mode.AUTODEC << 4) | operand.reg])
        if kind == "absolute":
            value = self._value(operand, line)
            return bytes([(Mode.ABSOLUTE << 4) | 15]) + (value & 0xFFFFFFFF).to_bytes(4, "big")
        if kind == "disp":
            size = _disp_bytes(operand.value)
            mode = {1: Mode.DISP8, 2: Mode.DISP16, 4: Mode.DISP32}[size]
            return bytes([(mode << 4) | operand.reg]) + operand.value.to_bytes(
                size, "big", signed=True
            )
        raise AssertionError(kind)


def assemble_vax(source: str, code_base: int = DEFAULT_CODE_BASE) -> Program:
    """Assemble VAX-like assembly into a loadable program."""
    return VaxAssembler(code_base).assemble(source)
