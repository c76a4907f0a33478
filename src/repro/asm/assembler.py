"""The RISC I assembler.

Line syntax, directives and layout come from :mod:`repro.asm.core`; this
module adds fixed-word sizing, pseudo-instruction expansion and encoding.

Syntax overview (see README for the full reference)::

    ; comment                         -- also "//" comments
            .text                     -- switch to the code section
            .data                     -- switch to the data section
    label:  add   r3, r1, r2          -- rd, rs1, s2 (register form)
            add!  r3, r1, #10         -- "!" sets the condition codes
            ldl   r4, 8(r1)           -- load word at r1+8
            stl   r4, 0(r2)           -- store word at r2+0
            jeq   done                 -- conditional relative jump (delayed)
            jmp   somewhere            -- unconditional jump (delayed)
            call  proc                 -- call, return address in callee r31
            ret                        -- return past call + delay slot
            set   r5, counter          -- 32-bit constant via LDHI+ADD
            mov   r5, r6               -- register copy
            cmp   r1, r2               -- compare (SUB with SCC, result dropped)
            nop                        -- ADD r0,r0,r0
            halt                       -- exit with code 0 (MMIO store)
    counter:
            .word 0

Registers ``r8`` and ``r9`` are reserved as assembler scratch for the
``set``-style pseudo expansions of ``halt``/``putc``/``puti``; user code and
the compiler never hold live values there across those pseudos.
"""

from __future__ import annotations

import dataclasses
import re

from repro.asm.core import AssemblerError, Statement, TwoPassAssembler, parse_number
from repro.isa.conditions import MNEMONIC_CONDS, Cond
from repro.isa.encoding import S2_MAX, S2_MIN, encode_fields
from repro.isa.opcodes import Opcode
from repro.core.program import DEFAULT_CODE_BASE, Program

MMIO_PUTCHAR = 0x7F000000
MMIO_PUTINT = 0x7F000004
MMIO_HALT = 0x7F00000C

#: Scratch registers used by pseudo-instruction expansions.
SCRATCH = 8

_ALU_OPS = {
    "add": Opcode.ADD,
    "addc": Opcode.ADDC,
    "sub": Opcode.SUB,
    "subc": Opcode.SUBC,
    "subr": Opcode.SUBR,
    "subcr": Opcode.SUBCR,
    "and": Opcode.AND,
    "or": Opcode.OR,
    "xor": Opcode.XOR,
    "sll": Opcode.SLL,
    "srl": Opcode.SRL,
    "sra": Opcode.SRA,
}
_LOAD_OPS = {
    "ldl": Opcode.LDL,
    "ldsu": Opcode.LDSU,
    "ldss": Opcode.LDSS,
    "ldbu": Opcode.LDBU,
    "ldbs": Opcode.LDBS,
}
_STORE_OPS = {"stl": Opcode.STL, "sts": Opcode.STS, "stb": Opcode.STB}

_REG_RE = re.compile(r"^r(\d{1,2})$", re.IGNORECASE)
_MEM_RE = re.compile(r"^(?P<off>[^()]*)\(\s*r(?P<reg>\d{1,2})\s*\)$", re.IGNORECASE)
#: Register-indexed effective address ``(rB)rX`` — base register plus an
#: index register in the S2 field (``imm=0`` encoding of loads/stores/jumps).
_IDX_RE = re.compile(r"^\(\s*r(?P<reg>\d{1,2})\s*\)\s*r(?P<idx>\d{1,2})$", re.IGNORECASE)


@dataclasses.dataclass(slots=True)
class Operand:
    """One RISC I operand: how it is written and what it names.

    ``kind`` is ``reg`` (``rN``), ``imm`` (``#expr``), ``mem``
    (``offset(rB)``), ``idx`` (``(rB)rX``) or ``expr`` (a bare number or
    ``sym±n``).  ``reg`` is the register, or the base register of an
    address; ``value`` is the immediate, offset or expression — a number,
    or text still to evaluate — or the index register of ``idx``.
    """

    text: str
    kind: str
    reg: int = 0
    value: int | str = 0


def parse_operand(text: str) -> Operand:
    """An operand's text as an :class:`Operand` (errors wait for encoding)."""
    text = text.strip()
    match = _REG_RE.match(text)
    if match:
        return Operand(text, "reg", int(match.group(1)))
    if text.startswith("#"):
        return Operand(text, "imm", value=text[1:])
    match = _IDX_RE.match(text)
    if match:
        return Operand(text, "idx", int(match.group("reg")), int(match.group("idx")))
    match = _MEM_RE.match(text)
    if match:
        offset = match.group("off").strip().lstrip("#")
        return Operand(text, "mem", int(match.group("reg")), offset or 0)
    return Operand(text, "expr", value=text)


#: the registers as operands, for code generators
REGISTERS = tuple(Operand(f"r{n}", "reg", n) for n in range(32))


def immediate(value: int) -> Operand:
    """``#value``."""
    return Operand(f"#{value}", "imm", value=value)


def memory(base: int, offset: int) -> Operand:
    """``offset(rBase)``."""
    return Operand(f"{offset}(r{base})", "mem", base, offset)


def symbol(name: str) -> Operand:
    """A bare symbol: a label, or the address of a global."""
    return Operand(name, "expr", value=name)


class Assembler(TwoPassAssembler):
    """RISC I: every instruction is one 32-bit word; pseudos expand to 1-3."""

    DATA_WIDTHS = {".word": 4, ".half": 2, ".byte": 1}
    ENTRY_SYMBOLS = ("_start", "main")
    SOURCE_MAP = True

    def parse_operands(self, stmt: Statement) -> list[Operand]:
        return [parse_operand(text) for text in stmt.operands]

    # -- instruction sizing --------------------------------------------------------

    def size(self, stmt: Statement) -> int:
        """Bytes an instruction/pseudo expands to (whole words)."""
        m = stmt.mnemonic.rstrip("!")
        if m in ("halt", "putc", "puti"):
            return 12
        if m in ("set", "mov") and len(stmt.parsed) == 2:
            src = stmt.parsed[1]
            if src.kind == "reg":
                return 4
            value = self._try_const(src)
            if value is not None and S2_MIN <= value <= S2_MAX:
                return 4
            return 8
        return 4

    def _try_const(self, operand: Operand) -> int | None:
        """Evaluate an operand as a pure constant, if possible now."""
        if isinstance(operand.value, int) and operand.kind in ("imm", "expr"):
            return operand.value
        text = operand.text.lstrip("#").strip()
        if text in self.equates:
            return self.equates[text]
        try:
            return parse_number(text, 0)
        except AssemblerError:
            return None

    # -- instruction emission ------------------------------------------------------

    def encode(self, stmt: Statement, address: int) -> bytes:
        m = stmt.mnemonic
        scc = m.endswith("!")
        words = self._dispatch(
            m.rstrip("!"), scc, stmt.parsed, address, stmt.line, stmt.size
        )
        return b"".join([word.to_bytes(4, "big") for word in words])

    def _dispatch(
        self, m: str, scc: bool, ops: list[Operand], address: int, line: int, size: int
    ) -> list[int]:
        if m in _ALU_OPS:
            return [self._alu(_ALU_OPS[m], scc, ops, line)]
        if m in _LOAD_OPS:
            return [self._memory(_LOAD_OPS[m], ops, line)]
        if m in _STORE_OPS:
            return [self._memory(_STORE_OPS[m], ops, line)]
        if m == "jmp" or (m.startswith("j") and m[1:] in MNEMONIC_CONDS):
            return [self._jump(m, ops, address, line)]
        if m == "jmpr":
            return [self._jmpr_explicit(ops, address, line)]
        if m == "call":
            return [self._call(ops, address, line)]
        if m == "callr":
            dest = self._reg(ops[0], line) if len(ops) == 2 else 31
            target = self._value(ops[-1], line)
            return [encode_fields(Opcode.CALLR, dest=dest, y=target - address)]
        if m == "ret":
            return [self._ret(Opcode.RET, ops, line)]
        if m == "retint":
            return [self._ret(Opcode.RETINT, ops, line)]
        if m == "callint":
            dest = self._reg(ops[0], line) if ops else 31
            return [encode_fields(Opcode.CALLINT, dest=dest)]
        if m == "ldhi":
            value = self._value(ops[1], line)
            return [encode_fields(Opcode.LDHI, dest=self._reg(ops[0], line), y=value)]
        if m in ("gtlpc", "getpsw", "putpsw"):
            return [encode_fields(Opcode[m.upper()], dest=self._reg(ops[0], line))]
        # -- pseudo-instructions ------------------------------------------
        if m == "nop":
            return [NOP_WORD]
        if m == "cmp":
            rs1 = self._reg(ops[0], line)
            imm, s2 = self._s2(ops[1], line)
            return [encode_fields(Opcode.SUB, 0, rs1, s2, imm, scc=True)]
        if m in ("set", "mov"):
            # pass 1's sizing decides the form: a constant equated only
            # later still gets the LDHI+ADD pair it was sized for
            return self._set(ops, line, wide=size == 8)
        if m == "halt":
            reg = self._reg(ops[0], line) if ops else 0
            return self._mmio_store(reg, MMIO_HALT)
        if m == "putc":
            return self._mmio_store(self._reg(ops[0], line), MMIO_PUTCHAR)
        if m == "puti":
            return self._mmio_store(self._reg(ops[0], line), MMIO_PUTINT)
        raise AssemblerError(f"unknown mnemonic {m!r}", line)

    def _alu(self, opcode: Opcode, scc: bool, ops: list[Operand], line: int) -> int:
        if len(ops) != 3:
            raise AssemblerError(f"{opcode.name} needs rd, rs1, s2", line)
        dest = self._reg(ops[0], line)
        rs1 = self._reg(ops[1], line)
        imm, s2 = self._s2(ops[2], line)
        return encode_fields(opcode, dest, rs1, s2, imm, scc=scc)

    def _memory(self, opcode: Opcode, ops: list[Operand], line: int) -> int:
        """A load (``dest`` is the loaded register) or a store (the stored one)."""
        reg = self._reg(ops[0], line)
        rs1, s2, imm = self._mem(ops[1], line)
        return encode_fields(opcode, reg, rs1, s2, imm)

    def _jump(self, m: str, ops: list[Operand], address: int, line: int) -> int:
        cond = Cond.ALW if m == "jmp" else MNEMONIC_CONDS[m[1:]]
        return self._transfer(Opcode.JMP, Opcode.JMPR, int(cond), ops[0], address, line)

    def _jmpr_explicit(self, ops: list[Operand], address: int, line: int) -> int:
        cond = MNEMONIC_CONDS[ops[0].text.lower()] if len(ops) == 2 else Cond.ALW
        target = self._value(ops[-1], line)
        return encode_fields(Opcode.JMPR, dest=int(cond), y=target - address)

    def _call(self, ops: list[Operand], address: int, line: int) -> int:
        # "call target" links through r31; "call rD, target" names the
        # link register explicitly (what the disassembler emits).
        if len(ops) == 1:
            dest, target = 31, ops[0]
        elif len(ops) == 2:
            dest, target = self._reg(ops[0], line), ops[1]
        else:
            raise AssemblerError(f"call needs [rd,] target, got {[op.text for op in ops]}", line)
        return self._transfer(Opcode.CALL, Opcode.CALLR, dest, target, address, line)

    def _transfer(
        self, short: Opcode, relative: Opcode, dest: int, target: Operand, address: int, line: int
    ) -> int:
        """A jump or call: to ``offset(rB)``, ``(rB)rX`` or ``rB`` through
        the short form, to a label through the PC-relative long form."""
        if target.kind in ("mem", "idx"):
            rs1, s2, imm = self._mem(target, line)
        elif target.kind == "reg":
            rs1, s2, imm = self._reg(target, line), 0, True
        else:
            value = self._value(target, line)
            return encode_fields(relative, dest=dest, y=value - address)
        return encode_fields(short, dest, rs1, s2, imm)

    def _ret(self, opcode: Opcode, ops: list[Operand], line: int) -> int:
        if not ops:
            rs1, s2, imm = 31, 8, True
        else:
            rs1 = self._reg(ops[0], line)
            imm, s2 = self._s2(ops[1], line) if len(ops) > 1 else (True, 8)
        return encode_fields(opcode, 0, rs1, s2, imm)

    def _set(self, ops: list[Operand], line: int, wide: bool) -> list[int]:
        dest = self._reg(ops[0], line)
        src = ops[1]
        if src.kind == "reg":
            rs = self._reg(src, line)
            return [encode_fields(Opcode.ADD, dest, rs, 0, True)]
        return self._const_words(dest, self._value(src, line), force_wide=wide)

    def _const_words(self, dest: int, value: int, force_wide: bool) -> list[int]:
        """Synthesize a 32-bit constant: 1 word if it fits, else LDHI+ADD."""
        value &= 0xFFFFFFFF
        signed = value - (1 << 32) if value & 0x80000000 else value
        if not force_wide and S2_MIN <= signed <= S2_MAX:
            return [encode_fields(Opcode.ADD, dest, 0, signed, True)]
        lo = value & 0x1FFF
        lo = lo - 0x2000 if lo & 0x1000 else lo
        hi = ((value - lo) >> 13) & 0x7FFFF
        hi_signed = hi - (1 << 19) if hi & (1 << 18) else hi
        return [
            encode_fields(Opcode.LDHI, dest=dest, y=hi_signed),
            encode_fields(Opcode.ADD, dest, dest, lo, True),
        ]

    def _mmio_store(self, reg: int, mmio: int) -> list[int]:
        words = self._const_words(SCRATCH, mmio, force_wide=True)
        words.append(encode_fields(Opcode.STL, reg, SCRATCH, 0, True))
        return words

    # -- operand access ------------------------------------------------------------

    def _reg(self, operand: Operand, line: int) -> int:
        if operand.kind != "reg":
            raise AssemblerError(f"expected register, got {operand.text!r}", line)
        return _in_range(operand.reg, operand.text, line)

    def _value(self, operand: Operand, line: int) -> int:
        """An immediate or expression operand's number, symbols resolved."""
        value = operand.value
        if operand.kind == "imm" or operand.kind == "expr":
            return value if isinstance(value, int) else self.evaluate(value, line)
        return self.evaluate(operand.text, line)

    def _s2(self, operand: Operand, line: int) -> tuple[bool, int]:
        if operand.kind == "reg":
            return False, self._reg(operand, line)
        return True, self._value(operand, line)

    def _mem(self, operand: Operand, line: int) -> tuple[int, int, bool]:
        """An effective address as ``(rs1, s2, imm)``.

        ``offset(rB)`` is the immediate form; ``(rB)rX`` indexes by a
        register in the S2 field (``imm=0``).
        """
        if operand.kind == "idx":
            rs1 = _in_range(operand.reg, operand.text, line)
            return rs1, _in_range(operand.value, operand.text, line), False
        if operand.kind != "mem":
            raise AssemblerError(
                f"expected offset(reg) or (reg)rX, got {operand.text!r}", line
            )
        offset = operand.value
        if not isinstance(offset, int):
            offset = self.evaluate(offset, line)
        return _in_range(operand.reg, operand.text, line), offset, True


# -- module helpers ------------------------------------------------------------------


def _in_range(number: int, text: str, line: int) -> int:
    if number > 31:
        raise AssemblerError(f"register out of range: {text}", line)
    return number


NOP_WORD = encode_fields(Opcode.ADD)


def assemble(source: str, code_base: int = DEFAULT_CODE_BASE) -> Program:
    """Assemble RISC I assembly source into a runnable program."""
    return Assembler(code_base).assemble(source)
