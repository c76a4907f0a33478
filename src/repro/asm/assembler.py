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

import re

from repro.asm.core import AssemblerError, Statement, TwoPassAssembler, parse_number
from repro.isa.conditions import MNEMONIC_CONDS, Cond
from repro.isa.encoding import Instruction, S2_MAX, S2_MIN, encode
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
_MEM_RE = re.compile(r"^(?P<off>[^()]*)\(\s*(?P<reg>r\d{1,2})\s*\)$", re.IGNORECASE)
#: Register-indexed effective address ``(rB)rX`` — base register plus an
#: index register in the S2 field (``imm=0`` encoding of loads/stores/jumps).
_IDX_RE = re.compile(r"^\(\s*(?P<reg>r\d{1,2})\s*\)\s*(?P<idx>r\d{1,2})$", re.IGNORECASE)


class Assembler(TwoPassAssembler):
    """RISC I: every instruction is one 32-bit word; pseudos expand to 1-3."""

    DATA_WIDTHS = {".word": 4, ".half": 2, ".byte": 1}
    ENTRY_SYMBOLS = ("_start", "main")
    SOURCE_MAP = True

    # -- instruction sizing --------------------------------------------------------

    def size(self, stmt: Statement) -> int:
        """Bytes an instruction/pseudo expands to (whole words)."""
        m = stmt.mnemonic.rstrip("!")
        if m in ("halt", "putc", "puti"):
            return 12
        if m in ("set", "mov") and len(stmt.operands) == 2:
            src = stmt.operands[1]
            if _REG_RE.match(src):
                return 4
            value = self._try_const(src)
            if value is not None and S2_MIN <= value <= S2_MAX:
                return 4
            return 8
        return 4

    def _try_const(self, text: str) -> int | None:
        """Evaluate an operand as a pure constant, if possible now."""
        text = text.lstrip("#").strip()
        try:
            return parse_number(text, 0)
        except AssemblerError:
            pass
        if text in self.equates:
            return self.equates[text]
        return None

    # -- instruction emission ------------------------------------------------------

    def encode(self, stmt: Statement, address: int) -> bytes:
        m = stmt.mnemonic
        scc = m.endswith("!")
        words = self._dispatch(
            m.rstrip("!"), scc, stmt.operands, address, stmt.line, stmt.size
        )
        return b"".join([word.to_bytes(4, "big") for word in words])

    def _dispatch(
        self, m: str, scc: bool, ops: list[str], address: int, line: int, size: int
    ) -> list[int]:
        if m in _ALU_OPS:
            return [self._alu(_ALU_OPS[m], scc, ops, line)]
        if m in _LOAD_OPS:
            return [self._load(_LOAD_OPS[m], ops, line)]
        if m in _STORE_OPS:
            return [self._store(_STORE_OPS[m], ops, line)]
        if m == "jmp" or (m.startswith("j") and m[1:] in MNEMONIC_CONDS):
            return [self._jump(m, ops, address, line)]
        if m == "jmpr":
            return [self._jmpr_explicit(ops, address, line)]
        if m == "call":
            return [self._call(ops, address, line)]
        if m == "callr":
            dest = self._reg(ops[0], line) if len(ops) == 2 else 31
            target = self.evaluate(ops[-1], line)
            return [encode(Instruction.long(Opcode.CALLR, dest=dest, y=target - address))]
        if m == "ret":
            return [self._ret(Opcode.RET, ops, line)]
        if m == "retint":
            return [self._ret(Opcode.RETINT, ops, line)]
        if m == "callint":
            dest = self._reg(ops[0], line) if ops else 31
            return [encode(Instruction.short(Opcode.CALLINT, dest=dest))]
        if m == "ldhi":
            value = self.evaluate(ops[1].lstrip("#"), line)
            return [encode(Instruction.long(Opcode.LDHI, dest=self._reg(ops[0], line), y=value))]
        if m in ("gtlpc", "getpsw", "putpsw"):
            return [encode(Instruction.short(Opcode[m.upper()], dest=self._reg(ops[0], line)))]
        # -- pseudo-instructions ------------------------------------------
        if m == "nop":
            return [NOP_WORD]
        if m == "cmp":
            word = self._alu(Opcode.SUB, True, ["r0", ops[0], ops[1]], line)
            return [word]
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

    def _alu(self, opcode: Opcode, scc: bool, ops: list[str], line: int) -> int:
        if len(ops) != 3:
            raise AssemblerError(f"{opcode.name} needs rd, rs1, s2", line)
        dest = self._reg(ops[0], line)
        rs1 = self._reg(ops[1], line)
        imm, s2 = self._s2(ops[2], line)
        return encode(Instruction.short(opcode, dest=dest, rs1=rs1, s2=s2, imm=imm, scc=scc))

    def _load(self, opcode: Opcode, ops: list[str], line: int) -> int:
        dest = self._reg(ops[0], line)
        rs1, s2, imm = self._mem(ops[1], line)
        return encode(Instruction.short(opcode, dest=dest, rs1=rs1, s2=s2, imm=imm))

    def _store(self, opcode: Opcode, ops: list[str], line: int) -> int:
        src = self._reg(ops[0], line)
        rs1, s2, imm = self._mem(ops[1], line)
        return encode(Instruction.short(opcode, dest=src, rs1=rs1, s2=s2, imm=imm))

    def _jump(self, m: str, ops: list[str], address: int, line: int) -> int:
        cond = Cond.ALW if m == "jmp" else MNEMONIC_CONDS[m[1:]]
        return self._transfer(Opcode.JMP, Opcode.JMPR, int(cond), ops[0], address, line)

    def _jmpr_explicit(self, ops: list[str], address: int, line: int) -> int:
        cond = MNEMONIC_CONDS[ops[0].lower()] if len(ops) == 2 else Cond.ALW
        target = self.evaluate(ops[-1], line)
        return encode(Instruction.long(Opcode.JMPR, dest=int(cond), y=target - address))

    def _call(self, ops: list[str], address: int, line: int) -> int:
        # "call target" links through r31; "call rD, target" names the
        # link register explicitly (what the disassembler emits).
        if len(ops) == 1:
            dest, target = 31, ops[0]
        elif len(ops) == 2:
            dest, target = self._reg(ops[0], line), ops[1]
        else:
            raise AssemblerError(f"call needs [rd,] target, got {ops}", line)
        return self._transfer(Opcode.CALL, Opcode.CALLR, dest, target, address, line)

    def _transfer(
        self, short: Opcode, relative: Opcode, dest: int, target: str, address: int, line: int
    ) -> int:
        """A jump or call: to ``offset(rB)``, ``(rB)rX`` or ``rB`` through
        the short form, to a label through the PC-relative long form."""
        if _MEM_RE.match(target) or _IDX_RE.match(target):
            rs1, s2, imm = self._mem(target, line)
        elif _REG_RE.match(target):
            rs1, s2, imm = self._reg(target, line), 0, True
        else:
            value = self.evaluate(target, line)
            return encode(Instruction.long(relative, dest=dest, y=value - address))
        return encode(Instruction.short(short, dest=dest, rs1=rs1, s2=s2, imm=imm))

    def _ret(self, opcode: Opcode, ops: list[str], line: int) -> int:
        if not ops:
            rs1, s2, imm = 31, 8, True
        else:
            rs1 = self._reg(ops[0], line)
            imm, s2 = self._s2(ops[1], line) if len(ops) > 1 else (True, 8)
        return encode(Instruction.short(opcode, dest=0, rs1=rs1, s2=s2, imm=imm))

    def _set(self, ops: list[str], line: int, wide: bool) -> list[int]:
        dest = self._reg(ops[0], line)
        src = ops[1]
        if _REG_RE.match(src):
            rs = self._reg(src, line)
            return [encode(Instruction.short(Opcode.ADD, dest=dest, rs1=rs, s2=0, imm=True))]
        value = self.evaluate(src.lstrip("#"), line)
        return self._const_words(dest, value, force_wide=wide)

    def _const_words(self, dest: int, value: int, force_wide: bool) -> list[int]:
        """Synthesize a 32-bit constant: 1 word if it fits, else LDHI+ADD."""
        value &= 0xFFFFFFFF
        signed = value - (1 << 32) if value & 0x80000000 else value
        if not force_wide and S2_MIN <= signed <= S2_MAX:
            return [encode(Instruction.short(Opcode.ADD, dest=dest, rs1=0, s2=signed, imm=True))]
        lo = value & 0x1FFF
        lo = lo - 0x2000 if lo & 0x1000 else lo
        hi = ((value - lo) >> 13) & 0x7FFFF
        hi_signed = hi - (1 << 19) if hi & (1 << 18) else hi
        return [
            encode(Instruction.long(Opcode.LDHI, dest=dest, y=hi_signed)),
            encode(Instruction.short(Opcode.ADD, dest=dest, rs1=dest, s2=lo, imm=True)),
        ]

    def _mmio_store(self, reg: int, mmio: int) -> list[int]:
        words = self._const_words(SCRATCH, mmio, force_wide=True)
        words.append(
            encode(Instruction.short(Opcode.STL, dest=reg, rs1=SCRATCH, s2=0, imm=True))
        )
        return words

    # -- operand parsing -----------------------------------------------------------

    def _reg(self, text: str, line: int) -> int:
        match = _REG_RE.match(text.strip())
        if not match:
            raise AssemblerError(f"expected register, got {text!r}", line)
        number = int(match.group(1))
        if number > 31:
            raise AssemblerError(f"register out of range: {text}", line)
        return number

    def _s2(self, text: str, line: int) -> tuple[bool, int]:
        text = text.strip()
        if text.startswith("#"):
            return True, self.evaluate(text[1:], line)
        if _REG_RE.match(text):
            return False, self._reg(text, line)
        return True, self.evaluate(text, line)

    def _mem(self, text: str, line: int) -> tuple[int, int, bool]:
        """Parse an effective address; returns ``(rs1, s2, imm)``.

        ``offset(rB)`` is the immediate form; ``(rB)rX`` indexes by a
        register in the S2 field (``imm=0``).
        """
        text = text.strip()
        indexed = _IDX_RE.match(text)
        if indexed:
            rs1 = self._reg(indexed.group("reg"), line)
            return rs1, self._reg(indexed.group("idx"), line), False
        match = _MEM_RE.match(text)
        if not match:
            raise AssemblerError(f"expected offset(reg) or (reg)rX, got {text!r}", line)
        offset_text = match.group("off").strip().lstrip("#")
        offset = self.evaluate(offset_text, line) if offset_text else 0
        return self._reg(match.group("reg"), line), offset, True


# -- module helpers ------------------------------------------------------------------

NOP_WORD = encode(Instruction.short(Opcode.ADD, dest=0, rs1=0, s2=0, imm=False))


def assemble(source: str, code_base: int = DEFAULT_CODE_BASE) -> Program:
    """Assemble RISC I assembly source into a runnable program."""
    return Assembler(code_base).assemble(source)
