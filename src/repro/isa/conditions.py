"""Condition codes and jump conditions of RISC I.

RISC I carries four condition-code bits in the PSW — Z (zero), N (negative),
C (carry) and V (overflow) — set optionally by ALU instructions whose SCC
bit is on.  Conditional jumps select one of 16 conditions encoded in the
DEST field of the instruction.
"""

from __future__ import annotations

import dataclasses
import enum


@dataclasses.dataclass(frozen=True)
class ConditionCodes:
    """An immutable snapshot of the four PSW condition-code bits."""

    z: bool = False
    n: bool = False
    c: bool = False
    v: bool = False

    @classmethod
    def from_result(
        cls, result: int, carry: bool = False, overflow: bool = False
    ) -> "ConditionCodes":
        """Build condition codes from a 32-bit ALU result."""
        masked = result & 0xFFFFFFFF
        return cls(
            z=masked == 0,
            n=bool(masked & 0x80000000),
            c=carry,
            v=overflow,
        )


#: The 16 possible condition codes, interned for the fast engine:
#: ``CC_TABLE[z << 3 | n << 2 | c << 1 | v]``.
CC_TABLE = tuple(
    ConditionCodes(bool(i & 8), bool(i & 4), bool(i & 2), bool(i & 1)) for i in range(16)
)


class Cond(enum.IntEnum):
    """The 16 jump conditions (4-bit encoding in the DEST field)."""

    NOP = 0  # never
    GT = 1  # greater (signed)
    LE = 2  # less or equal (signed)
    GE = 3  # greater or equal (signed)
    LT = 4  # less (signed)
    HI = 5  # higher (unsigned)
    LOS = 6  # lower or same (unsigned)
    LONC = 7  # lower / no carry (unsigned)
    HISC = 8  # higher or same / carry (unsigned)
    PL = 9  # plus (N clear)
    MI = 10  # minus (N set)
    NE = 11  # not equal
    EQ = 12  # equal
    NV = 13  # no overflow
    V = 14  # overflow
    ALW = 15  # always


#: Assembly mnemonics for each condition, as used in jump suffixes.
COND_MNEMONICS: dict[Cond, str] = {
    Cond.NOP: "nop",
    Cond.GT: "gt",
    Cond.LE: "le",
    Cond.GE: "ge",
    Cond.LT: "lt",
    Cond.HI: "hi",
    Cond.LOS: "los",
    Cond.LONC: "lo",
    Cond.HISC: "hs",
    Cond.PL: "pl",
    Cond.MI: "mi",
    Cond.NE: "ne",
    Cond.EQ: "eq",
    Cond.NV: "nv",
    Cond.V: "v",
    Cond.ALW: "alw",
}

MNEMONIC_CONDS: dict[str, Cond] = {name: cond for cond, name in COND_MNEMONICS.items()}


def cond_holds(cond: Cond, cc: ConditionCodes) -> bool:
    """Evaluate a jump condition against condition codes.

    The signed comparisons follow the standard two's-complement recipes,
    e.g. LT is ``N xor V`` and LE is ``Z or (N xor V)``.
    """
    if cond is Cond.NOP:
        return False
    if cond is Cond.ALW:
        return True
    if cond is Cond.EQ:
        return cc.z
    if cond is Cond.NE:
        return not cc.z
    if cond is Cond.MI:
        return cc.n
    if cond is Cond.PL:
        return not cc.n
    if cond is Cond.V:
        return cc.v
    if cond is Cond.NV:
        return not cc.v
    if cond is Cond.LT:
        return cc.n != cc.v
    if cond is Cond.GE:
        return cc.n == cc.v
    if cond is Cond.GT:
        return not cc.z and cc.n == cc.v
    if cond is Cond.LE:
        return cc.z or cc.n != cc.v
    if cond is Cond.HI:
        return cc.c and not cc.z
    if cond is Cond.LOS:
        return not cc.c or cc.z
    if cond is Cond.HISC:
        return cc.c
    if cond is Cond.LONC:
        return not cc.c
    raise ValueError(f"unknown condition: {cond!r}")
