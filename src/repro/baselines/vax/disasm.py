"""Disassembler for the VAX-like baseline.

Formats what :func:`repro.baselines.vax.isa.decode` parses — the same
decoder the translating engine runs on; used for debugging compiled CISC
code and by the round-trip tests that pin the encoder and decoder
together.
"""

from __future__ import annotations

from repro.baselines.vax.isa import Specifier, decode
from repro.core.program import Program

_REG_NAMES = {12: "ap", 13: "fp", 14: "sp", 15: "pc"}


def _reg(number: int) -> str:
    return _REG_NAMES.get(number, f"r{number}")


def _operand_text(spec: Specifier) -> str:
    family, reg, value = spec.family, _reg(spec.reg), spec.value
    if family == "literal":
        return f"#{value}"
    if family == "register":
        return reg
    if family == "deferred":
        return f"({reg})"
    if family == "autodec":
        return f"-({reg})"
    if family == "immediate":
        bits = spec.width * 8
        return f"#{value - (1 << bits) if value >> (bits - 1) & 1 else value}"
    if family == "autoinc":
        return f"({reg})+"
    if family == "absolute":
        return f"@#{value:#x}"
    if family == "disp":
        return f"{value}({reg})"
    return f"<bad specifier {value:#04x}>"


def disassemble_one(data: bytes, offset: int, address: int) -> tuple[str, int]:
    """Disassemble one instruction; return (text, bytes consumed)."""
    decoded = decode(data, offset)
    if decoded is None:
        return f".byte {int.from_bytes(data[offset : offset + 1], 'big'):#04x}", 1
    operands = [
        # a branch displacement is always an instruction's last operand
        f"{address + decoded.length + spec.value:#x}"
        if spec.family == "branch"
        else _operand_text(spec)
        for spec in decoded.operands
    ]
    text = decoded.info.mnemonic + (" " + ", ".join(operands) if operands else "")
    return text, decoded.length


def disassemble_vax_program(program: Program, skip_entry_masks: bool = True) -> str:
    """Disassemble the code segment of a VAX-like program.

    Function labels are used both for display and to skip each
    procedure's 2-byte entry mask (which is data, not an instruction).
    """
    address_names = {addr: name for name, addr in program.symbols.items()}
    lines: list[str] = []
    for segment in program.segments:
        if segment.name != "code":
            continue
        offset = 0
        while offset < len(segment.data):
            address = segment.base + offset
            label = address_names.get(address)
            if label:
                lines.append(f"{label}:")
                if skip_entry_masks and _looks_like_entry(segment.data, offset, label):
                    mask = int.from_bytes(segment.data[offset : offset + 2], "big")
                    lines.append(f"  {address:#010x}:  .entry {mask:#06x}")
                    offset += 2
                    continue
            text, consumed = disassemble_one(segment.data, offset, address)
            raw = segment.data[offset : offset + consumed].hex()
            lines.append(f"  {address:#010x}:  {raw:<20} {text}")
            offset += consumed
    return "\n".join(lines)


def _looks_like_entry(data: bytes, offset: int, label: str) -> bool:
    """Heuristic: compiler-emitted procedures start with an entry mask.

    Entry points named ``__start`` (raw code) and local labels (dots) do
    not carry masks; everything else produced by the CISC backend does.
    """
    return not label.startswith((".", "__start"))
