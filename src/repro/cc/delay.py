"""Peephole optimization and delay-slot filling for RISC I assembly.

RISC I's delayed jumps put the burden of using the slot after every control
transfer on the compiler.  The paper reports that a simple peephole
optimizer fills most slots; this module reproduces that optimizer:

* ``jmp L`` immediately followed by ``L:`` is deleted outright;
* the instruction before an unconditional ``jmp`` moves into its slot when
  it is a safe single-word instruction;
* for a conditional jump the candidate is the instruction *before* the
  compare, movable when it does not feed the compare and does not touch the
  condition codes;
* unconditional jumps whose candidate fails fall back to *copying* the
  target's first instruction into the slot and retargeting the jump past
  it (the classic fix for loop back-edges);
* CALL and RETURN slots take the preceding instruction too — the window
  rotation is deferred until after the delay slot (see
  :meth:`repro.core.cpu.CPU.step`), so argument moves fill call slots and
  the result move fills return slots;
* RETURN slots in frame-owning functions are pre-filled by the code
  generator with the frame deallocation (the stack pointer is a global
  register, so that slot is window-safe either way).

Returns fill-rate statistics consumed by experiment E10.
"""

from __future__ import annotations

import dataclasses
import re

from repro.asm.core import MARKER_TAIL

_SAFE_OPS = {
    "add", "addc", "sub", "subc", "subr", "subcr",
    "and", "or", "xor", "sll", "srl", "sra",
    "ldl", "ldsu", "ldss", "ldbu", "ldbs",
    "stl", "sts", "stb", "ldhi", "mov",
}
#: Both patterns tolerate a trailing profiler marker comment (see
#: :mod:`repro.asm.core`).  Ordinary ``; prose`` comments still disqualify
#: a line, exactly as before the markers existed, so hand-written
#: assembly keeps its historical fill behavior.
_JUMP_RE = re.compile(rf"^\s*(jmp|j[a-z]+)\s+(\S+)\s*{MARKER_TAIL}$")
_LABEL_RE = re.compile(rf"^([^\s;]+):\s*{MARKER_TAIL}$")
_REG_RE = re.compile(r"\br(\d{1,2})\b")


@dataclasses.dataclass
class DelayStats:
    """Delay-slot accounting for one module."""

    jump_slots: int = 0
    jump_slots_filled: int = 0
    call_slots: int = 0
    call_slots_filled: int = 0
    ret_slots: int = 0
    ret_slots_filled: int = 0
    jumps_to_next_removed: int = 0

    @property
    def total_slots(self) -> int:
        return self.jump_slots + self.call_slots + self.ret_slots

    @property
    def total_filled(self) -> int:
        return self.jump_slots_filled + self.call_slots_filled + self.ret_slots_filled

    @property
    def fill_rate(self) -> float:
        return self.total_filled / self.total_slots if self.total_slots else 0.0


def _mnemonic(line: str) -> str:
    stripped = line.split(";", 1)[0].strip()
    if not stripped or stripped.startswith(".") or stripped.endswith(":"):
        return ""
    return stripped.split()[0].lower()


def _is_nop(line: str) -> bool:
    return _mnemonic(line) == "nop"

def _is_label(line: str) -> bool:
    return bool(_LABEL_RE.match(line.strip()))


def _label_name(line: str) -> str:
    """The label a (possibly ``;@fn``-annotated) label line defines."""
    match = _LABEL_RE.match(line.strip())
    return match.group(1) if match else ""


def _regs_of(line: str) -> set[int]:
    return {int(m) for m in _REG_RE.findall(line)}


def _dest_reg(line: str) -> int | None:
    """Destination register of an ALU/load line (None for stores etc.)."""
    mnemonic = _mnemonic(line)
    if mnemonic in ("stl", "sts", "stb"):
        return None
    match = _REG_RE.search(line.strip().split(None, 1)[1]) if " " in line.strip() else None
    return int(match.group(1)) if match else None


def _movable(line: str) -> bool:
    """Is this a single-word instruction safe to move into a jump slot?"""
    mnemonic = _mnemonic(line)
    if mnemonic not in _SAFE_OPS:
        return False
    if mnemonic.endswith("!") or "!" in line:
        return False  # touches the condition codes
    return True


def optimize(text: str) -> tuple[str, DelayStats]:
    """Run the peephole passes over a generated assembly module."""
    lines = text.splitlines()
    stats = DelayStats()
    lines = _remove_jumps_to_next(lines, stats)
    lines = _fill_slots(lines, stats)
    return "\n".join(lines) + "\n", stats


def _remove_jumps_to_next(lines: list[str], stats: DelayStats) -> list[str]:
    """Delete ``jmp L`` / ``nop`` pairs that fall straight into ``L:``."""
    result: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        match = _JUMP_RE.match(line)
        if (
            match
            and match.group(1) == "jmp"
            and i + 2 < len(lines)
            and _is_nop(lines[i + 1])
            and _is_label(lines[i + 2])
            and _label_name(lines[i + 2]) == match.group(2)
        ):
            stats.jumps_to_next_removed += 1
            i += 2  # drop the jump and its nop, keep the label
            continue
        result.append(line)
        i += 1
    return result


def _fill_slots(lines: list[str], stats: DelayStats) -> list[str]:
    """Fill jump delay slots; count call/ret slots."""
    out = list(lines)
    i = 0
    while i < len(out):
        mnemonic = _mnemonic(out[i])
        if mnemonic in ("call", "callr", "ret", "retint"):
            is_call = mnemonic in ("call", "callr")
            if is_call:
                stats.call_slots += 1
            else:
                stats.ret_slots += 1
            if not (i + 1 < len(out) and _is_nop(out[i + 1])):
                if i + 1 < len(out):
                    # pre-filled by the code generator (frame pop etc.)
                    if is_call:
                        stats.call_slots_filled += 1
                    else:
                        stats.ret_slots_filled += 1
                i += 1
                continue
            if _fill_transfer_slot(out, i, is_call):
                if is_call:
                    stats.call_slots_filled += 1
                else:
                    stats.ret_slots_filled += 1
                # candidate deleted: the transfer is now at i-1, the slot
                # at i; continue with the line after the slot
                i += 1
            else:
                i += 2  # skip the transfer and its nop slot
            continue
        match = _JUMP_RE.match(out[i])
        if not match or not (i + 1 < len(out) and _is_nop(out[i + 1])):
            if match:
                stats.jump_slots += 1
                stats.jump_slots_filled += 1  # already carries a useful slot
            i += 1
            continue
        stats.jump_slots += 1
        filled, jump_pos = _try_fill(out, i, conditional=match.group(1) != "jmp")
        if filled:
            stats.jump_slots_filled += 1
        i = jump_pos + 2  # continue after the (now useful) slot
    return [line for line in out if line is not None]


def _try_fill(out: list[str], jump_index: int, conditional: bool) -> tuple[bool, int]:
    """Fill the NOP slot at jump_index+1.

    Returns (filled, new index of the jump line) — filling can move the
    jump when a preceding line is deleted or a label is inserted.
    """
    if conditional:
        # layout: candidate / compare / jcc / nop
        compare_index = jump_index - 1
        candidate_index = jump_index - 2
        if compare_index < 0 or candidate_index < 0:
            return False, jump_index
        compare = out[compare_index]
        if _mnemonic(compare) not in ("sub!", "cmp"):
            return False, jump_index
        candidate = out[candidate_index]
        if (
            not _movable(candidate)
            or _is_label_before(out, candidate_index)
            or _is_delay_slot(out, candidate_index)
        ):
            return False, jump_index
        dest = _dest_reg(candidate)
        if dest is not None and dest in _regs_of(compare):
            return False, jump_index  # candidate feeds the compare
    else:
        candidate_index = jump_index - 1
        if candidate_index < 0:
            return False, jump_index
        candidate = out[candidate_index]
        if (
            not _movable(candidate)
            or _is_label_before(out, candidate_index)
            or _is_delay_slot(out, candidate_index)
            or _feeds_jump(candidate, out[jump_index])
        ):
            # fall back to copying the first instruction of the target
            return _fill_from_target(out, jump_index)

    out[jump_index + 1] = out[candidate_index] + "    ; (delay slot)"
    del out[candidate_index]
    return True, jump_index - 1


def _fill_transfer_slot(out: list[str], index: int, is_call: bool) -> bool:
    """Move the instruction before a CALL/RETURN into its delay slot.

    Safe because the window rotation is deferred past the delay slot: the
    slot executes in the *old* window, so argument moves fill call slots
    and the result move fills return slots.  The candidate must not
    compute the transfer's target address: the explicit registers of the
    transfer line, plus the implicit r31 return-address register for RET.
    """
    candidate_index = index - 1
    if candidate_index < 0:
        return False
    candidate = out[candidate_index]
    if (
        not _movable(candidate)
        or _is_label_before(out, candidate_index)
        or _is_delay_slot(out, candidate_index)
    ):
        return False
    dest = _dest_reg(candidate)
    if dest is not None:
        hazard_regs = _regs_of(out[index])
        if not is_call:
            hazard_regs.add(31)
        if dest in hazard_regs:
            return False
    out[index + 1] = candidate + "    ; (delay slot)"
    del out[candidate_index]
    return True


def _copyable(line: str) -> bool:
    """Safe to *copy* into an unconditional jump's slot.

    Unlike :func:`_movable`, condition-code setters qualify: the jump is
    retargeted to the instruction right after the copy, so the landing
    point sees exactly the condition codes it always saw.
    """
    mnemonic = _mnemonic(line).rstrip("!")
    return mnemonic in _SAFE_OPS or _mnemonic(line) == "cmp"


def _feeds_jump(candidate: str, jump_line: str) -> bool:
    dest = _dest_reg(candidate)
    return dest is not None and dest in _regs_of(jump_line)


def _fill_from_target(out: list[str], jump_index: int) -> tuple[bool, int]:
    """Copy the jump target's first instruction into the delay slot.

    Only valid for *unconditional* jumps: the copied instruction always
    executes, and the jump is retargeted past the original copy.  This is
    what fills loop back-edges, the dynamically dominant case.
    """
    match = _JUMP_RE.match(out[jump_index])
    target = match.group(2)
    label_index = None
    for i, line in enumerate(out):
        if _label_name(line) == target:
            label_index = i
            break
    if label_index is None:
        return False, jump_index
    first_index = label_index + 1
    while first_index < len(out) and _is_label(out[first_index]):
        first_index += 1
    if first_index >= len(out) or not _copyable(out[first_index]):
        return False, jump_index
    copied = out[first_index]
    # a label must exist (or be created) right after the copied instruction
    after_index = first_index + 1
    shift = 0
    if after_index < len(out) and _is_label(out[after_index]):
        new_target = _label_name(out[after_index])
    else:
        existing = {_label_name(line) for line in out if _is_label(line)}
        new_target = f"{target}__ds"
        suffix = 0
        while new_target in existing:
            suffix += 1
            new_target = f"{target}__ds{suffix}"
        out.insert(after_index, f"{new_target}:")
        if after_index <= jump_index:
            shift = 1
    jump_line = out[jump_index + shift]
    out[jump_index + shift] = re.sub(
        rf"(?<![\w.$]){re.escape(target)}(?![\w.$])", new_target, jump_line
    )
    out[jump_index + shift + 1] = copied + "    ; (delay slot, copied from target)"
    return True, jump_index + shift


def _is_label_before(lines: list[str], index: int) -> bool:
    """Is the candidate a jump target (label directly above it)?"""
    return index > 0 and _is_label(lines[index - 1])


_TRANSFER_MNEMONICS = {"call", "callr", "ret", "retint"}


def _is_delay_slot(lines: list[str], index: int) -> bool:
    """Is the line at ``index`` already some transfer's delay slot?"""
    if index == 0:
        return False
    prev = lines[index - 1]
    return _mnemonic(prev) in _TRANSFER_MNEMONICS or bool(_JUMP_RE.match(prev))
