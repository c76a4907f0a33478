"""Peephole optimization and delay-slot filling for RISC I code.

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

The filler works on the statement list the code generator builds
(:func:`fill_delay_slots`), one :class:`repro.asm.core.Statement` per line
of assembly.  Register sets come from the parsed operands.  A jump or a
label whose line carries a prose comment (anything but a profiler marker)
is left alone, as hand-scheduled code; the runtime routines rely on that.
:func:`optimize` is the same filler over assembly text.

Returns fill-rate statistics consumed by experiment E10.
"""

from __future__ import annotations

import copy
import dataclasses

from repro.asm.assembler import Assembler, symbol
from repro.asm.core import Statement, render
from repro.isa.conditions import MNEMONIC_CONDS

_SAFE_OPS = {
    "add", "addc", "sub", "subc", "subr", "subcr",
    "and", "or", "xor", "sll", "srl", "sra",
    "ldl", "ldsu", "ldss", "ldbu", "ldbs",
    "stl", "sts", "stb", "ldhi", "mov",
}
_STORES = {"stl", "sts", "stb"}
_TRANSFERS = {"call", "callr", "ret", "retint"}
_JUMPS = {"jmp", "jmpr"} | {f"j{cond}" for cond in MNEMONIC_CONDS}


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


# -- what the filler sees of a statement ---------------------------------------------


def _op(stmt: Statement) -> str:
    """The instruction mnemonic of an unlabelled instruction line, else ""."""
    m = stmt.mnemonic
    return "" if stmt.label or not m or m[0] == "." else m


def _prose(stmt: Statement) -> bool:
    """Does the line carry a comment that is not a profiler marker?"""
    note = stmt.note.lstrip()
    return bool(note) and not note.startswith(";@")


def _is_nop(stmt: Statement) -> bool:
    return _op(stmt) == "nop"


def _is_label(stmt: Statement) -> bool:
    return bool(stmt.label) and not stmt.mnemonic and not _prose(stmt)


def _jump_target(stmt: Statement) -> str:
    """The target of a plain one-operand jump, else ""."""
    if _op(stmt) in _JUMPS and len(stmt.operands) == 1 and not _prose(stmt):
        return stmt.operands[0]
    return ""


def _regs(stmt: Statement) -> list[int]:
    """The registers a statement names, in the order they are written."""
    regs = []
    for operand in stmt.parsed or ():
        if operand.kind in ("reg", "mem", "idx"):
            regs.append(operand.reg)
        if operand.kind == "idx":
            regs.append(operand.value)
    return regs


def _dest_reg(stmt: Statement) -> int | None:
    """Destination register of an ALU/load line (None for stores etc.)."""
    regs = _regs(stmt)
    return regs[0] if regs and _op(stmt) not in _STORES else None


def _copyable(stmt: Statement) -> bool:
    """Safe to *copy* into an unconditional jump's slot.

    Unlike :func:`_can_move`, condition-code setters qualify: the jump is
    retargeted to the instruction right after the copy, so the landing
    point sees exactly the condition codes it always saw.
    """
    op = _op(stmt)
    return op.rstrip("!") in _SAFE_OPS or op == "cmp"


def _into_slot(stmt: Statement, why: str) -> Statement:
    stmt.note += f"    ; ({why})"
    return stmt


# -- the passes -------------------------------------------------------------------------


def optimize(text: str) -> tuple[str, DelayStats]:
    """Run the peephole passes over RISC I assembly text."""
    assembler = Assembler()
    statements = assembler.parse(text)
    for stmt in statements:
        stmt.parsed = assembler.parse_operands(stmt)
    statements, stats = fill_delay_slots(statements)
    return render(statements), stats


def fill_delay_slots(statements: list[Statement]) -> tuple[list[Statement], DelayStats]:
    """Run the peephole passes over a module's statement list."""
    stats = DelayStats()
    out = _remove_jumps_to_next(statements, stats)
    _fill_slots(out, stats)
    return out, stats


def _remove_jumps_to_next(lines: list[Statement], stats: DelayStats) -> list[Statement]:
    """Delete ``jmp L`` / ``nop`` pairs that fall straight into ``L:``."""
    result: list[Statement] = []
    i = 0
    while i < len(lines):
        stmt = lines[i]
        if (
            _op(stmt) == "jmp"
            and i + 2 < len(lines)
            and _is_nop(lines[i + 1])
            and _is_label(lines[i + 2])
            and _jump_target(stmt) == lines[i + 2].label
        ):
            stats.jumps_to_next_removed += 1
            i += 2  # drop the jump and its nop, keep the label
            continue
        result.append(stmt)
        i += 1
    return result


def _fill_slots(out: list[Statement], stats: DelayStats) -> None:
    """Fill jump delay slots; count call/ret slots."""
    i = 0
    while i < len(out):
        op = _op(out[i])
        if op in _TRANSFERS:
            kind = "call" if op in ("call", "callr") else "ret"
            _count(stats, f"{kind}_slots")
            if i + 1 < len(out) and (
                not _is_nop(out[i + 1])  # pre-filled by the code generator (frame pop etc.)
                or _fill_transfer_slot(out, i, kind == "call")
            ):
                _count(stats, f"{kind}_slots_filled")
                i += 1  # a moved candidate leaves the transfer at i-1, its slot at i
            else:
                i += 2  # skip the transfer and its nop slot
            continue
        target = _jump_target(out[i])
        if not target or not (i + 1 < len(out) and _is_nop(out[i + 1])):
            if target:
                stats.jump_slots += 1
                stats.jump_slots_filled += 1  # already carries a useful slot
            i += 1
            continue
        stats.jump_slots += 1
        filled, jump_pos = _try_fill(out, i, conditional=op != "jmp")
        if filled:
            stats.jump_slots_filled += 1
        i = jump_pos + 2  # continue after the (now useful) slot


def _count(stats: DelayStats, field: str) -> None:
    setattr(stats, field, getattr(stats, field) + 1)


def _try_fill(out: list[Statement], jump_index: int, conditional: bool) -> tuple[bool, int]:
    """Fill the NOP slot at jump_index+1.

    Returns (filled, new index of the jump) — filling can move the jump
    when a preceding statement is deleted or a label is inserted.
    """
    if conditional:
        # layout: candidate / compare / jcc / nop
        candidate_index = jump_index - 2
        if candidate_index < 0 or _op(out[jump_index - 1]) not in ("sub!", "cmp"):
            return False, jump_index
        if not _can_move(out, candidate_index) or _feeds(out[candidate_index], out[jump_index - 1]):
            return False, jump_index  # the candidate may feed the compare
    else:
        candidate_index = jump_index - 1
        if candidate_index < 0:
            return False, jump_index
        if not _can_move(out, candidate_index) or _feeds(out[candidate_index], out[jump_index]):
            # fall back to copying the first instruction of the target
            return _fill_from_target(out, jump_index)
    out[jump_index + 1] = _into_slot(out[candidate_index], "delay slot")
    del out[candidate_index]
    return True, jump_index - 1


def _fill_transfer_slot(out: list[Statement], index: int, is_call: bool) -> bool:
    """Move the instruction before a CALL/RETURN into its delay slot.

    Safe because the window rotation is deferred past the delay slot: the
    slot executes in the *old* window, so argument moves fill call slots
    and the result move fills return slots.  The candidate must not
    compute the transfer's target address: the explicit registers of the
    transfer, plus the implicit r31 return-address register for RET.
    """
    candidate_index = index - 1
    if not _can_move(out, candidate_index):
        return False
    dest = _dest_reg(out[candidate_index])
    if dest is not None and (dest in _regs(out[index]) or (dest == 31 and not is_call)):
        return False
    out[index + 1] = _into_slot(out[candidate_index], "delay slot")
    del out[candidate_index]
    return True


def _can_move(out: list[Statement], index: int) -> bool:
    """May the statement at ``index`` move into the slot below it?  Only a
    safe single-word instruction (none of ``_SAFE_OPS`` sets the condition
    codes) that is neither a jump target nor some transfer's slot."""
    return (
        index >= 0
        and _op(out[index]) in _SAFE_OPS
        and not _is_label_before(out, index)
        and not _is_delay_slot(out, index)
    )


def _feeds(candidate: Statement, transfer: Statement) -> bool:
    dest = _dest_reg(candidate)
    return dest is not None and dest in _regs(transfer)


def _fill_from_target(out: list[Statement], jump_index: int) -> tuple[bool, int]:
    """Copy the jump target's first instruction into the delay slot.

    Only valid for *unconditional* jumps: the copied instruction always
    executes, and the jump is retargeted past the original copy.  This is
    what fills loop back-edges, the dynamically dominant case.
    """
    target = _jump_target(out[jump_index])
    label_index = next(
        (i for i, stmt in enumerate(out) if stmt.label == target and _is_label(stmt)), None
    )
    if label_index is None:
        return False, jump_index
    first_index = label_index + 1
    while first_index < len(out) and _is_label(out[first_index]):
        first_index += 1
    if first_index >= len(out) or not _copyable(out[first_index]):
        return False, jump_index
    copied = copy.copy(out[first_index])
    # a label must exist (or be created) right after the copied instruction
    after_index = first_index + 1
    shift = 0
    if after_index < len(out) and _is_label(out[after_index]):
        new_target = out[after_index].label
    else:
        existing = {stmt.label for stmt in out if stmt.label}
        new_target = f"{target}__ds"
        suffix = 0
        while new_target in existing:
            suffix += 1
            new_target = f"{target}__ds{suffix}"
        out.insert(after_index, Statement("", [], label=new_target))
        if after_index <= jump_index:
            shift = 1
    jump = out[jump_index + shift]
    jump.operands = [new_target]
    jump.parsed = [symbol(new_target)]
    jump.source = f"{jump.mnemonic} {new_target}"
    out[jump_index + shift + 1] = _into_slot(copied, "delay slot, copied from target")
    return True, jump_index + shift


def _is_label_before(lines: list[Statement], index: int) -> bool:
    """Is the candidate a jump target (label directly above it)?"""
    return index > 0 and _is_label(lines[index - 1])


def _is_delay_slot(lines: list[Statement], index: int) -> bool:
    """Is the statement at ``index`` already some transfer's delay slot?"""
    if index == 0:
        return False
    prev = lines[index - 1]
    return _op(prev) in _TRANSFERS or bool(_jump_target(prev))
