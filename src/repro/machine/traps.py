"""Trap taxonomy of the RISC I machine.

RISC I keeps exceptional control flow simple: a trap freezes the pipeline
and transfers to a software handler through CALLINT.  The simulator models
traps as Python exceptions carrying a :class:`TrapKind`; window
overflow/underflow is handled transparently by the runtime (with its memory
traffic accounted), while the others terminate execution unless a handler
is installed.
"""

from __future__ import annotations

import enum


class TrapKind(enum.Enum):
    """The causes of a RISC I trap."""

    WINDOW_OVERFLOW = "register-window overflow"
    WINDOW_UNDERFLOW = "register-window underflow"
    ILLEGAL_INSTRUCTION = "illegal instruction"
    ALIGNMENT = "misaligned memory access"
    BUS_ERROR = "access outside physical memory"
    HALT = "halt requested"


class Trap(Exception):
    """A machine trap, raised during simulation."""

    def __init__(self, kind: TrapKind, detail: str = "", pc: int | None = None):
        self.kind = kind
        self.detail = detail
        #: the faulting instruction's address; the step that catches a
        #: trap raised below it (by memory, say) fills it in
        self.pc = pc
        super().__init__(str(self))

    def __reduce__(self):
        # the exception args hold only the message; rebuild from the fields
        return type(self), (self.kind, self.detail, self.pc)

    def __str__(self) -> str:
        # built when printed, so it shows a PC filled in after raising
        location = f" at pc={self.pc:#010x}" if self.pc is not None else ""
        message = f"{self.kind.value}{location}"
        return f"{message}: {self.detail}" if self.detail else message
