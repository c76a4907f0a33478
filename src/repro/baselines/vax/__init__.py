"""The VAX-like CISC baseline machine.

A deliberately faithful *class* model rather than a bit-exact VAX: one-byte
opcodes, VAX operand specifiers (short literal, register, register
deferred, autoincrement/autodecrement, displacement, immediate, absolute),
three-operand arithmetic, memory-to-memory moves, and the expensive
CALLS/RET procedure linkage with entry masks — everything the paper's
comparison leans on.  Simplifications (AND instead of BIC, 16-bit
conditional branch displacements, big-endian memory shared with the RISC
side) are documented in DESIGN.md and favour the baseline or are neutral.
"""

from repro.baselines.vax.assembler import AssemblerError, assemble_vax
from repro.baselines.vax.cpu import VaxCPU
from repro.baselines.vax.timing import VaxTiming

__all__ = ["AssemblerError", "VaxCPU", "VaxTiming", "assemble_vax"]
