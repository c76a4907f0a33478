"""Execution tracing for the RISC I simulator.

Produces a per-instruction narrative — address, disassembly, register
writes, window rotations, condition-code changes — for debugging compiler
output and for teaching (watching the windows rotate on a call chain is
the fastest way to understand the paper).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.asm.disasm import disassemble
from repro.core.api import MachineHalted, RunResult
from repro.core.cpu import CPU


@dataclasses.dataclass
class TraceEntry:
    """One executed instruction and its visible effects."""

    index: int
    pc: int
    word: int
    text: str
    #: visible registers written, as (reg, old, new)
    reg_writes: list[tuple[int, int, int]]
    cwp_before: int
    cwp_after: int
    cc_after: str
    depth: int

    def render(self) -> str:
        writes = " ".join(
            f"r{reg}: {old:#x}->{new:#x}" for reg, old, new in self.reg_writes
        )
        window = (
            f" [w{self.cwp_before}->w{self.cwp_after}]"
            if self.cwp_before != self.cwp_after
            else ""
        )
        body = f"{self.index:>6}  {self.pc:#010x}  {self.text:<28}"
        if writes:
            body += f" {writes}"
        return body + window


@dataclasses.dataclass
class Trace:
    entries: list[TraceEntry]
    result: Optional[RunResult]

    def render(self, limit: int | None = None) -> str:
        entries = self.entries if limit is None else self.entries[:limit]
        lines = [entry.render() for entry in entries]
        if limit is not None and len(self.entries) > limit:
            lines.append(f"... ({len(self.entries) - limit} more)")
        return "\n".join(lines)

    def window_rotations(self) -> int:
        return sum(1 for e in self.entries if e.cwp_before != e.cwp_after)


def trace_run(cpu: CPU, max_steps: int = 100_000) -> Trace:
    """Run a loaded CPU to completion, recording every instruction.

    Tracing snapshots the visible window around each step, so it is far
    slower than :meth:`CPU.run`; use it on small programs.
    """
    entries: list[TraceEntry] = []
    result: RunResult | None = None
    for index in range(max_steps):
        pc = cpu.pc
        word = cpu.memory.dump(pc, 4)
        word_value = int.from_bytes(word, "big")
        before = cpu.regs.snapshot_visible()
        cwp_before = cpu.regs.cwp
        try:
            cpu.step()
        except MachineHalted as halt:
            cpu._sync_memory_stats()
            result = RunResult(cpu.name, halt.code, "".join(cpu._console), cpu.stats)
        after = cpu.regs.snapshot_visible()
        cc = cpu.psw.cc
        entries.append(
            TraceEntry(
                index=index,
                pc=pc,
                word=word_value,
                text=disassemble(word_value, pc=pc),
                reg_writes=[
                    (reg, before[reg], after[reg])
                    for reg in range(32)
                    if cpu.regs.cwp == cwp_before and before[reg] != after[reg]
                ],
                cwp_before=cwp_before,
                cwp_after=cpu.regs.cwp,
                cc_after="".join(
                    flag if value else "-"
                    for flag, value in (("z", cc.z), ("n", cc.n), ("c", cc.c), ("v", cc.v))
                ),
                depth=cpu.regs.depth,
            )
        )
        if result is not None:
            return Trace(entries, result)
    return Trace(entries, None)
