"""Linear-scan register allocation over IR temporaries.

Temps get live ranges from their definition/use positions; ranges that
cross a backward branch are widened to the branch, which makes the simple
linear scan safe in the presence of loops.  When the pool runs dry the
range with the farthest end is spilled to a stack slot; backends stage
spilled temps through scratch registers at each use.
"""

from __future__ import annotations

import dataclasses

from repro.cc import ir


def defs_uses(instr: ir.Instr) -> tuple[list[ir.Temp], list[ir.Temp]]:
    """(defined temps, used temps) of one IR instruction."""

    def temps(*ops: ir.Operand | None) -> list[ir.Temp]:
        return [op for op in ops if isinstance(op, ir.Temp)]

    if isinstance(instr, ir.Const):
        return [instr.dst], []
    if isinstance(instr, ir.Move):
        return [instr.dst], temps(instr.src)
    if isinstance(instr, ir.UnOp):
        return [instr.dst], temps(instr.src)
    if isinstance(instr, (ir.BinOp, ir.SetCmp)):
        return [instr.dst], temps(instr.a, instr.b)
    if isinstance(instr, ir.Load):
        return [instr.dst], temps(instr.addr)
    if isinstance(instr, ir.Store):
        return [], temps(instr.addr, instr.src)
    if isinstance(instr, (ir.AddrVar, ir.GetVar)):
        return [instr.dst], []
    if isinstance(instr, ir.SetVar):
        return [], temps(instr.src)
    if isinstance(instr, ir.Call):
        return ([instr.dst] if instr.dst else []), temps(*instr.args)
    if isinstance(instr, ir.CBranch):
        return [], temps(instr.a, instr.b)
    if isinstance(instr, ir.Ret):
        return [], temps(instr.src)
    return [], []


@dataclasses.dataclass
class LiveRange:
    temp: ir.Temp
    start: int
    end: int


@dataclasses.dataclass
class Allocation:
    """Result of register allocation for one function."""

    #: temp -> register number
    registers: dict[ir.Temp, int]
    #: temp -> spill slot index (0, 1, 2, ...)
    spills: dict[ir.Temp, int]

    @property
    def num_spill_slots(self) -> int:
        return len(set(self.spills.values()))


def live_ranges(instrs: list[ir.Instr]) -> list[LiveRange]:
    """Compute loop-safe live ranges for every temp."""
    start: dict[ir.Temp, int] = {}
    end: dict[ir.Temp, int] = {}
    label_pos: dict[str, int] = {}
    for pos, instr in enumerate(instrs):
        if isinstance(instr, ir.Label):
            label_pos[instr.name] = pos
    for pos, instr in enumerate(instrs):
        defined, used = defs_uses(instr)
        for temp in defined + used:
            start.setdefault(temp, pos)
            end[temp] = max(end.get(temp, pos), pos)

    # widen ranges across backward branches until stable
    back_edges = []
    for pos, instr in enumerate(instrs):
        target = None
        if isinstance(instr, ir.Jump):
            target = instr.target
        elif isinstance(instr, ir.CBranch):
            target = instr.target
        if target is not None and label_pos.get(target, pos + 1) <= pos:
            back_edges.append((label_pos[target], pos))
    # the fixpoint runs over parallel lists: no temp is hashed in the loop
    temps = list(start)
    starts = [start[temp] for temp in temps]
    ends = [end[temp] for temp in temps]
    changed = True
    while changed:
        changed = False
        for head, tail in back_edges:
            for k, first in enumerate(starts):
                last = ends[k]
                if first <= tail and head <= last < tail:
                    ends[k] = tail
                    changed = True

    ranges = [LiveRange(*item) for item in zip(temps, starts, ends)]
    ranges.sort(key=lambda r: (r.start, r.end))
    return ranges


def allocate(instrs: list[ir.Instr], pool: list[int]) -> Allocation:
    """Linear scan with farthest-end spilling.

    ``pool`` lists the register numbers available for temps, in preference
    order.  Returns register and spill-slot assignments covering every temp.
    """
    ranges = live_ranges(instrs)
    free = list(reversed(pool))  # pop() takes the highest-preference reg
    active: list[LiveRange] = []
    registers: dict[ir.Temp, int] = {}
    spills: dict[ir.Temp, int] = {}
    next_slot = 0

    for rng in ranges:
        # expire finished ranges
        still_active = []
        for act in active:
            if act.end < rng.start:
                free.append(registers[act.temp])
            else:
                still_active.append(act)
        active = still_active

        if free:
            registers[rng.temp] = free.pop()
            active.append(rng)
            continue

        # spill the range that ends farthest away
        victim = max(active + [rng], key=lambda r: r.end)
        if victim is rng:
            spills[rng.temp] = next_slot
            next_slot += 1
        else:
            registers[rng.temp] = registers.pop(victim.temp)
            spills[victim.temp] = next_slot
            next_slot += 1
            active.remove(victim)
            active.append(rng)

    return Allocation(registers, spills)
