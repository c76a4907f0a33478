"""Tests for external interrupt delivery through the trap window."""

import pytest

from repro.asm import assemble
from repro.core import CPU

PROGRAM = """
; count to 200 in a loop; an interrupt handler bumps a memory cell
main:
    add r2, r0, #0
loop:
    add r2, r2, #1
    cmp r2, #200
    jne loop
    nop
    set r3, cell
    ldl r4, 0(r3)
    puti r2
    putc r0
    puti r4
    halt r2

handler:
    set r16, cell
    ldl r17, 0(r16)
    add r17, r17, #1
    stl r17, 0(r16)
    retint r26, #0        ; resume the interrupted instruction
    nop

.data
cell: .word 0
"""


def run_with_interrupts(fire_at: list[int], windows: int = 8):
    cpu = CPU(num_windows=windows)
    program = assemble(PROGRAM)
    cpu.load(program)
    handler = program.symbol("handler")
    count = [0]

    def hook(pc, inst):
        count[0] += 1
        if count[0] in fire_at:
            cpu.raise_interrupt(handler)

    cpu.on_execute = hook
    result = cpu.run(max_steps=500_000)
    return cpu, result


class TestInterruptDelivery:
    def test_single_interrupt(self):
        cpu, result = run_with_interrupts([50])
        counted, bumped = result.output.split("\0")
        assert counted == "200"  # the loop still finished correctly
        assert bumped == "1"  # and the handler really ran
        assert cpu.interrupts_taken == 1

    def test_many_interrupts(self):
        cpu, result = run_with_interrupts([20, 80, 140, 300])
        counted, bumped = result.output.split("\0")
        assert counted == "200"
        assert bumped == "4"
        assert cpu.interrupts_taken == 4

    def test_interrupt_survives_window_pressure(self):
        cpu, result = run_with_interrupts([30, 60], windows=2)
        counted, bumped = result.output.split("\0")
        assert (counted, bumped) == ("200", "2")

    def test_no_delivery_while_disabled(self):
        """An interrupt raised inside the handler waits for RETINT."""
        cpu = CPU()
        program = assemble(PROGRAM)
        cpu.load(program)
        handler = program.symbol("handler")
        count = [0]
        fired_inside = [False]
        delivered_pcs = []
        original = cpu._deliver_interrupt

        def tracking_deliver():
            delivered_pcs.append(cpu.pc)
            original()

        cpu._deliver_interrupt = tracking_deliver

        def hook(pc, inst):
            count[0] += 1
            if count[0] == 40:
                cpu.raise_interrupt(handler)
            # fire exactly one more request from inside the handler, while
            # interrupts are disabled
            if handler <= pc < handler + 8 and not fired_inside[0]:
                fired_inside[0] = True
                cpu.raise_interrupt(handler)

        cpu.on_execute = hook
        result = cpu.run(max_steps=500_000)
        counted, bumped = result.output.split("\0")
        assert counted == "200"
        assert bumped == "2"
        assert cpu.interrupts_taken == 2
        # the second delivery must have waited: it never landed at a
        # handler address
        assert all(not handler <= pc < handler + 40 for pc in delivered_pcs)

    def test_state_fully_restored(self):
        """Register state across an interrupt must be bit-identical."""
        _, clean = run_with_interrupts([])
        _, interrupted = run_with_interrupts([25, 75])
        assert clean.exit_code == interrupted.exit_code == 200

    def test_not_delivered_in_delay_shadow(self):
        """Delivery never lands between a taken jump and its slot."""
        cpu = CPU()
        program = assemble(PROGRAM)
        cpu.load(program)
        handler = program.symbol("handler")
        fires = [0]
        delivered_in_shadow = []
        original = cpu._deliver_interrupt

        def tracking_deliver():
            if cpu.npc != cpu.pc + 4:
                delivered_in_shadow.append(cpu.pc)
            original()

        cpu._deliver_interrupt = tracking_deliver

        def hook(pc, inst):
            # raise exactly when the loop's back edge was just taken (the
            # next instruction is the delayed slot: a shadow boundary)
            if cpu.npc != cpu.pc + 4 and fires[0] < 20:
                fires[0] += 1
                cpu.raise_interrupt(handler)

        cpu.on_execute = hook
        result = cpu.run(max_steps=500_000)
        counted, bumped = result.output.split("\0")
        assert counted == "200"
        assert cpu.interrupts_taken > 0
        assert int(bumped) == cpu.interrupts_taken
        assert delivered_in_shadow == []
