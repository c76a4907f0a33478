"""RISC I runtime library, in assembly.

RISC I has no multiply or divide instruction — the paper's machine relied
on software routines, and so does this backend.  The routines use the
standard calling convention (arguments in the callee's HIGH registers
r26/r27, result back through the caller's r10) plus one runtime-internal
extension: ``__udivmod`` returns the remainder as a *second* result in
r27/r11, which ``__div`` and ``__mod`` exploit.
"""

from __future__ import annotations

MUL = """
; __mul: r26 * r27 -> r26 (low 32 bits; sign-agnostic shift-and-add)
__mul:	;@fn __mul
    add r16, r0, #0          ; product
    add r17, r26, #0         ; multiplicand
    add r18, r27, #0         ; multiplier
__mul_loop:
    cmp r18, r0
    jeq __mul_done
    nop
    and r19, r18, #1
    cmp r19, r0
    jeq __mul_skip
    nop
    add r16, r16, r17
__mul_skip:
    sll r17, r17, #1
    jmp __mul_loop
    srl r18, r18, #1
__mul_done:
    add r26, r16, #0
    ret
    nop
"""

UDIVMOD = """
; __udivmod: unsigned r26 / r27 -> quotient r26, remainder r27
; Normalization pre-loops skip the dividend's leading zero bits (first by
; bytes, then by bits) so small dividends don't pay for 32 iterations.
__udivmod:	;@fn __udivmod
    add r16, r0, #0          ; quotient
    add r17, r0, #0          ; remainder
    add r18, r0, #32         ; bit counter
__udm_norm8:
    srl r19, r26, #24
    cmp r19, r0
    jne __udm_norm1
    nop
    cmp r26, r0
    jeq __udm_done           ; dividend is zero: q = 0, r = 0
    nop
    sll r26, r26, #8
    jmp __udm_norm8
    sub r18, r18, #8
__udm_norm1:
    cmp r26, r0
    jlt __udm_loop           ; top bit reached: start dividing
    nop
    sll r26, r26, #1
    jmp __udm_norm1
    sub r18, r18, #1
__udm_loop:
    sll r16, r16, #1
    sll r17, r17, #1
    srl r19, r26, #31
    or  r17, r17, r19
    sll r26, r26, #1
    cmp r17, r27
    jlo __udm_next           ; remainder < divisor (unsigned)
    nop
    sub r17, r17, r27
    or  r16, r16, #1
__udm_next:
    sub! r18, r18, #1
    jne __udm_loop
    nop
__udm_done:
    add r26, r16, #0
    add r27, r17, #0
    ret
    nop
"""

DIV = """
; __div: signed r26 / r27 -> r26 (truncating toward zero)
__div:	;@fn __div
    xor r20, r26, r27        ; quotient sign in bit 31
    cmp r26, r0
    jge __div_apos
    nop
    subr r26, r26, #0
__div_apos:
    cmp r27, r0
    jge __div_bpos
    nop
    subr r27, r27, #0
__div_bpos:
    add r10, r26, #0
    add r11, r27, #0
    call __udivmod
    nop                      ; call delay slot runs in the NEW window
    cmp r20, r0
    jge __div_pos
    nop
    subr r10, r10, #0
__div_pos:
    add r26, r10, #0
    ret
    nop
"""

MOD = """
; __mod: signed r26 % r27 -> r26 (sign follows the dividend)
__mod:	;@fn __mod
    add r20, r26, #0         ; remainder sign = dividend sign
    cmp r26, r0
    jge __mod_apos
    nop
    subr r26, r26, #0
__mod_apos:
    cmp r27, r0
    jge __mod_bpos
    nop
    subr r27, r27, #0
__mod_bpos:
    add r10, r26, #0
    add r11, r27, #0
    call __udivmod
    nop                      ; call delay slot runs in the NEW window
    cmp r20, r0
    jge __mod_pos
    nop
    subr r11, r11, #0
__mod_pos:
    add r26, r11, #0
    ret
    nop
"""

PUTS = """
; __puts: write the NUL-terminated string at r26 to the console
__puts:	;@fn __puts
    add r16, r26, #0
__puts_loop:
    ldbu r17, 0(r16)
    cmp r17, r0
    jeq __puts_done
    nop
    putc r17
    jmp __puts_loop
    add r16, r16, #1         ; delay slot: advance pointer
__puts_done:
    ret
    nop
"""

#: routine name -> (assembly text, direct dependencies)
ROUTINES: dict[str, tuple[str, tuple[str, ...]]] = {
    "__mul": (MUL, ()),
    "__udivmod": (UDIVMOD, ()),
    "__div": (DIV, ("__udivmod",)),
    "__mod": (MOD, ("__udivmod",)),
    "__puts": (PUTS, ()),
}


def needed_routines(used: set[str]) -> list[str]:
    """The transitively required runtime routines, in a stable order."""
    needed: set[str] = set()
    stack = [name for name in used if name in ROUTINES]
    while stack:
        name = stack.pop()
        if name in needed:
            continue
        needed.add(name)
        stack.extend(ROUTINES[name][1])
    return sorted(needed)
