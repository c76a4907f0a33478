"""Robustness tests: malformed assembly input must fail with a clean
AssemblerError (with a line number), never an internal exception."""

import pytest
from hypothesis import given, strategies as st

from repro.asm.assembler import AssemblerError, assemble
from repro.baselines.vax.assembler import assemble_vax

GARBAGE_LINES = [
    "add",
    "add r1",
    "add r1, r2",
    "add r1 r2 r3",
    "add r1, r2, r3, r4",
    "ldl r1, (r2",
    "ldl r1, r2)",
    "stl r1, 8(r99)",
    "jmp",
    "jeq 8(r1, r2)",
    "set r1",
    ".word",
    ".byte 1 2 3 xyz",
    ".ascii no-quotes",
    ".space -q",
    ".align",
    "ldhi r1, r2, r3",
    "call 1, 2, 3",
    "putpsw #1",
    "cmp r1",
    ".data\n .align 0\n .text",
    ".data\n .align -4\n .text",
    ".data\n .space\n .text",
    ".data\n .space -4\n .text",
    ".equ x",
    ".equ main, 5",
]


class TestRiscAssemblerErrors:
    @pytest.mark.parametrize("line", GARBAGE_LINES)
    def test_garbage_line_raises_assembler_error(self, line):
        with pytest.raises(AssemblerError):
            assemble(f"main: nop\n {line}\n halt")

    @given(
        text=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=1,
            max_size=40,
        )
    )
    def test_fuzzed_line_never_crashes_internally(self, text):
        source = f"main: nop\n{text}\n halt"
        try:
            assemble(source)
        except AssemblerError:
            pass  # the only acceptable failure mode

    def test_immediate_out_of_range(self):
        with pytest.raises(AssemblerError):
            assemble("main: add r1, r0, #5000\n halt")

    def test_branch_out_of_range(self):
        # a relative jump further than the 19-bit field can reach
        filler = "\n".join("    nop" for _ in range(150_000))
        source = f"main: jmp far\n nop\n{filler}\nfar: halt"
        with pytest.raises(AssemblerError):
            assemble(source)


class TestVaxAssemblerErrors:
    VAX_GARBAGE = [
        "movl",
        "movl r1",
        "movl r1, r2, r3",
        "addl3 r1, r2",
        "movl (r99), r1",
        "calls main",
        "brw",
        "unknownop r1, r2",
        "movl 8(, r1",
        ".align 0",
        ".align -4",
        ".space",
        ".space -4",
        ".equ x",
        ".equ __start, 5",
        ".data\n .align 0\n .text",
    ]

    @pytest.mark.parametrize("line", VAX_GARBAGE)
    def test_garbage_raises(self, line):
        with pytest.raises(AssemblerError):
            assemble_vax(f"__start:\n {line}\n halt\n")

    @given(
        text=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=1,
            max_size=40,
        )
    )
    def test_fuzzed_line_never_crashes_internally(self, text):
        source = f"__start:\n{text}\n halt\n"
        try:
            assemble_vax(source)
        except AssemblerError:
            pass

    def test_undefined_symbol(self):
        with pytest.raises(AssemblerError, match="undefined"):
            assemble_vax("__start:\n movl @#missing, r1\n halt\n")

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble_vax("__start:\n__start:\n halt\n")
