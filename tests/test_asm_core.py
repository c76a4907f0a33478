"""The shared assembler core: directive checks report the offending line
in both assemblers, and both read the same line syntax."""

import pytest

from repro.asm.assembler import assemble
from repro.asm.core import AssemblerError
from repro.baselines.vax.assembler import assemble_vax

#: each is line 3 of the source once wrapped by risc()/vax() below
BAD_DIRECTIVES = [
    ".align 0",
    ".align -4",
    ".align",
    ".space",
    ".space -4",
    ".space 1, 2",
    ".equ x",
    ".equ 5, 6",
    ".equ main, 5",
]


def risc(line: str) -> str:
    return f"main: nop\n .data\n {line}\n .text\n halt"


def vax(line: str) -> str:
    return f"main:\n .data\n {line}\n .text\n halt\n"


@pytest.mark.parametrize("assembler,wrap", [(assemble, risc), (assemble_vax, vax)])
@pytest.mark.parametrize("line", BAD_DIRECTIVES)
def test_bad_directive_reports_its_line(assembler, wrap, line):
    with pytest.raises(AssemblerError) as info:
        assembler(wrap(line))
    assert info.value.line == 3


@pytest.mark.parametrize("assembler,wrap", [(assemble, risc), (assemble_vax, vax)])
def test_label_after_equate_is_a_duplicate(assembler, wrap):
    with pytest.raises(AssemblerError, match="duplicate") as info:
        assembler(".equ x, 1\n" + wrap("x: .byte 0"))
    assert info.value.line == 4


@pytest.mark.parametrize(
    "assembler,source",
    [
        (assemble, 'main: halt // done\n .data\ns: .asciiz "\\u1234"'),
        (assemble_vax, 'main:\n halt\n .data\ns: .asciiz "\\u1234"\n'),
        (assemble_vax, 'main:\n halt\n .data\ns: .ascii "\\x4"\n'),
    ],
)
def test_strings_outside_latin1_are_errors(assembler, source):
    with pytest.raises(AssemblerError) as info:
        assembler(source)
    assert info.value.line is not None


def test_same_data_layout_on_both_machines():
    data = ' .data\nw: .byte 1\n .align 4\nv: .{word} main+4, -1\ns: .asciiz "a,b"\n'
    risc_prog = assemble("main: halt\n" + data.format(word="word"))
    vax_prog = assemble_vax("main:\n halt\n" + data.format(word="long"))
    for prog in (risc_prog, vax_prog):
        seg = next(s for s in prog.segments if s.name == "data")
        assert seg.base % 256 == 0
        assert prog.symbols["v"] - prog.symbols["w"] == 4
        value = int.from_bytes(seg.data[4:8], "big")
        assert value == prog.symbols["main"] + 4
        assert seg.data[8:12] == b"\xff\xff\xff\xff"
        assert seg.data[12:16] == b"a,b\0"


def test_vax_reads_risc_comment_and_character_syntax():
    prog = assemble_vax("main: // entry\n movl #'A', r1\n halt\n")
    code = next(s for s in prog.segments if s.name == "code")
    assert code.data[2:6] == ord("A").to_bytes(4, "big")  # an immediate
