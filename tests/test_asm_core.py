"""The shared assembler core: directive checks report the offending line
in both assemblers, and both read the same line syntax."""

import pytest

from repro.asm.assembler import assemble
from repro.asm.core import AssemblerError
from repro.baselines.vax.assembler import assemble_vax
from repro.core.cpu import CPU
from repro.isa.encoding import decode
from repro.isa.opcodes import Opcode

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


def test_vax_branch_to_an_immediate_symbol_resolves_it():
    prog = assemble_vax("__start:\n brw #foo\nfoo: halt\n")
    code = next(s for s in prog.segments if s.name == "code")
    # brw's 16-bit displacement is taken from the end of the instruction
    disp = int.from_bytes(code.data[1:3], "big", signed=True)
    assert prog.symbols["__start"] + 3 + disp == prog.symbols["foo"]


@pytest.mark.parametrize(
    "operand", ["6(pc)", "-4(r15)", "pc", "r15", "(pc)", "-(pc)", "(pc)+", "1000(PC)"]
)
def test_vax_pc_is_not_a_general_register(operand):
    """The PC is named only by immediate (``#``) and absolute (``@#``)
    operands; anything else would encode a specifier the machine traps on."""
    with pytest.raises(AssemblerError, match="PC is not a general register") as info:
        assemble_vax(f"__start:\n halt\n movl {operand}, r0\n .long 77\n")
    assert info.value.line == 3
    with pytest.raises(AssemblerError) as info:
        assemble_vax(f"__start:\n movl r0, {operand}\n halt\n")
    assert info.value.line == 2


def test_risc_set_of_a_later_equate_keeps_its_reserved_form():
    prog = assemble("main: set r1, K\n halt\n .equ K, 5\n")
    code = next(s for s in prog.segments if s.name == "code")
    words = [decode(int.from_bytes(code.data[i : i + 4], "big")) for i in (0, 4)]
    assert [w.opcode for w in words] == [Opcode.LDHI, Opcode.ADD]
    assert words[1].dest == 1 and words[1].rs1 == 1  # no padding nop
    cpu = CPU()
    cpu.load(prog)
    cpu.run()
    assert cpu.regs.read(1) == 5
