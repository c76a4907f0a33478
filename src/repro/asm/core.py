"""The two-pass assembler core shared by RISC I and the VAX-like baseline.

Everything the two machines have in common lives here: the line syntax
(labels, ``;`` and ``//`` comments, comma-separated operands), numbers,
strings and ``sym±n`` expressions, equates, the section and data
directives, the text/data layout and the :class:`Program` it produces.
A target subclasses :class:`TwoPassAssembler` and supplies only what the
paper says differs between the machines — how big one instruction is and
how it is encoded:

* :meth:`TwoPassAssembler.parse_operands` — the operands of one statement
  as the target's operand records (kept in :attr:`Statement.parsed`);
* :meth:`TwoPassAssembler.size` — bytes one statement occupies (pass 1);
* :meth:`TwoPassAssembler.encode` — its bytes, once every symbol is known
  (pass 2);
* class attributes naming the data widths, the entry symbols, the
  target's own directives and whether data may sit in ``.text``.

Directives handled here: ``.text .data .equ .global .align .space .ascii
.asciiz`` plus the target's data-width table (``.byte`` and friends).

A program reaches the layout pass as a list of :class:`Statement` records,
one per line of assembly.  Hand-written text gets there through
:meth:`TwoPassAssembler.parse`; the compiler's code generators build the
records themselves, with their operands already parsed, and hand them to
:meth:`TwoPassAssembler.assemble_statements` without any text in between.
Assembly text is a rendering of the list (:func:`render`).

The profiler markers are defined here too.  The code generators suffix an
instruction with ``;@42`` (high-level source line 42) and a function's
entry label with ``;@fn name``; :meth:`TwoPassAssembler.parse` reads them
from the comment region of a line (so a ``;@`` inside a string literal
never matches) into each statement's ``func``/``src_line``, which the
layout pass turns into the program's line table.
"""

from __future__ import annotations

import dataclasses
import re

from repro.core.program import DEFAULT_CODE_BASE, Program, Segment

#: Text and data layout: data starts at the next multiple of this.
DATA_ALIGN = 256

LINE_MARKER_RE = re.compile(r";@(\d+)")
FN_MARKER_RE = re.compile(r";@fn\s+(\S+)")


def line_marker(line: int) -> str:
    """The comment that stamps an instruction with source line ``line``."""
    return f";@{line}"


def fn_marker(name: str) -> str:
    """The comment that marks a label as function ``name``'s entry."""
    return f";@fn {name}"


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
NAME_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_EXPR_RE = re.compile(
    r"^(?P<sym>[A-Za-z_.$][\w.$]*)?\s*(?:(?P<op>[+-])\s*(?P<num>\w+))?$"
)
#: the code part of a line: runs of plain text, single slashes and
#: ``"..."`` strings (an unterminated one runs to the end of the line)
_CODE_RE = re.compile(r'(?:[^;"/]+|/(?!/)|"[^"]*"?)*')
#: characters that make a comma not split operands
_GROUPING = frozenset('"()')


class AssemblerError(Exception):
    """A syntax or semantic error in assembly source."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclasses.dataclass(slots=True)
class Statement:
    """One line of assembly: an optional label, then an instruction or
    directive (``mnemonic`` is empty on a line without one).  Pass 1 fills
    in where it goes and how big it is."""

    mnemonic: str
    operands: list[str]
    #: line number in the assembly text
    line: int = 0
    #: the instruction or directive as written, without label or comment
    source: str = ""
    section: str = "text"
    offset: int = 0
    size: int = 0
    #: enclosing function and high-level source line (profiler line table)
    func: str = ""
    src_line: int = 0
    #: a data directive of the core (else sized and encoded by the target)
    data: bool = False
    #: the operands as the target's :meth:`TwoPassAssembler.parse_operands`
    #: returns them, for :meth:`TwoPassAssembler.size` and ``encode``
    parsed: object = None
    #: the label defined at the start of the line
    label: str = ""
    #: what follows the code on its line: blanks, markers and comments
    note: str = ""


def render(statements: list[Statement]) -> str:
    """Assembly text of ``statements``, one line each; numbers their lines."""
    lines = []
    for number, stmt in enumerate(statements, start=1):
        stmt.line = number
        if stmt.label:
            code = f"{stmt.label}: {stmt.source}" if stmt.source else f"{stmt.label}:"
        else:
            code = f"    {stmt.source}" if stmt.source else ""
        lines.append(code + stmt.note)
    return "\n".join(lines) + "\n"


class TwoPassAssembler:
    """Size and place statements in pass 1, resolve and encode in pass 2."""

    #: data directive -> bytes per value
    DATA_WIDTHS: dict[str, int] = {}
    #: entry symbols, most preferred first
    ENTRY_SYMBOLS: tuple[str, ...] = ("main",)
    #: directives the target sizes and encodes itself, like instructions
    TARGET_DIRECTIVES: frozenset[str] = frozenset()
    #: may data directives appear in ``.text``?  Not where code must stay
    #: a sequence of whole instruction words.
    DATA_IN_TEXT = False
    #: record ``address -> "line: text"`` for every instruction
    #: (``Program.describe``)?
    SOURCE_MAP = False

    def __init__(self, code_base: int = DEFAULT_CODE_BASE):
        self.code_base = code_base
        self.symbols: dict[str, int] = {}
        self.equates: dict[str, int] = {}
        self._sym_sections: dict[str, tuple[str, int]] = {}
        self._statements: list[Statement] = []

    # -- target hooks ------------------------------------------------------------

    def parse_operands(self, stmt: Statement) -> object:
        """The operands of an instruction (or target directive), parsed."""
        raise NotImplementedError

    def size(self, stmt: Statement) -> int:
        """Bytes an instruction (or target directive) occupies."""
        raise NotImplementedError

    def encode(self, stmt: Statement, address: int) -> bytes:
        """The bytes of an instruction (or target directive) at ``address``."""
        raise NotImplementedError

    # -- public API ------------------------------------------------------------

    def assemble(self, source: str) -> Program:
        return self.assemble_statements(self.parse(source))

    def assemble_statements(self, statements: list[Statement]) -> Program:
        """Lay out and encode a statement list (the layout pass)."""
        offsets = self._pass1(statements)
        data_base = _align(self.code_base + offsets["text"], DATA_ALIGN)
        bases = {"text": self.code_base, "data": data_base}
        for name, (section, offset) in self._sym_sections.items():
            self.symbols[name] = bases[section] + offset
        self.symbols.update(self.equates)
        code, data, source_map, line_table = self._pass2(bases)
        segments = [Segment(self.code_base, bytes(code), name="code")]
        if data:
            segments.append(Segment(data_base, bytes(data), name="data"))
        entry = next(
            (self.symbols[name] for name in self.ENTRY_SYMBOLS if name in self.symbols),
            None,
        )
        if entry is None:
            raise AssemblerError(
                f"no entry point: define {' or '.join(self.ENTRY_SYMBOLS)}"
            )
        return Program(
            segments=tuple(segments),
            entry=entry,
            symbols=dict(self.symbols),
            source_map=source_map,
            line_table=line_table,
        )

    def parse(self, source: str) -> list[Statement]:
        """Assembly text as statements, one per label and line.

        Each statement's ``func`` and ``src_line`` come from the profiler
        markers.  When the source carries explicit ``;@fn`` markers
        (compiler output), they alone decide function boundaries;
        otherwise every non-local ``.text`` label starts a function.
        """
        statements: list[Statement] = []
        section = "text"
        fn_markers = ";@fn" in source
        cur_func = ""
        for lineno, raw in enumerate(source.splitlines(), start=1):
            code = strip_comment(raw).rstrip()
            note = raw[len(code) :]
            line = code.strip()
            fn = FN_MARKER_RE.search(note)
            if fn:
                cur_func = fn.group(1)
            labels = []
            while True:
                match = _LABEL_RE.match(line)
                if not match:
                    break
                name = match.group(1)
                labels.append(name)
                if not fn_markers and section == "text" and not name.startswith("."):
                    cur_func = name
                line = line[match.end() :].strip()
            last = labels.pop() if labels else ""
            for name in labels:
                statements.append(Statement("", [], lineno, label=name))
            if not line:
                statements.append(Statement("", [], lineno, label=last, note=note))
                continue
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            if mnemonic in (".text", ".data"):
                section = mnemonic[1:]
            src = LINE_MARKER_RE.search(note)
            statements.append(Statement(
                mnemonic,
                split_operands(parts[1]) if len(parts) > 1 else [],
                lineno,
                line,
                func=cur_func,
                src_line=int(src.group(1)) if src else 0,
                label=last,
                note=note,
            ))
        return statements

    # -- pass 1: size and place ----------------------------------------------

    def _pass1(self, statements: list[Statement]) -> dict[str, int]:
        section = "text"
        offsets = {"text": 0, "data": 0}
        for stmt in statements:
            if stmt.label:
                self._check_new_symbol(stmt.label, "label", stmt.line)
                self._sym_sections[stmt.label] = (section, offsets[section])
            mnemonic = stmt.mnemonic
            if not mnemonic:
                continue
            if mnemonic in (".text", ".data"):
                section = mnemonic[1:]
                continue
            if mnemonic == ".global":
                continue
            if mnemonic == ".equ":
                self._equate(stmt.operands, stmt.line)
                continue
            stmt.section = section
            stmt.offset = offsets[section]
            stmt.data = mnemonic.startswith(".") and mnemonic not in self.TARGET_DIRECTIVES
            if stmt.data:
                if section == "text" and not self.DATA_IN_TEXT:
                    raise AssemblerError(
                        f"data directive {mnemonic} only allowed in .data", stmt.line
                    )
                stmt.size = self._data_size(stmt)
            elif section != "text":
                raise AssemblerError("instructions only allowed in .text", stmt.line)
            else:
                if stmt.parsed is None:
                    stmt.parsed = self.parse_operands(stmt)
                stmt.size = self.size(stmt)
            offsets[section] += stmt.size
            self._statements.append(stmt)
        return offsets

    def _check_new_symbol(self, name: str, what: str, line: int) -> None:
        if name in self._sym_sections or name in self.equates:
            raise AssemblerError(f"duplicate {what} {name!r}", line)

    def _equate(self, operands: list[str], line: int) -> None:
        if len(operands) != 2 or not NAME_RE.match(operands[0]):
            raise AssemblerError(".equ needs name, value", line)
        self._check_new_symbol(operands[0], "symbol", line)
        self.equates[operands[0]] = parse_number(operands[1], line)

    def _data_size(self, stmt: Statement) -> int:
        m = stmt.mnemonic
        if m in self.DATA_WIDTHS:
            return self.DATA_WIDTHS[m] * len(stmt.operands)
        if m in (".ascii", ".asciiz"):
            text = parse_string(stmt.operands, stmt.line)
            return len(text) + (1 if m == ".asciiz" else 0)
        if m == ".space":
            return _count(stmt, minimum=0)
        if m == ".align":
            return (-stmt.offset) % _count(stmt, minimum=1)
        raise AssemblerError(f"unknown directive {m!r}", stmt.line)

    # -- pass 2: resolve and emit ------------------------------------------------

    def _pass2(self, bases: dict[str, int]):
        out = {"text": bytearray(), "data": bytearray()}
        source_map: dict[int, str] = {}
        line_table: dict[int, tuple[str, int]] = {}
        for stmt in self._statements:
            address = bases[stmt.section] + stmt.offset
            if stmt.section == "text":
                line_table[address] = (stmt.func, stmt.src_line)
            if stmt.data:
                encoded = self._data_bytes(stmt)
            else:
                if self.SOURCE_MAP:
                    source_map[address] = f"{stmt.line}: {stmt.source}"
                try:
                    encoded = self.encode(stmt, address)
                except AssemblerError:
                    raise
                except Exception as exc:  # encoding errors carry no line number
                    raise AssemblerError(f"{exc} in {stmt.source!r}", stmt.line) from exc
            if len(encoded) != stmt.size:
                raise AssemblerError(
                    f"internal sizing error for {stmt.source!r}: "
                    f"{len(encoded)} bytes emitted, {stmt.size} reserved",
                    stmt.line,
                )
            out[stmt.section] += encoded
        return out["text"], out["data"], source_map, line_table

    def _data_bytes(self, stmt: Statement) -> bytes:
        m = stmt.mnemonic
        if m in self.DATA_WIDTHS:
            width = self.DATA_WIDTHS[m]
            mask = (1 << (8 * width)) - 1
            return b"".join(
                (self.evaluate(text, stmt.line) & mask).to_bytes(width, "big")
                for text in stmt.operands
            )
        if m in (".ascii", ".asciiz"):
            text = parse_string(stmt.operands, stmt.line)
            return text + b"\0" if m == ".asciiz" else text
        return bytes(stmt.size)  # .space, .align

    # -- expressions -------------------------------------------------------------

    def resolve(self, name: str, line: int) -> int:
        if name not in self.symbols:
            raise AssemblerError(f"undefined symbol {name!r}", line)
        return self.symbols[name]

    def evaluate(self, text: str, line: int) -> int:
        """Evaluate ``number | symbol | symbol±number``."""
        if text in self.symbols:
            return self.symbols[text]
        try:
            return parse_number(text, line)
        except AssemblerError:
            pass
        expr = split_symbol(text, line)
        if expr is None:
            raise AssemblerError(f"cannot evaluate expression {text.strip()!r}", line)
        return self.resolve(expr[0], line) + expr[1]


# -- lexical helpers ----------------------------------------------------------------


def _align(value: int, boundary: int) -> int:
    return (value + boundary - 1) // boundary * boundary


def _count(stmt: Statement, minimum: int) -> int:
    """The single numeric operand of ``.space``/``.align``, at least ``minimum``."""
    if len(stmt.operands) != 1:
        raise AssemblerError(f"{stmt.mnemonic} needs one number", stmt.line)
    value = parse_number(stmt.operands[0], stmt.line)
    if value < minimum:
        raise AssemblerError(f"{stmt.mnemonic} needs a number >= {minimum}", stmt.line)
    return value


def split_symbol(text: str, line: int) -> tuple[str, int] | None:
    """``sym``, ``sym+n`` or ``sym-n`` as ``(sym, ±n)``; None for other text."""
    match = _EXPR_RE.match(text.strip())
    if not match or not match.group("sym"):
        return None
    delta = parse_number(match.group("num"), line) if match.group("op") else 0
    return match.group("sym"), -delta if match.group("op") == "-" else delta


def strip_comment(line: str) -> str:
    """``line`` up to its ``;`` or ``//`` comment (quotes respected)."""
    return line[: _CODE_RE.match(line).end()]


def split_operands(text: str) -> list[str]:
    """Split on commas that are not inside quotes or parentheses."""
    if not _GROUPING.intersection(text):
        parts = [part.strip() for part in text.split(",")]
        return parts[:-1] if not parts[-1] else parts
    parts: list[str] = []
    depth = 0
    in_string = False
    current: list[str] = []
    for ch in text:
        if ch == '"':
            in_string = not in_string
        if not in_string:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append("".join(current).strip())
                current = []
                continue
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _unescape(text: str, what: str, line: int) -> str:
    try:
        return text.encode().decode("unicode_escape")
    except UnicodeDecodeError:
        raise AssemblerError(f"bad escape in {what} {text!r}", line) from None


def parse_number(text: str, line: int) -> int:
    """An integer in any Python base prefix, or a ``'c'`` character literal."""
    text = text.strip()
    if len(text) >= 3 and text.startswith("'") and text.endswith("'"):
        unescaped = _unescape(text[1:-1], "character literal", line)
        if len(unescaped) != 1:
            raise AssemblerError(f"bad character literal {text!r}", line)
        return ord(unescaped)
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"bad number {text!r}", line) from None


def parse_string(operands: list[str], line: int) -> bytes:
    """The ``"..."`` operand of ``.ascii``/``.asciiz`` as Latin-1 bytes."""
    text = ",".join(operands).strip()
    if not (len(text) >= 2 and text.startswith('"') and text.endswith('"')):
        raise AssemblerError(f"expected string literal, got {text!r}", line)
    try:
        return _unescape(text[1:-1], "string", line).encode("latin-1")
    except UnicodeEncodeError:
        raise AssemblerError(f"string {text} is not Latin-1", line) from None
