"""The code-generator skeleton shared by the RISC I and VAX-like back ends.

Both back ends walk the same IR the same way: one function at a time,
each IR instruction handed to a per-class lowering method, every
instruction stamped with its function and source line, and the globals
and string literals written out as one ``.data`` section.  That walk
lives here.  A back end supplies only what differs between the machines:

* :class:`FunctionCodegen` subclasses place variables
  (``_place_variables``), write the prologue (``_prologue``) and lower
  each IR class in a ``_gen_<class name in lower case>`` method;
* :class:`ModuleCodegen` subclasses name the start-up stub, the runtime
  routines the module needs and the data directive of one 32-bit word.

The output is a list of :class:`repro.asm.core.Statement` records, one
per line of assembly, each instruction carrying its target's parsed
operands; the layout pass of :mod:`repro.asm.core` encodes them as they
are, and :func:`repro.asm.core.render` writes them out as text (with the
profiler's ``;@line`` and ``;@fn`` markers).
"""

from __future__ import annotations

import copy
import functools

from repro.asm.core import Statement, TwoPassAssembler, fn_marker, line_marker
from repro.cc import ir
from repro.cc.errors import CompileError


def instruction(
    mnemonic: str, operands, func: str, src_line: int = 0, note: str = ""
) -> Statement:
    """An instruction statement; ``operands`` are the target's operand
    records, each with its ``text``, and ``note`` is the line's marker."""
    texts = [operand.text for operand in operands]
    return Statement(
        mnemonic,
        texts,
        source=f"{mnemonic} {', '.join(texts)}" if texts else mnemonic,
        func=func,
        src_line=src_line,
        parsed=operands,
        note=note,
    )


def directive(mnemonic: str, *operands: str, label: str = "") -> Statement:
    """A directive statement with textual operands."""
    source = f"{mnemonic} {', '.join(operands)}" if operands else mnemonic
    return Statement(mnemonic, list(operands), source=source, label=label)


def label(name: str, function: bool = False) -> Statement:
    """A label line; a function's entry label carries the ``;@fn`` marker."""
    return Statement("", [], label=name, note=f"\t{fn_marker(name)}" if function else "")


@functools.cache
def _parsed_routine(assembler: type[TwoPassAssembler], text: str) -> tuple[Statement, ...]:
    parser = assembler()
    statements = parser.parse(text + "\n")
    for stmt in statements:
        if stmt.mnemonic:
            stmt.parsed = tuple(parser.parse_operands(stmt))
    return tuple(statements)


def runtime_routine(assembler: type[TwoPassAssembler], text: str) -> list[Statement]:
    """Fresh statements of a hand-written runtime routine, ending with a
    blank line; each text is parsed once, on first use."""
    return [copy.copy(stmt) for stmt in _parsed_routine(assembler, text)]


class FunctionCodegen:
    """Emits one function's assembly lines."""

    #: IR class -> lowering method, collected once per back end
    _lowerings: dict[type, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = {kind: f"_gen_{kind.__name__.lower()}" for kind in ir.Instr.__subclasses__()}
        cls._lowerings = {
            kind: getattr(cls, name) for kind, name in names.items() if hasattr(cls, name)
        }

    def __init__(self, func: ir.IRFunction, used_runtime: set[str]):
        self.func = func
        self.used_runtime = used_runtime
        self.statements: list[Statement] = []
        self._label_count = 0
        self.frame_size = 0
        self._set_line(func.line)
        self._place_variables()

    def _place_variables(self) -> None:
        raise NotImplementedError

    def _prologue(self) -> None:
        raise NotImplementedError

    # -- emission helpers ------------------------------------------------------

    def _set_line(self, line: int | None) -> None:
        """Stamp what follows with source line ``line`` (none when 0)."""
        self._cur_line = line or 0
        self._note = f"\t{line_marker(line)}" if line else ""

    def emit(self, mnemonic: str, *operands) -> None:
        self.statements.append(
            instruction(mnemonic, operands, self.func.name, self._cur_line, self._note)
        )

    def emit_label(self, name: str) -> None:
        self.statements.append(label(name))

    def _local_label(self, hint: str) -> str:
        self._label_count += 1
        return f".{hint}_{self.func.name}_{self._label_count}"

    # -- the walk ------------------------------------------------------------------

    def generate(self) -> list[Statement]:
        self.statements.append(label(self.func.name, function=True))
        self._prologue()  # stamped with the definition line
        lowerings = self._lowerings
        for instr in self.func.instrs:
            lower = lowerings.get(type(instr))
            if lower is None:
                raise CompileError(
                    f"{type(self).__module__}: unhandled IR {type(instr).__name__}"
                )
            lower(self, instr)
        return self.statements

    def _gen_marker(self, instr: ir.Marker) -> None:
        pass  # statement markers are profiling-only

    def _gen_srcloc(self, instr: ir.SrcLoc) -> None:
        self._set_line(instr.line)

    def _gen_label(self, instr: ir.Label) -> None:
        self.emit_label(instr.name)


class ModuleCodegen:
    """Generates a complete assembly module from an IR program."""

    #: who generated the module, for the banner comment
    BACKEND = ""
    #: the entry label and the start-up code that calls ``main`` and halts,
    #: as ``(mnemonic, operand, ...)`` tuples
    ENTRY = ""
    START: tuple[tuple, ...] = ()
    #: data directive for one 32-bit word
    WORD = ""
    FUNCTION: type[FunctionCodegen] = FunctionCodegen

    def __init__(self, program: ir.IRProgram):
        self.program = program
        self.used_runtime: set[str] = set()

    def runtime(self) -> list[Statement]:
        """Statements of the runtime routines the generated code called."""
        raise NotImplementedError

    def generate(self) -> list[Statement]:
        statements = [
            Statement("", [], note=f"; generated by rcc ({self.BACKEND})"),
            directive(".text"),
            label(self.ENTRY, function=True),
        ]
        statements += [instruction(m, operands, self.ENTRY) for m, *operands in self.START]
        for func in self.program.functions:
            statements += self.FUNCTION(func, self.used_runtime).generate()
        statements += self.runtime()
        statements += self._data_section()
        return statements

    def _data_section(self) -> list[Statement]:
        statements: list[Statement] = []
        if not self.program.globals and not self.program.strings:
            return statements
        statements.append(directive(".data"))
        for gdef in self.program.globals:
            var = gdef.var
            statements.append(directive(".align", "4"))
            if var.type.is_array:
                statements.append(directive(".space", str(var.type.size), label=var.name))
            elif gdef.init_string is not None:
                statements.append(directive(self.WORD, gdef.init_string, label=var.name))
            else:
                statements.append(
                    directive(self.WORD, str(gdef.init_value or 0), label=var.name)
                )
        for name, text in self.program.strings.items():
            escaped = (
                text.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
                .replace("\t", "\\t")
                .replace("\r", "\\r")
                .replace("\0", "\\0")
            )
            statements.append(directive(".asciiz", f'"{escaped}"', label=name))
        return statements
