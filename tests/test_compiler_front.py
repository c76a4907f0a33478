"""Tests for the mini-C front-end: lexer, parser, semantic analysis, IR."""

import pytest

from repro.cc import ast_nodes as ast
from repro.cc.errors import CompileError
from repro.cc.driver import compile_to_ir
from repro.cc.ir import CBranch, Call, IRProgram, format_ir
from repro.cc.lexer import TokenKind, tokenize
from repro.cc.parser import parse
from repro.cc.sema import analyze


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("int x = 42;")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.OP,
            TokenKind.NUMBER,
            TokenKind.OP,
            TokenKind.EOF,
        ]

    def test_hex_numbers(self):
        tokens = tokenize("0xFF 0x10")
        assert tokens[0].value == 255
        assert tokens[1].value == 16

    def test_char_literals_and_escapes(self):
        tokens = tokenize(r"'a' '\n' '\0' '\\'")
        assert [t.value for t in tokens[:4]] == [97, 10, 0, 92]

    def test_string_literals(self):
        tokens = tokenize(r'"hi\n"')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "hi\n"

    def test_comments_stripped(self):
        tokens = tokenize("a // line\n/* block\nstill */ b")
        idents = [t.text for t in tokens if t.kind is TokenKind.IDENT]
        assert idents == ["a", "b"]

    def test_hex_literal_without_digits(self):
        with pytest.raises(CompileError) as info:
            compile_to_ir("int main(){return 0x;}")
        assert info.value.line == 1
        assert "hex literal '0x' has no digits" in str(info.value)

    def test_maximal_munch(self):
        tokens = tokenize("a<<=b")
        assert tokens[1].text == "<<="

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 4]

    def test_errors(self):
        with pytest.raises(CompileError):
            tokenize("'unterminated")
        with pytest.raises(CompileError):
            tokenize('"unterminated')
        with pytest.raises(CompileError):
            tokenize("/* unterminated")
        with pytest.raises(CompileError):
            tokenize("`")


class TestParser:
    def test_function_structure(self):
        unit = parse("int add(int a, int b) { return a + b; }")
        assert len(unit.functions) == 1
        func = unit.functions[0]
        assert func.name == "add"
        assert [p.name for p in func.params] == ["a", "b"]

    def test_precedence(self):
        unit = parse("int f() { return 1 + 2 * 3; }")
        ret = unit.functions[0].body.body[0]
        assert isinstance(ret.value, ast.Binary) and ret.value.op == "+"
        assert isinstance(ret.value.right, ast.Binary) and ret.value.right.op == "*"

    def test_assignment_right_associative(self):
        unit = parse("void f() { int a; int b; a = b = 1; }")
        stmt = unit.functions[0].body.body[2]
        assert isinstance(stmt.expr, ast.Assign)
        assert isinstance(stmt.expr.value, ast.Assign)

    def test_dangling_else_binds_inner(self):
        unit = parse("void f(int a) { if (a) if (a) putint(1); else putint(2); }")
        outer = unit.functions[0].body.body[0]
        assert outer.otherwise is None
        assert outer.then.otherwise is not None

    def test_pointer_and_array_declarations(self):
        unit = parse("int g[10]; char *s; void f(int *p, char buf[]) { }")
        assert unit.globals[0].type.is_array
        assert unit.globals[1].type.is_pointer
        params = unit.functions[0].params
        assert params[0].type.is_pointer
        assert params[1].type.is_pointer  # arrays decay

    def test_for_with_declaration(self):
        unit = parse("void f() { for (int i = 0; i < 10; i++) putint(i); }")
        loop = unit.functions[0].body.body[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.Decl)

    def test_do_while(self):
        unit = parse("void f() { int i; i = 0; do i++; while (i < 3); }")
        assert isinstance(unit.functions[0].body.body[2], ast.DoWhile)

    def test_multi_declaration_splits(self):
        unit = parse("void f() { int a = 1, b = 2; }")
        block = unit.functions[0].body.body[0]
        assert isinstance(block, ast.Block)
        assert len(block.body) == 2

    def test_errors(self):
        for src in [
            "int f( {",
            "int f() { return 1 }",
            "int f() { if a return 1; }",
            "int f() { int x[]; }",
            "int 3x;",
        ]:
            with pytest.raises(CompileError):
                parse(src)


class TestSema:
    def check(self, src):
        return analyze(parse(src))

    def test_undefined_variable(self):
        with pytest.raises(CompileError, match="undefined variable"):
            self.check("int f() { return y; }")

    def test_undefined_function(self):
        with pytest.raises(CompileError, match="undefined function"):
            self.check("int f() { return g(); }")

    def test_arity_mismatch(self):
        with pytest.raises(CompileError, match="expects 2"):
            self.check("int g(int a, int b) { return a; } int f() { return g(1); }")

    def test_redefinition(self):
        with pytest.raises(CompileError, match="redefinition"):
            self.check("int f() { return 0; } int f() { return 1; }")
        with pytest.raises(CompileError, match="redefinition"):
            self.check("int x; int x;")
        with pytest.raises(CompileError, match="redefinition"):
            self.check("int f() { int a; int a; return 0; }")

    def test_shadowing_in_inner_scope_allowed(self):
        info, _ = self.check("int f() { int a = 1; { int a = 2; } return a; }")
        assert len(info.functions["f"].locals) == 2

    def test_break_outside_loop(self):
        with pytest.raises(CompileError, match="break outside"):
            self.check("void f() { break; }")

    def test_return_type_checking(self):
        with pytest.raises(CompileError, match="returns void"):
            self.check("void f() { return 1; }")
        with pytest.raises(CompileError, match="must return"):
            self.check("int f() { return; }")

    def test_lvalue_required(self):
        with pytest.raises(CompileError, match="lvalue"):
            self.check("void f() { 1 = 2; }")
        with pytest.raises(CompileError, match="lvalue"):
            self.check("void f(int a) { &(a + 1); }")

    def test_pointer_rules(self):
        with pytest.raises(CompileError, match="dereference"):
            self.check("void f(int a) { *a; }")
        with pytest.raises(CompileError, match="add two pointers"):
            self.check("void f(int *p, int *q) { p + q; }")
        # pointer difference is fine
        self.check("int f(int *p, int *q) { return p - q; }")

    def test_addressed_variable_marked(self):
        info, _ = self.check("void g(int *p) {} void f() { int x; g(&x); }")
        local = info.functions["f"].locals[0]
        assert local.addressed

    def test_array_arithmetic_rejected(self):
        with pytest.raises(CompileError, match="cannot assign to an array"):
            self.check("void f() { int a[3]; int b[3]; a = b; }")
        with pytest.raises(CompileError, match="cannot increment"):
            self.check("void f() { int a[3]; a++; }")

    def test_void_variable_rejected(self):
        with pytest.raises(CompileError, match="void"):
            self.check("void f() { void x; }")


class TestIRGeneration:
    def test_constant_folding(self):
        ir_prog = compile_to_ir("int f() { return 2 * 3 + 4; }")
        text = format_ir(ir_prog)
        assert "ret 10" in text

    def test_strength_reduction_power_of_two(self):
        ir_prog = compile_to_ir("int f(int x) { return x * 8; }")
        assert "<< 3" in format_ir(ir_prog)

    def test_pointer_scaling(self):
        ir_prog = compile_to_ir("int f(int *p) { return *(p + 2); }")
        text = format_ir(ir_prog)
        assert "+ 8" in text  # int* + 2 scales by 4

    def test_char_pointer_not_scaled(self):
        ir_prog = compile_to_ir("int f(char *p) { return *(p + 2); }")
        text = format_ir(ir_prog)
        assert "+ 8" not in text and "+ 2" in text

    def test_constant_index_folds_into_offset(self):
        ir_prog = compile_to_ir("int a[10]; int f() { return a[3]; }")
        assert "+12]" in format_ir(ir_prog)

    def test_short_circuit_produces_branches(self):
        ir_prog = compile_to_ir(
            "int f(int a, int b) { if (a && b) return 1; return 0; }"
        )
        branches = [i for i in ir_prog.function("f").instrs if isinstance(i, CBranch)]
        assert len(branches) == 2

    def test_division_by_zero_constant_rejected(self):
        with pytest.raises(CompileError, match="division by zero"):
            compile_to_ir("int f() { return 1 / 0; }")

    def test_string_literals_interned(self):
        ir_prog = compile_to_ir('void f() { puts("x"); puts("x"); puts("y"); }')
        assert len(ir_prog.strings) == 2

    def test_main_gets_implicit_return_zero(self):
        ir_prog = compile_to_ir("int main() { putint(1); }")
        text = format_ir(ir_prog)
        assert "ret 0" in text

    def test_call_as_statement_discards_result(self):
        ir_prog = compile_to_ir("int g() { return 1; } void f() { g(); }")
        calls = [i for i in ir_prog.function("f").instrs if isinstance(i, Call)]
        assert calls[0].dst is None

    def test_negative_shift_of_negative_number_folds_arithmetically(self):
        ir_prog = compile_to_ir("int f() { return -8 >> 1; }")
        assert "ret -4" in format_ir(ir_prog)
