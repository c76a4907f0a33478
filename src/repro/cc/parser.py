"""Recursive-descent parser for mini-C."""

from __future__ import annotations

from repro.cc import ast_nodes as ast
from repro.cc.errors import CompileError
from repro.cc.lexer import Token, TokenKind, tokenize

#: Binary operator precedence, higher binds tighter.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_TYPE_KEYWORDS = {"int": ast.BaseType.INT, "char": ast.BaseType.CHAR, "void": ast.BaseType.VOID}


class Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check_op(self, text: str) -> bool:
        token = self._tokens[self._pos]
        return token.text == text and token.kind is TokenKind.OP

    def _accept_op(self, text: str) -> bool:
        if self._check_op(text):
            self._advance()
            return True
        return False

    def _expect_op(self, text: str) -> Token:
        if not self._check_op(text):
            raise CompileError(f"expected {text!r}, got {self._cur.text!r}", self._cur.line)
        return self._advance()

    def _expect_ident(self) -> Token:
        if self._cur.kind is not TokenKind.IDENT:
            raise CompileError(f"expected identifier, got {self._cur.text!r}", self._cur.line)
        return self._advance()

    def _at_type(self) -> bool:
        return self._cur.kind is TokenKind.KEYWORD and self._cur.text in _TYPE_KEYWORDS

    # -- top level -------------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self._cur.kind is not TokenKind.EOF:
            self._parse_top_level(unit)
        return unit

    def _parse_top_level(self, unit: ast.TranslationUnit) -> None:
        line = self._cur.line
        base = self._parse_base_type()
        pointers = 0
        while self._accept_op("*"):
            pointers += 1
        name = self._expect_ident().text
        if self._check_op("("):
            unit.functions.append(
                self._parse_function(name, ast.Type(base, pointers), line)
            )
            return
        # global variable(s)
        while True:
            var_type = ast.Type(base, pointers)
            if self._accept_op("["):
                size_token = self._advance()
                if size_token.kind is not TokenKind.NUMBER:
                    raise CompileError("array size must be a number", size_token.line)
                self._expect_op("]")
                var_type = ast.Type(base, pointers, array=size_token.value)
            init = None
            if self._accept_op("="):
                init = self._parse_assignment()
            unit.globals.append(ast.GlobalVar(name, var_type, init, line))
            if self._accept_op(";"):
                return
            self._expect_op(",")
            pointers = 0
            while self._accept_op("*"):
                pointers += 1
            name = self._expect_ident().text

    def _parse_base_type(self) -> ast.BaseType:
        if not self._at_type():
            raise CompileError(f"expected type, got {self._cur.text!r}", self._cur.line)
        return _TYPE_KEYWORDS[self._advance().text]

    def _parse_function(self, name: str, return_type: ast.Type, line: int) -> ast.FuncDef:
        self._expect_op("(")
        params: list[ast.Param] = []
        if not self._check_op(")"):
            if self._cur.kind is TokenKind.KEYWORD and self._cur.text == "void":
                self._advance()
            else:
                while True:
                    params.append(self._parse_param())
                    if not self._accept_op(","):
                        break
        self._expect_op(")")
        if self._accept_op(";"):
            # forward declaration (prototype): no body
            return ast.FuncDef(name, return_type, params, None, line)
        body = self._parse_block()
        return ast.FuncDef(name, return_type, params, body, line)

    def _parse_param(self) -> ast.Param:
        line = self._cur.line
        base = self._parse_base_type()
        pointers = 0
        while self._accept_op("*"):
            pointers += 1
        name = self._expect_ident().text
        if self._accept_op("["):
            self._expect_op("]")
            pointers += 1  # array parameters decay to pointers
        return ast.Param(name, ast.Type(base, pointers), line)

    # -- statements ---------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect_op("{")
        body: list[ast.Stmt] = []
        while not self._check_op("}"):
            if self._cur.kind is TokenKind.EOF:
                raise CompileError("unterminated block", start.line)
            body.append(self._parse_statement())
        self._expect_op("}")
        return ast.Block(start.line, body=body)

    def _parse_statement(self) -> ast.Stmt:
        token = self._cur
        if self._at_type():
            return self._parse_declaration()
        if token.kind is TokenKind.KEYWORD:
            handler = {
                "if": self._parse_if,
                "while": self._parse_while,
                "do": self._parse_do_while,
                "for": self._parse_for,
                "return": self._parse_return,
                "break": self._parse_break,
                "continue": self._parse_continue,
            }.get(token.text)
            if handler:
                return handler()
        if self._check_op("{"):
            return self._parse_block()
        if self._accept_op(";"):
            return ast.Block(token.line)  # empty statement
        expr = self._parse_expression()
        self._expect_op(";")
        return ast.ExprStmt(token.line, expr=expr)

    def _parse_declaration(self) -> ast.Stmt:
        line = self._cur.line
        base = self._parse_base_type()
        decls: list[ast.Stmt] = []
        while True:
            pointers = 0
            while self._accept_op("*"):
                pointers += 1
            name = self._expect_ident().text
            var_type = ast.Type(base, pointers)
            if self._accept_op("["):
                size_token = self._advance()
                if size_token.kind is not TokenKind.NUMBER:
                    raise CompileError("array size must be a number", size_token.line)
                self._expect_op("]")
                var_type = ast.Type(base, pointers, array=size_token.value)
            init = self._parse_assignment() if self._accept_op("=") else None
            decls.append(ast.Decl(line, name=name, var_type=var_type, init=init))
            if self._accept_op(";"):
                break
            self._expect_op(",")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(line, body=decls)

    def _parse_if(self) -> ast.Stmt:
        line = self._advance().line
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        then = self._parse_statement()
        otherwise = None
        if self._cur.kind is TokenKind.KEYWORD and self._cur.text == "else":
            self._advance()
            otherwise = self._parse_statement()
        return ast.If(line, cond=cond, then=then, otherwise=otherwise)

    def _parse_while(self) -> ast.Stmt:
        line = self._advance().line
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        return ast.While(line, cond=cond, body=self._parse_statement())

    def _parse_do_while(self) -> ast.Stmt:
        line = self._advance().line
        body = self._parse_statement()
        if not (self._cur.kind is TokenKind.KEYWORD and self._cur.text == "while"):
            raise CompileError("expected 'while' after do body", self._cur.line)
        self._advance()
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        self._expect_op(";")
        return ast.DoWhile(line, cond=cond, body=body)

    def _parse_for(self) -> ast.Stmt:
        line = self._advance().line
        self._expect_op("(")
        init: ast.Stmt | None = None
        if not self._check_op(";"):
            if self._at_type():
                init = self._parse_declaration()
            else:
                expr = self._parse_expression()
                self._expect_op(";")
                init = ast.ExprStmt(line, expr=expr)
        else:
            self._advance()
        cond = None if self._check_op(";") else self._parse_expression()
        self._expect_op(";")
        step = None if self._check_op(")") else self._parse_expression()
        self._expect_op(")")
        return ast.For(line, init=init, cond=cond, step=step, body=self._parse_statement())

    def _parse_return(self) -> ast.Stmt:
        line = self._advance().line
        value = None if self._check_op(";") else self._parse_expression()
        self._expect_op(";")
        return ast.Return(line, value=value)

    def _parse_break(self) -> ast.Stmt:
        line = self._advance().line
        self._expect_op(";")
        return ast.Break(line)

    def _parse_continue(self) -> ast.Stmt:
        line = self._advance().line
        self._expect_op(";")
        return ast.Continue(line)

    # -- expressions ---------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_binary(0)
        if self._cur.kind is TokenKind.OP and self._cur.text in _ASSIGN_OPS:
            op_token = self._advance()
            value = self._parse_assignment()
            return ast.Assign(op_token.line, op=op_token.text, target=left, value=value)
        return left

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._tokens[self._pos]
            if token.kind is not TokenKind.OP:
                return left
            precedence = _PRECEDENCE.get(token.text, 0)  # every operator's is >= 1
            if precedence <= min_precedence:
                return left
            self._advance()
            right = self._parse_binary(precedence)
            left = ast.Binary(token.line, op=token.text, left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        token = self._cur
        if token.kind is TokenKind.OP:
            if token.text in ("-", "!", "~", "*", "&"):
                self._advance()
                operand = self._parse_unary()
                return ast.Unary(token.line, op=token.text, operand=operand)
            if token.text in ("++", "--"):
                self._advance()
                target = self._parse_unary()
                return ast.IncDec(token.line, op=token.text, prefix=True, target=target)
            if token.text == "+":
                self._advance()
                return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._tokens[self._pos]
            if token.kind is not TokenKind.OP:
                return expr
            if token.text == "[":
                self._advance()
                index = self._parse_expression()
                self._expect_op("]")
                expr = ast.Index(self._cur.line, base=expr, index=index)
            elif token.text in ("++", "--"):
                self._advance()
                expr = ast.IncDec(token.line, op=token.text, prefix=False, target=expr)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._advance()
        if token.kind is TokenKind.NUMBER or token.kind is TokenKind.CHAR:
            return ast.NumberLit(token.line, value=token.value)
        if token.kind is TokenKind.STRING:
            # adjacent string literals concatenate, as in C
            parts = [token.text]
            while self._cur.kind is TokenKind.STRING:
                parts.append(self._advance().text)
            return ast.StringLit(token.line, value="".join(parts))
        if token.kind is TokenKind.IDENT:
            if self._accept_op("("):
                args: list[ast.Expr] = []
                if not self._check_op(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept_op(","):
                            break
                self._expect_op(")")
                return ast.Call(token.line, name=token.text, args=args)
            return ast.VarRef(token.line, name=token.text)
        if token.kind is TokenKind.OP and token.text == "(":
            expr = self._parse_expression()
            self._expect_op(")")
            return expr
        raise CompileError(f"unexpected token {token.text!r}", token.line)


def parse(source: str) -> ast.TranslationUnit:
    """Parse mini-C source into a translation unit."""
    return Parser(tokenize(source)).parse()
