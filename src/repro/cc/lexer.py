"""Lexer for the mini-C dialect.

One compiled master regex scans the source: each match skips blanks and
yields one newline, comment or token, and the group that matched says
which.  Maximal munch for operators comes from the alternation, which
lists the longest operators first.
"""

from __future__ import annotations

import dataclasses
import enum
import re

from repro.cc.errors import CompileError

KEYWORDS = {
    "int", "char", "void", "if", "else", "while", "for", "do", "return", "break", "continue",
}

#: Operators, longest first so maximal munch works.
OPERATORS = (
    "<<= >>= == != <= >= && || << >> ++ -- += -= *= /= %= &= |= ^= "
    "+ - * / % < > = ! ~ & | ^ ( ) { } [ ] ; ,"
).split()


class TokenKind(enum.Enum):
    IDENT = "identifier"
    NUMBER = "number"
    CHAR = "char literal"
    STRING = "string literal"
    KEYWORD = "keyword"
    OP = "operator"
    EOF = "end of input"


@dataclasses.dataclass(slots=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    value: int = 0  # numeric value for NUMBER/CHAR tokens

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, line {self.line})"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'", '"': '"'}
_ESCAPE = r"""\\[ntr0\\'"]"""

#: Blanks, then one of (by group number): 1 newline, 2 line comment,
#: 3 block comment, 4 an unterminated one, 5 hex number, 6 decimal
#: number, 7 identifier or keyword, 8 character literal, 9 string
#: literal, 10 operator, 11 anything else.  A well-formed character or
#: string literal matches 8 or 9; a malformed one falls to 11, where
#: :func:`_bad_literal` names what is wrong.
_TOKEN_RE = re.compile(
    rf"""[ \t\r]*(?:
      (\n)
    | (//[^\n]*)
    | (/\*.*?\*/)
    | (/\*)
    | (0[xX][0-9a-fA-F]*)
    | (\d+)
    | ([^\W\d]\w*)
    | ('(?:{_ESCAPE}|[^\\])')
    | ("(?:{_ESCAPE}|[^"\\\n])*")
    | ({"|".join(re.escape(op) for op in OPERATORS)})
    | (.)
    )""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)")


def tokenize(source: str) -> list[Token]:
    """Turn mini-C source text into a token list ending with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    IDENT, KEYWORD, OP, NUMBER = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.OP, TokenKind.NUMBER
    # without trailing blanks every match ends in a newline, comment or token
    source = source.rstrip(" \t\r")
    for match in _TOKEN_RE.finditer(source):
        group = match.lastindex
        text = match.group(group)
        if group == 7:
            if text in KEYWORDS:
                append(Token(KEYWORD, text, line))
            elif text.isascii() or text[0].isalpha() or text[0] == "_":
                append(Token(IDENT, text, line))
            else:  # a digit or numeral that is not a decimal one
                raise CompileError(f"unexpected character {text[0]!r}", line)
        elif group == 10:
            append(Token(OP, text, line))
        elif group == 1:
            line += 1
        elif group == 6:
            append(Token(NUMBER, text, line, int(text)))
        elif group == 5:
            if len(text) == 2:
                raise CompileError(f"hex literal {text!r} has no digits", line)
            append(Token(NUMBER, text, line, int(text, 16)))
        elif group == 3:
            line += text.count("\n")
        elif group == 8:
            char = _ESCAPES[text[2]] if text[1] == "\\" else text[1]
            append(Token(TokenKind.CHAR, char, line, ord(char)))
        elif group == 9:
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(1)], body)
            append(Token(TokenKind.STRING, body, line))
        elif group == 4:
            raise CompileError("unterminated block comment", line)
        elif group == 11:
            raise CompileError(_bad_literal(source, match.start(group)), line)
    append(Token(TokenKind.EOF, "", line))
    return tokens


def _bad_literal(source: str, i: int) -> str:
    """What is wrong with the character at ``i``: a malformed literal
    starting there, or an unexpected character."""
    quote = source[i]
    if quote == "'":
        i += 1
        if i < len(source) and source[i] == "\\":
            if i + 1 >= len(source) or source[i + 1] not in _ESCAPES:
                return "bad escape in character literal"
        return "unterminated character literal"
    if quote == '"':
        i += 1
        while i < len(source) and source[i] != '"':
            if source[i] == "\n":
                return "newline in string literal"
            if source[i] == "\\":
                if i + 1 >= len(source) or source[i + 1] not in _ESCAPES:
                    return "bad escape in string literal"
                i += 2
            else:
                i += 1
        return "unterminated string literal"
    return f"unexpected character {quote!r}"
