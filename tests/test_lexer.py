"""The mini-C lexer: pinned token streams and every error's message and line."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cc.errors import CompileError
from repro.cc.lexer import TokenKind, tokenize
from repro.fuzz.gen import generate_source
from repro.workloads import ALL_WORKLOADS

CORPUS = sorted((Path(__file__).parent / "fuzz_corpus").glob("*.c"))

#: sha256 over (kind, text, line, value) of every token of the suite, the
#: fuzz corpus and generated seeds 0..299, as the per-character lexer
#: produced them before the master regex replaced it.
TOKEN_STREAMS_SHA256 = "f29acd3a334890225a8eb4901f66c8fdd4bcecab9a246d078a043fc8cbb343d7"


def test_token_streams_are_pinned():
    sources = [workload.source() for workload in ALL_WORKLOADS.values()]
    sources += [path.read_text(encoding="utf-8") for path in CORPUS]
    sources += [generate_source(seed) for seed in range(300)]
    digest = hashlib.sha256()
    for source in sources:
        for token in tokenize(source):
            digest.update(
                json.dumps([token.kind.name, token.text, token.line, token.value]).encode()
            )
        digest.update(b"\n")
    assert len(sources) == len(ALL_WORKLOADS) + len(CORPUS) + 300
    assert digest.hexdigest() == TOKEN_STREAMS_SHA256


@pytest.mark.parametrize(
    "source, message, line",
    [
        ("int x;\n  @", "unexpected character '@'", 2),
        ("a\fb", "unexpected character '\\x0c'", 1),
        ("a /* one\ntwo\nthree", "unterminated block comment", 1),
        ("a\n/* one\ntwo */\n\n$", "unexpected character '$'", 5),
        ("'\\q'", "bad escape in character literal", 1),
        ("x\n\"ab\\q\"", "bad escape in string literal", 2),
        ('"ab\ncd"', "newline in string literal", 1),
        ('"abc', "unterminated string literal", 1),
        ("\n'a", "unterminated character literal", 2),
        ("'ab'", "unterminated character literal", 1),
        ("'", "unterminated character literal", 1),
        ("'\\", "bad escape in character literal", 1),
        ("return 0x;", "hex literal '0x' has no digits", 1),
        ("x = 3²;", "unexpected character '²'", 1),
    ],
)
def test_error_message_and_line(source, message, line):
    with pytest.raises(CompileError) as info:
        tokenize(source)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_block_comment_counts_its_lines():
    tokens = tokenize("a /* x\ny\nz */ b\nc")
    assert [(t.text, t.line) for t in tokens] == [("a", 1), ("b", 3), ("c", 4), ("", 4)]


def test_longest_operator_wins():
    tokens = tokenize("a<<=b>>c&&d||!e")
    ops = [t.text for t in tokens if t.kind is TokenKind.OP]
    assert ops == ["<<=", ">>", "&&", "||", "!"]


def test_literals_and_trailing_blanks():
    tokens = tokenize("'\\n' \"a\\tb\" 0x1F 42 \t\r")
    assert [(t.kind, t.text, t.value) for t in tokens] == [
        (TokenKind.CHAR, "\n", 10),
        (TokenKind.STRING, "a\tb", 0),
        (TokenKind.NUMBER, "0x1F", 31),
        (TokenKind.NUMBER, "42", 42),
        (TokenKind.EOF, "", 0),
    ]
