"""Whole-image pins for the compiler and both assemblers.

Each digest is the sha256 of a canonical JSON holding the program image
(segments, entry, symbols, source map, line table, source file), the
assembly text and the delay-slot statistics of one compilation.  A change
to the code generators, the delay-slot filler or either assembler that
moves a single byte, symbol or line-table entry changes a digest here.

To re-pin after a deliberate change, print the new table with
``PYTHONPATH=src python tests/test_program_images.py``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cc.driver import compile_program
from repro.obs.record import program_to_dict
from repro.workloads import BENCHMARK_SUITE, ALL_WORKLOADS

TARGETS = ("risc1", "cisc")
CORPUS = sorted((Path(__file__).parent / "fuzz_corpus").glob("*.c"))


def image_digest(source: str, target: str) -> str:
    compiled = compile_program(source, target)
    stats = compiled.delay_stats
    payload = {
        "program": program_to_dict(compiled.program),
        "assembly": compiled.assembly,
        "delay_stats": dataclasses.asdict(stats) if stats is not None else None,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOAD_DIGESTS = {
    ("ackermann", "risc1"): "c750ad2fc70121189b8b13de85abc30e5466a45368bb02f50a98f8b3481ed5ef",
    ("ackermann", "cisc"): "0d344687ab3f54aabf9eb921454513b5f2b0526b944730ac79f48f450a0f3d76",
    ("qsort", "risc1"): "c397943efc64b2c418f0002fc1203383ed483ae065f0dba25e37bbc9ed2360e1",
    ("qsort", "cisc"): "fbce0e04093b84f5e3b85a95a7cf9958d95785a32d3f9a1909f875f56a0f554b",
    ("towers", "risc1"): "8ba69648f5425ff0d8cbde4ae0c94600180689e5ac174d6bf05321a4183f5b77",
    ("towers", "cisc"): "2ae9bc2579631deb01522620c825927f2359a42cbe17d6ef4e0602e2d8dc8858",
    ("puzzle_subscript", "risc1"): "dbb3df4d76eebabac8596c2561858044634e8a63796416241435b2b14a63db3a",
    ("puzzle_subscript", "cisc"): "966ae8bc9a8257e12c571253b1a19294f5d138ddf9f0d34a9280627701325b9f",
    ("puzzle_pointer", "risc1"): "87a731d512dbf3fc11cf31a91806ac0f84b6cc0806eadf0891b6b5cc832aeb52",
    ("puzzle_pointer", "cisc"): "8a8a37c51d9a546c3d514f4786efe484100c39d20e6217eb9a855a0196903a1f",
    ("sed", "risc1"): "4c6b4423c2e3710529f6e694cbe1ca075c332e6433ab73af65b3e3d9c54fe953",
    ("sed", "cisc"): "d0ed1a527d307187ea3a0d6af685ac758e32bdeb01a2384530a604db9e73afc0",
    ("string_search_e", "risc1"): "3124c4f3fdedc50e3b8003bd0cf1d29df1e107bcc124613d1a76641045942b68",
    ("string_search_e", "cisc"): "354f18ec806fd49f953b10588d607860092335752255de04be00bdd886d9e19c",
    ("bit_test_f", "risc1"): "22b0adad21c7a234398858c2204f537c1aae99f0c52a08eaaa49c6b2790e21b8",
    ("bit_test_f", "cisc"): "26700cbf0d60a1a15fbdcfab7cd55ab587e08210e4d02b21f03f3acd7ac78df5",
    ("linked_list_h", "risc1"): "2cb8d5029aaea21b2ba6cc92eee45fb19b4573e50e84ee2dbbc8c16403235dba",
    ("linked_list_h", "cisc"): "d858af38dee76e88ff6c012781fb56da9fc7bfee0bb20c2c3782700d69e23ef0",
    ("bit_matrix_k", "risc1"): "5db8e0072639878669853a800bcd09c25af4c81892b652686a2f7179b4c3a968",
    ("bit_matrix_k", "cisc"): "3d3a2955ce92b80d97015eebf9dd708a6e8c82587c9c993efd23329ee94d48c4",
    ("quicksort_i", "risc1"): "2098fd4dbda091c620f62522af591c323186054d5df62b88d280ee0239fa2583",
    ("quicksort_i", "cisc"): "f13bc2c1b98e6c83cfb0789947897a0851fc2fad0c36a4b7fad77f87ce6c3541",
}

CORPUS_DIGESTS = {
    ("seed00000004_default.c", "risc1"): "7ad617e0e89994739306533d8a4fae6278309611aba8f1a2643fa103b50d7fc2",
    ("seed00000004_default.c", "cisc"): "c9689609a9351dd100871da4852ce068e3dae935660ce1af2edf8d0b4dc88e1e",
}


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("name", BENCHMARK_SUITE)
def test_workload_image(name, target):
    source = ALL_WORKLOADS[name].source()
    assert image_digest(source, target) == WORKLOAD_DIGESTS[(name, target)]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_image(path, target):
    source = path.read_text(encoding="utf-8")
    assert image_digest(source, target) == CORPUS_DIGESTS[(path.name, target)]


if __name__ == "__main__":
    print("WORKLOAD_DIGESTS = {")
    for name in BENCHMARK_SUITE:
        for target in TARGETS:
            digest = image_digest(ALL_WORKLOADS[name].source(), target)
            print(f'    ("{name}", "{target}"): "{digest}",')
    print("}\n\nCORPUS_DIGESTS = {")
    for path in CORPUS:
        for target in TARGETS:
            digest = image_digest(path.read_text(encoding="utf-8"), target)
            print(f'    ("{path.name}", "{target}"): "{digest}",')
    print("}")
