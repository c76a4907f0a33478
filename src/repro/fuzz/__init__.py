"""Differential fuzzing of the RISC I / VAX toolchain and engines.

The fuzzer closes the loop ROADMAP open item 4 asks for: a standing
correctness army of random mini-C programs, each cross-checked across
every execution oracle the repo has —

* RISC I reference interpreter vs :class:`PredecodedEngine` (bit-identical
  contract: exit code, console, full architectural stats),
* VAX reference interpreter vs the translating
  :class:`~repro.baselines.vax.engine.VaxEngine` (same contract),
* RISC I vs VAX vs the IR interpreter (semantic contract: exit code and
  console output; the machines legitimately differ in stats).

Modules:

* :mod:`repro.fuzz.gen` — seeded, grammar-based program generator over
  exactly the subset RCC compiles (same seed, same bytes — forever).
* :mod:`repro.fuzz.instructions` — seeded RISC I instruction generator
  driving the encode/decode/disassemble/assemble round-trip tests.
* :mod:`repro.fuzz.crosscheck` — compile once per target, run all five
  oracles, report every divergence.
* :mod:`repro.fuzz.minimize` — statement-level delta debugging that
  shrinks a divergent program to a minimal repro for ``tests/fuzz_corpus/``.
* :mod:`repro.fuzz.campaign` — fan a seed range out through the farm
  pool, collect a deterministic triage report, file every divergence as
  a run-ledger diff artifact.
* ``python -m repro.fuzz run|replay|minimize|triage`` — the CLI.
"""

from repro.fuzz.crosscheck import CrossCheckReport, Divergence, crosscheck_seed, crosscheck_source
from repro.fuzz.gen import DEFAULT_PROFILE, GenConfig, PROFILES, generate_program, generate_source
from repro.fuzz.instructions import iter_instructions, random_instruction
from repro.fuzz.minimize import minimize_source

__all__ = [
    "CrossCheckReport",
    "DEFAULT_PROFILE",
    "Divergence",
    "GenConfig",
    "PROFILES",
    "crosscheck_seed",
    "crosscheck_source",
    "generate_program",
    "generate_source",
    "iter_instructions",
    "minimize_source",
    "random_instruction",
]
