"""Seeded inputs for the three workloads.

Every workload draws a fixed number of programs, so the number of
operations in a round never depends on the seed; the seed only picks
which programs (generator seeds) and parameter values within +-5%.

* ``compile``: 32 programs from ``repro.fuzz.gen.generate_source`` with
  120 to 140 source lines (the seed picks generator seeds; programs
  outside the band are passed over, so every seed gets a corpus of the
  same shape) plus the 12 suite sources at small sizes.
* ``simulate``: the 12 suite programs at sizes whose runs dominate the
  round.
* ``serve``: the 12 suite programs at small sizes; the weight is on the
  HTTP traffic (see ``TRAFFIC``).
"""

from __future__ import annotations

import dataclasses
import random

#: ``PARAM_*`` values per size class.  Parameters in ``_LINEAR`` grow the
#: work about linearly and get the seeded +-5% jitter; the others
#: (recursion depth, board size) change the work by large steps and stay
#: fixed.
SIZES = {
    "small": {
        "ackermann": {"M": 2, "N": 3},
        "qsort": {"N": 40},
        "towers": {"DISKS": 6},
        "puzzle_subscript": {"N": 5},
        "puzzle_pointer": {"N": 5},
        "sed": {"REPS": 1},
        "string_search_e": {"REPS": 2},
        "bit_test_f": {"VALUES": 50},
        "linked_list_h": {"NODES": 30},
        "bit_matrix_k": {"N": 8, "REPS": 1},
        "quicksort_i": {"N": 20},
        "call_overhead": {"CALLS": 100},
    },
    "large": {
        "ackermann": {"M": 3, "N": 3},
        "qsort": {"N": 80},
        "towers": {"DISKS": 9},
        "puzzle_subscript": {"N": 6},
        "puzzle_pointer": {"N": 6},
        "sed": {"REPS": 3},
        "string_search_e": {"REPS": 6},
        "bit_test_f": {"VALUES": 100},
        "linked_list_h": {"NODES": 70},
        "bit_matrix_k": {"N": 12, "REPS": 2},
        "quicksort_i": {"N": 60},
        "call_overhead": {"CALLS": 400},
    },
}

_LINEAR = {
    ("qsort", "N"), ("sed", "REPS"), ("string_search_e", "REPS"),
    ("bit_test_f", "VALUES"), ("linked_list_h", "NODES"),
    ("quicksort_i", "N"), ("call_overhead", "CALLS"),
}

#: Serve traffic per workload, built from the suite programs.  Every
#: suite program gets one first-time (cold) named ``NAME:ARG`` spec, and
#: the first ``inline`` of them (in suite order) also an inline ``source``
#: spec built from the same source with the same overrides.  Warm requests
#: repeat cold specs, ``warm_named`` / ``warm_inline`` times each (see
#: ``traffic``).  Warm percentiles are taken over specs, each at its median
#: latency; with 12 named and 4 inline specs the p50 falls among named
#: specs (about a millisecond: answered from the registry) and the p90
#: among inline ones (the server recompiles the program first).
TRAFFIC = {
    "compile": {"inline": 4, "warm_named": 6, "warm_inline": 6},
    "simulate": {"inline": 4, "warm_named": 6, "warm_inline": 6},
    "serve": {"inline": 4, "warm_named": 8, "warm_inline": 12},
}

#: ``generated``: fuzz programs in the corpus; ``size``: suite sizes;
#: ``ir_check``: also run every suite program on the IR interpreter (the
#: three-back-end agreement check; generated programs always get it, as
#: they have no other reference).
PLANS = {
    "compile": {"generated": 32, "size": "small", "ir_check": True},
    "simulate": {"generated": 0, "size": "large", "ir_check": False},
    "serve": {"generated": 0, "size": "small", "ir_check": False},
}

#: Source-line band of the generated programs.
GENERATED_LINES = (120, 140)

WORKLOADS = tuple(PLANS)


@dataclasses.dataclass
class Program:
    #: ``NAME:ARG`` spec for suite programs, ``gen<seed>`` for generated ones
    label: str
    source: str
    #: pure-Python reference output (suite programs); ``None`` for
    #: generated programs, which are checked by back-end agreement
    expected: str | None


@dataclasses.dataclass
class Spec:
    """One serve request: the JSON body and the program it runs."""

    body: dict
    form: str  # "named" | "inline"
    program: Program


def build(workload: str, seed: int) -> list[Program]:
    """The workload's programs for ``seed`` (same seed, same programs)."""
    from repro.fuzz.gen import generate_source
    from repro.workloads import ALL_WORKLOADS

    plan = PLANS[workload]
    rng = random.Random(f"{workload}:{seed}")
    programs = []
    low, high = GENERATED_LINES
    while len(programs) < plan["generated"]:
        gen_seed = rng.randrange(1 << 30)
        source = generate_source(gen_seed)
        if low <= source.count("\n") <= high:
            programs.append(Program(f"gen{gen_seed}", source, None))
    for name, base in SIZES[plan["size"]].items():
        params = {}
        for key, value in base.items():
            if (name, key) in _LINEAR:
                value = max(1, round(value * rng.uniform(0.95, 1.05)))
            params[key] = value
        workload_def = ALL_WORKLOADS[name]
        arg = ",".join(f"{k}={v}" for k, v in params.items())
        programs.append(
            Program(f"{name}:{arg}", workload_def.source(**params),
                    workload_def.expected_output(**params))
        )
    return programs


def traffic(workload: str, programs: list[Program]) -> list[tuple[str, list[Spec], bool]]:
    """The stages of one serve round: (stage, specs, concurrent), in order.

    Cold specs first, then the warm named repeats, then the warm inline
    repeats, each in suite order.  Cold and warm named requests go one at a
    time, alternating between the two connections: a cold latency is then
    one job's path through the server, and a warm named one (about a
    millisecond) is not decided by which of two requests the event loop
    happens to read first.  Warm inline requests run on both connections
    at once, so each waits for the other's compile on the event loop.
    """
    shape = TRAFFIC[workload]
    suite = [p for p in programs if p.expected is not None]
    named = [Spec({"workload": p.label}, "named", p) for p in suite]
    inline = [
        Spec({"workload": p.label.split(":")[0] + "-inline", "source": p.source}, "inline", p)
        for p in suite[: shape["inline"]]
    ]
    return [
        ("cold", named + inline, False),
        ("warm", named * shape["warm_named"], False),
        ("warm", inline * shape["warm_inline"], True),
    ]
