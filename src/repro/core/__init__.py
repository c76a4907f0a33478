"""The RISC I processor core: cycle-level simulator, timing and statistics.

This is the paper's primary contribution, executable: a register-windowed,
delayed-jump, load/store machine that runs programs produced by the
assembler (:mod:`repro.asm`) or the mini-C compiler (:mod:`repro.cc`).
"""

from repro.core.api import (
    DEFAULT_ENGINE,
    DEFAULT_MAX_STEPS,
    VALID_ENGINES,
    Machine,
    MachineHalted,
    RunResult,
    StepLimitExceeded,
    resolve_engine,
)
from repro.core.cpu import CPU
from repro.core.program import Program, Segment
from repro.core.stats import ExecutionStats
from repro.core.timing import RiscTiming

__all__ = [
    "CPU",
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_STEPS",
    "ExecutionStats",
    "Machine",
    "MachineHalted",
    "Program",
    "RiscTiming",
    "RunResult",
    "Segment",
    "StepLimitExceeded",
    "VALID_ENGINES",
    "resolve_engine",
]
