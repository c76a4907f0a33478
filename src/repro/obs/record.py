"""Execution recording: checkpointed record/replay for time travel.

A :class:`Recording` is everything needed to reconstruct the
architectural state of a finished run at *any* step index: the program
image, the machine configuration, and a periodic series of
:meth:`~repro.core.api.Machine.snapshot` checkpoints.  Because both
execution engines are deterministic and differentially bit-identical,
``restore`` at the nearest checkpoint at-or-below ``k`` followed by
re-execution of the remaining ``k - checkpoint`` steps lands on exactly
the state the original run passed through — the foundation the
:mod:`repro.dbg` time-travel debugger stands on.

The recorder drives the machine with *chunked* ``run()`` calls (the fast
engine, ``max_steps`` = the checkpoint interval, catching
:class:`~repro.core.api.StepLimitExceeded` at each boundary), so
recording costs one snapshot per interval rather than a 7× drop to the
``step()`` loop.  Recordings are single JSONL files under
``.repro-dbg/`` (override with ``$REPRO_DBG_ROOT``), named by the run's
ledger ``run_id`` when the ledger is on, else by content hash — so
``python -m repro.dbg replay <run_id>`` accepts ledger ids directly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from hashlib import sha256
from pathlib import Path

from repro.core.api import (
    DEFAULT_MAX_STEPS,
    StepLimitExceeded,
    pack_bytes,
    resolve_engine,
    unpack_bytes,
)
from repro.core.program import Program, Segment
from repro.machine.traps import Trap

__all__ = [
    "DEFAULT_INTERVAL",
    "RECORD_SCHEMA_VERSION",
    "Recording",
    "advance",
    "default_record_root",
    "list_recordings",
    "program_from_dict",
    "program_to_dict",
    "record_run",
]

#: Bump on any backwards-incompatible recording-format change.
RECORD_SCHEMA_VERSION = 1

#: Steps between checkpoints.  At ~10M steps/s simulation speed this is
#: one snapshot (~ms: a zlib pass over memory) every ~10ms of execution,
#: and bounds any ``seek`` to at most 100k re-executed steps.  See
#: ``docs/DEBUGGER.md`` for the tradeoff curve.
DEFAULT_INTERVAL = 100_000


def default_record_root() -> Path:
    """Where recordings live: ``$REPRO_DBG_ROOT`` or ``./.repro-dbg``."""
    return Path(os.environ.get("REPRO_DBG_ROOT") or ".repro-dbg")


# -- program image serialization ----------------------------------------------


def program_to_dict(program: Program) -> dict:
    """A JSON-safe image of a :class:`Program` (segments packed)."""
    return {
        "segments": [
            {"base": seg.base, "name": seg.name, "data": pack_bytes(seg.data)}
            for seg in program.segments
        ],
        "entry": program.entry,
        "symbols": dict(program.symbols),
        "source_map": {str(addr): line for addr, line in program.source_map.items()},
        "line_table": {
            str(addr): [func, line] for addr, (func, line) in program.line_table.items()
        },
        "source_file": program.source_file,
    }


def program_from_dict(payload: dict) -> Program:
    """Invert :func:`program_to_dict`."""
    return Program(
        segments=tuple(
            Segment(base=seg["base"], data=bytes(unpack_bytes(seg["data"])), name=seg["name"])
            for seg in payload["segments"]
        ),
        entry=payload["entry"],
        symbols=dict(payload["symbols"]),
        source_map={int(addr): line for addr, line in payload["source_map"].items()},
        line_table={
            int(addr): (func, line)
            for addr, (func, line) in payload["line_table"].items()
        },
        source_file=payload.get("source_file", ""),
    )


# -- the recording ------------------------------------------------------------


@dataclasses.dataclass
class Recording:
    """One recorded run: program + config + checkpoints + outcome."""

    #: schema/machine/engine/interval/config/workload/run_id/wall_s
    meta: dict
    program: Program
    #: ``[{"step": k, "state": snapshot}, ...]`` ascending, starting at 0
    checkpoints: list[dict]
    #: ``{"outcome": "halt"|"limit"|"trap", "steps": N, "result": ..., "trap": ...}``
    outcome: dict

    @property
    def run_id(self) -> str:
        return self.meta["run_id"]

    @property
    def machine_name(self) -> str:
        return self.meta["machine"]

    @property
    def steps(self) -> int:
        """Total retired instructions (the last reachable step index)."""
        return self.outcome["steps"]

    @property
    def result(self):
        """The recorded :class:`~repro.core.api.RunResult` (halt outcome only)."""
        if self.outcome.get("result") is None:
            return None
        from repro.core.api import RunResult

        return RunResult.from_dict(self.outcome["result"])

    def nearest(self, step: int) -> dict:
        """The checkpoint with the greatest step index <= ``step``."""
        best = self.checkpoints[0]
        for checkpoint in self.checkpoints:
            if checkpoint["step"] > step:
                break
            best = checkpoint
        return best

    def make_machine(self):
        """A fresh machine of the recorded shape with the program loaded."""
        config = self.meta.get("config", {})
        if self.machine_name == "risc1":
            from repro.core.cpu import CPU

            machine = CPU(
                memory_size=config.get("memory_size", 1 << 20),
                num_windows=config.get("num_windows", 8),
                spill_batch=config.get("spill_batch", 1),
            )
        elif self.machine_name == "cisc":
            from repro.baselines.vax.cpu import VaxCPU

            machine = VaxCPU(memory_size=config.get("memory_size", 1 << 20))
        else:
            raise ValueError(f"unknown machine {self.machine_name!r} in recording")
        machine.load(self.program)
        return machine

    def spawn(self, step: int = 0, *, engine: str | None = None):
        """A fresh machine restored to exactly ``step`` (clamped to range)."""
        step = max(0, min(step, self.steps))
        machine = self.make_machine()
        machine.restore(self.nearest(step)["state"])
        return advance(machine, step, engine=engine)

    # -- persistence ----------------------------------------------------------

    def save(self, path: Path | str | None = None, *, root: Path | str | None = None) -> Path:
        """Write the recording as one JSONL file; returns the path."""
        if path is None:
            base = Path(root) if root is not None else default_record_root()
            base.mkdir(parents=True, exist_ok=True)
            path = base / f"{self.run_id}.dbg.jsonl"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", **self.meta}) + "\n")
            handle.write(
                json.dumps({"kind": "program", "program": program_to_dict(self.program)})
                + "\n"
            )
            for checkpoint in self.checkpoints:
                handle.write(json.dumps({"kind": "checkpoint", **checkpoint}) + "\n")
            handle.write(json.dumps({"kind": "outcome", **self.outcome}) + "\n")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "Recording":
        """Read a recording written by :meth:`save`."""
        meta: dict | None = None
        program: Program | None = None
        checkpoints: list[dict] = []
        outcome: dict | None = None
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                kind = payload.pop("kind", None)
                if kind == "header":
                    meta = payload
                elif kind == "program":
                    program = program_from_dict(payload["program"])
                elif kind == "checkpoint":
                    checkpoints.append(payload)
                elif kind == "outcome":
                    outcome = payload
        if meta is None or program is None or outcome is None or not checkpoints:
            raise ValueError(f"{path}: truncated or not a recording file")
        if meta.get("schema") != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported recording schema {meta.get('schema')!r}"
            )
        return cls(meta=meta, program=program, checkpoints=checkpoints, outcome=outcome)

    @classmethod
    def find(cls, run_id: str, *, root: Path | str | None = None) -> "Recording":
        """Load the recording named by a run id (unique-prefix match)."""
        base = Path(root) if root is not None else default_record_root()
        matches = sorted(base.glob(f"{run_id}*.dbg.jsonl"))
        if not matches:
            raise FileNotFoundError(f"no recording matching {run_id!r} under {base}")
        if len(matches) > 1:
            names = ", ".join(p.name.removesuffix(".dbg.jsonl") for p in matches)
            raise ValueError(f"run id {run_id!r} is ambiguous: {names}")
        return cls.load(matches[0])


def list_recordings(root: Path | str | None = None) -> list[dict]:
    """Headers of every recording under ``root``, newest file last."""
    base = Path(root) if root is not None else default_record_root()
    out: list[dict] = []
    for path in sorted(base.glob("*.dbg.jsonl")):
        try:
            with path.open("r", encoding="utf-8") as handle:
                header = json.loads(handle.readline())
        except (OSError, ValueError):
            continue
        header.pop("kind", None)
        header["path"] = str(path)
        out.append(header)
    return out


# -- recording and replaying --------------------------------------------------


def _machine_config(machine) -> dict:
    config = {"memory_size": machine.memory.size}
    if machine.name == "risc1":
        config["num_windows"] = machine.regs.num_windows
        config["spill_batch"] = machine.regs.spill_batch
    return config


def advance(machine, to_step: int, *, engine: str | None = None):
    """Run a machine forward until ``stats.instructions == to_step``.

    Uses chunked fast-engine execution (each chunk left exactly resumable
    by the ``StepLimitExceeded`` contract).  Stops early at halt; never
    steps a halted machine.  Returns the machine.
    """
    current = machine.stats.instructions
    if to_step < current:
        raise ValueError(f"cannot advance backwards ({current} -> {to_step})")
    while current < to_step and not machine.halted:
        try:
            machine.run(max_steps=to_step - current, engine=engine, record=False)
        except StepLimitExceeded:
            pass
        current = machine.stats.instructions
    return machine


def record_run(
    machine,
    program: Program,
    *,
    interval: int = DEFAULT_INTERVAL,
    max_steps: int | None = None,
    engine: str | None = None,
    record=None,
    workload: str | None = None,
    scale: str | None = None,
) -> Recording:
    """Run ``program`` on ``machine``, checkpointing every ``interval`` steps.

    Returns a :class:`Recording` whatever the outcome — halt, step-limit,
    or trap — so the debugger can always explore the recorded span.  The
    per-chunk ``run()`` calls pass ``record=False``; the finished run is
    offered to the ledger exactly once, here, with the *total* wall time
    (``record=`` / ``$REPRO_LEDGER`` semantics unchanged), and the
    ledger's ``run_id`` names the recording when one is assigned.
    """
    if interval < 1:
        raise ValueError(f"checkpoint interval must be positive, got {interval}")
    limit = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    engine_name = resolve_engine(engine)
    machine.load(program)
    checkpoints = [{"step": 0, "state": machine.snapshot()}]
    outcome: dict = {"outcome": "limit", "steps": 0, "result": None, "trap": None}
    result = None
    started = time.perf_counter()
    while True:
        done = machine.stats.instructions
        budget = min(interval, limit - done)
        if budget <= 0:
            outcome = {"outcome": "limit", "steps": done, "result": None, "trap": None}
            break
        try:
            result = machine.run(max_steps=budget, engine=engine_name, record=False)
        except StepLimitExceeded:
            checkpoints.append(
                {"step": machine.stats.instructions, "state": machine.snapshot()}
            )
        except Trap as trap:
            outcome = {
                "outcome": "trap",
                "steps": machine.stats.instructions,
                "result": None,
                "trap": {
                    "kind": trap.kind.name,
                    "detail": trap.detail,
                    "pc": trap.pc,
                },
            }
            break
        else:
            outcome = {
                "outcome": "halt",
                "steps": machine.stats.instructions,
                "result": result.to_dict(),
                "trap": None,
            }
            break
    wall_s = time.perf_counter() - started

    run_id = None
    if result is not None:
        from repro.obs.ledger import ledger_context, maybe_record_run

        context = {"source": "dbg"}
        if workload is not None:
            context["workload"] = workload
        if scale is not None:
            context["scale"] = scale
        with ledger_context(**context):
            run_id = maybe_record_run(
                result, engine=engine_name, wall_s=wall_s, record=record
            )
    meta = {
        "schema": RECORD_SCHEMA_VERSION,
        "machine": machine.name,
        "engine": engine_name,
        "interval": interval,
        "config": _machine_config(machine),
        "workload": workload,
        "scale": scale,
        "wall_s": wall_s,
        "run_id": run_id or _content_id(machine.name, program, outcome),
    }
    return Recording(
        meta=meta, program=program, checkpoints=checkpoints, outcome=outcome
    )


def _content_id(machine_name: str, program: Program, outcome: dict) -> str:
    """Deterministic recording name when no ledger id was assigned."""
    material = json.dumps(
        [machine_name, program_to_dict(program), outcome],
        sort_keys=True,
        separators=(",", ":"),
    )
    return "dbg-" + sha256(material.encode()).hexdigest()[:12]
