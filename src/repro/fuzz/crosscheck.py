"""Run one program on every execution oracle and compare the results.

The harness compiles a program **once per target** and then runs five
oracles over the two images:

========  =========================================================
name      what it exercises
========  =========================================================
risc-ref  RISC I plain ``step()`` interpreter (the semantics anchor)
risc-fast RISC I :class:`~repro.core.engine.PredecodedEngine`
vax-ref   VAX baseline plain ``step()`` interpreter
vax-fast  VAX baseline :class:`~repro.baselines.vax.engine.VaxEngine`
ir        the IR-level interpreter (:mod:`repro.cc.irvm`)
========  =========================================================

Two contracts are checked:

* **same machine, different engine** (risc-ref vs risc-fast, vax-ref vs
  vax-fast): bit-identical — outcome, exit code, console output and the
  *entire* ``stats.to_dict()`` must match field for field;
* **different machines** (risc-ref vs vax-ref vs ir): semantic — exit
  code and console output must match whenever both runs halted (the
  machines legitimately disagree about stats, and a step-limited run has
  no comparable final state, so those comparisons are skipped).

Reports are plain deterministic dicts — no timestamps, no wall-clock —
so a fixed-seed campaign produces byte-identical triage output on every
run, and the farm can cache reports by job key.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

from repro.cc import irvm
from repro.cc.driver import CompileError, compile_ir, compile_to_ir, run_compiled
from repro.core.api import StepLimitExceeded
from repro.fuzz.gen import DEFAULT_PROFILE, generate_source
from repro.machine.traps import Trap

REPORT_SCHEMA = 1

#: Step budget per oracle run.  Generated programs are bounded by
#: construction (see :mod:`repro.fuzz.gen`); anything that hits this is
#: either a generator invariant violation or an engine livelock — both
#: worth a divergence-grade look, so limits are never silently equal.
DEFAULT_MAX_STEPS = 2_000_000

ORACLES = ("risc-ref", "risc-fast", "vax-ref", "vax-fast", "ir")

#: Same-machine pairs: full bit-identical contract.
ENGINE_PAIRS = (
    ("risc-ref", "risc-fast", "risc1: reference vs predecoded engine"),
    ("vax-ref", "vax-fast", "vax: reference vs translating engine"),
)

#: Cross-machine pairs: exit code + console only.
CROSS_PAIRS = (
    ("risc-ref", "vax-ref", "risc1 vs vax"),
    ("risc-ref", "ir", "risc1 vs ir interpreter"),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _flatten(payload: Any, prefix: str = "") -> dict[str, Any]:
    if isinstance(payload, dict):
        flat: dict[str, Any] = {}
        for key, value in payload.items():
            flat.update(_flatten(value, f"{prefix}{key}."))
        return flat
    return {prefix[:-1]: payload}


def _dict_diff(a: dict, b: dict) -> dict[str, tuple[Any, Any]]:
    """Flattened field -> (left, right) for every differing field."""
    fa, fb = _flatten(a), _flatten(b)
    keys = sorted(set(fa) | set(fb))
    return {k: (fa.get(k), fb.get(k)) for k in keys if fa.get(k) != fb.get(k)}


@dataclasses.dataclass
class Divergence:
    """One failed comparison between two oracle runs."""

    check: str  # e.g. "risc1: reference vs predecoded engine"
    kind: str  # "engine" (bit-identical contract) or "cross" (semantic)
    left: str  # oracle name
    right: str  # oracle name
    fields: dict[str, tuple[Any, Any]]  # field -> (left value, right value)

    def signature(self) -> str:
        """Stable identity used by the minimizer: same check, same fields."""
        return f"{self.check}|{','.join(sorted(self.fields))}"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "kind": self.kind,
            "left": self.left,
            "right": self.right,
            "fields": {k: list(v) for k, v in self.fields.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Divergence":
        return cls(
            check=payload["check"],
            kind=payload["kind"],
            left=payload["left"],
            right=payload["right"],
            fields={k: tuple(v) for k, v in payload["fields"].items()},
        )

    def render(self) -> str:
        lines = [f"{self.check}  [{self.left} vs {self.right}]"]
        for field, (a, b) in sorted(self.fields.items()):
            lines.append(f"  {field}: {_clip(a)} != {_clip(b)}")
        return "\n".join(lines)


def _clip(value: Any, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@dataclasses.dataclass
class CrossCheckReport:
    """Everything one cross-checked program produced, deterministically."""

    source_sha: str
    status: str = "ok"  # "ok" | "divergent" | "compile-error"
    seed: int | None = None
    profile: str | None = None
    max_steps: int = DEFAULT_MAX_STEPS
    compile_error: str | None = None
    oracles: dict[str, dict] = dataclasses.field(default_factory=dict)
    divergences: list[Divergence] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def signature(self) -> str:
        """Divergence identity for the minimizer (order-independent)."""
        return ";".join(sorted(d.signature() for d in self.divergences))

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "source_sha": self.source_sha,
            "status": self.status,
            "seed": self.seed,
            "profile": self.profile,
            "max_steps": self.max_steps,
            "compile_error": self.compile_error,
            "oracles": self.oracles,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CrossCheckReport":
        return cls(
            source_sha=payload["source_sha"],
            status=payload["status"],
            seed=payload.get("seed"),
            profile=payload.get("profile"),
            max_steps=payload.get("max_steps", DEFAULT_MAX_STEPS),
            compile_error=payload.get("compile_error"),
            oracles=payload.get("oracles", {}),
            divergences=[Divergence.from_dict(d) for d in payload.get("divergences", [])],
        )

    def render(self) -> str:
        head = f"crosscheck {self.source_sha}"
        if self.seed is not None:
            head += f" seed={self.seed} profile={self.profile}"
        lines = [f"{head}: {self.status}"]
        for name in ORACLES:
            run = self.oracles.get(name)
            if run is None:
                continue
            lines.append(
                f"  {name:9s} outcome={run['outcome']:<12s} exit={run['exit_code']!s:>6s}"
                f" out_sha={run['output_sha'] or '-'} steps={run['instructions']}"
            )
        if self.compile_error:
            lines.append(f"  compile error: {self.compile_error}")
        for div in self.divergences:
            lines.append("  " + div.render().replace("\n", "\n  "))
        return "\n".join(lines)


# -- running the oracles -----------------------------------------------------


def _run_machine_oracle(compiled, engine: str, max_steps: int) -> dict:
    """One machine run, folded into the comparable oracle-result shape."""
    try:
        result = run_compiled(compiled, max_steps=max_steps, engine=engine, record=False)
        return {
            "outcome": "halt",
            "exit_code": result.exit_code,
            "output": result.output,
            "output_sha": _sha(result.output),
            "instructions": result.stats.instructions,
            "stats": result.stats.to_dict(),
        }
    except StepLimitExceeded as exc:
        return {
            "outcome": "limit",
            "exit_code": None,
            "output": None,
            "output_sha": None,
            "instructions": getattr(exc.stats, "instructions", None),
            "stats": exc.stats.to_dict() if exc.stats is not None else None,
        }
    except Trap as exc:
        return {
            "outcome": f"trap:{exc.kind.name}@{exc.pc:#x}" if exc.pc is not None else f"trap:{exc.kind.name}",
            "exit_code": None,
            "output": None,
            "output_sha": None,
            "instructions": None,
            "stats": None,
        }
    except RecursionError:
        return _error_result("RecursionError")
    except Exception as exc:  # engine crash: comparable, never fatal
        return _error_result(f"{type(exc).__name__}: {exc}")


def _error_result(detail: str) -> dict:
    return {
        "outcome": f"error:{detail[:160]}",
        "exit_code": None,
        "output": None,
        "output_sha": None,
        "instructions": None,
        "stats": None,
    }


def _run_ir_oracle(ir_program) -> dict:
    try:
        result = irvm.run_ir(ir_program)
        return {
            "outcome": "halt",
            "exit_code": result.exit_code,
            "output": result.output,
            "output_sha": _sha(result.output),
            "instructions": result.counts.total,
            "stats": result.counts.to_dict(),
        }
    except RecursionError:
        return _error_result("RecursionError")
    except Exception as exc:
        return _error_result(f"{type(exc).__name__}: {exc}")


def _compare_engine_pair(left: dict, right: dict) -> dict[str, tuple[Any, Any]]:
    """Bit-identical contract: outcome, exit, console, full stats."""
    fields: dict[str, tuple[Any, Any]] = {}
    for key in ("outcome", "exit_code", "output"):
        if left[key] != right[key]:
            fields[key] = (left[key], right[key])
    if left["stats"] != right["stats"]:
        fields.update(
            {f"stats.{k}": v for k, v in _dict_diff(left["stats"] or {}, right["stats"] or {}).items()}
        )
    return fields


def _compare_cross_pair(left: dict, right: dict) -> dict[str, tuple[Any, Any]]:
    """Semantic contract: exit code + console, skipped on step limits."""
    if left["outcome"] == "limit" or right["outcome"] == "limit":
        return {}
    fields: dict[str, tuple[Any, Any]] = {}
    if left["outcome"] != right["outcome"]:
        fields["outcome"] = (left["outcome"], right["outcome"])
    for key in ("exit_code", "output"):
        if left[key] != right[key]:
            fields[key] = (left[key], right[key])
    return fields


def crosscheck_source(
    source: str,
    *,
    seed: int | None = None,
    profile: str | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> CrossCheckReport:
    """Compile ``source`` (one front end, both targets) and cross-check all
    five oracles."""
    report = CrossCheckReport(
        source_sha=_sha(source), seed=seed, profile=profile, max_steps=max_steps
    )
    try:
        ir_program = compile_to_ir(source)
        risc = compile_ir(ir_program, "risc1", source=source)
        vax = compile_ir(ir_program, "cisc", source=source)
    except CompileError as exc:
        report.status = "compile-error"
        report.compile_error = str(exc)
        return report

    report.oracles = {
        "risc-ref": _run_machine_oracle(risc, "reference", max_steps),
        "risc-fast": _run_machine_oracle(risc, "fast", max_steps),
        "vax-ref": _run_machine_oracle(vax, "reference", max_steps),
        "vax-fast": _run_machine_oracle(vax, "fast", max_steps),
        "ir": _run_ir_oracle(ir_program),
    }

    for left, right, check in ENGINE_PAIRS:
        fields = _compare_engine_pair(report.oracles[left], report.oracles[right])
        if fields:
            report.divergences.append(Divergence(check, "engine", left, right, fields))
    for left, right, check in CROSS_PAIRS:
        fields = _compare_cross_pair(report.oracles[left], report.oracles[right])
        if fields:
            report.divergences.append(Divergence(check, "cross", left, right, fields))

    report.status = "divergent" if report.divergences else "ok"
    return report


def crosscheck_seed(
    seed: int,
    profile: str = DEFAULT_PROFILE,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> CrossCheckReport:
    """Generate the seed's program and cross-check it."""
    return crosscheck_source(
        generate_source(seed, profile), seed=seed, profile=profile, max_steps=max_steps
    )
