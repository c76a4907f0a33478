"""The farm's job model.

A :class:`Job` is one cell of the paper's evaluation grid: compile a
workload for a target, execute it on that target's simulator, or profile
it at the IR level.  Jobs are plain frozen dataclasses of primitives so
they pickle cheaply across process boundaries, and each job has a
deterministic content-addressed :func:`job_key` covering

* the workload's mini-C source text at the requested scale,
* the target backend and simulator configuration, and
* a per-module version stamp of the toolchain (a hash of each relevant
  ``repro`` subpackage's source), so editing the compiler or a simulator
  invalidates exactly the artifacts it could change.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

from repro.workloads import ALL_WORKLOADS

#: Bump when the job/artifact encoding changes shape.  (2: execution
#: artifacts must carry their machine tag; untagged ones no longer load.)
JOB_SCHEMA_VERSION = 2

#: Default instruction budget for farm execution jobs — matches what the
#: experiment harnesses use.
MAX_INSTRUCTIONS = 500_000_000

#: Which toolchain modules each job kind depends on.  A compile artifact
#: is invalidated by compiler/assembler changes; an execution artifact
#: additionally by its simulator.
_MODULES_BY_KIND = {
    "compile": ("isa", "machine", "asm", "cc", "baselines", "core"),
    "execute": ("isa", "machine", "asm", "cc", "baselines", "core"),
    "ir": ("isa", "machine", "asm", "cc", "baselines", "core"),
    # differential fuzz jobs run every engine and the pipeline model, so
    # every module matters — plus the generator itself (a grammar change
    # renames every artifact)
    "fuzz": ("isa", "machine", "asm", "cc", "baselines", "core", "uarch", "fuzz"),
}


@functools.lru_cache(maxsize=1)
def toolchain_fingerprint() -> dict[str, str]:
    """Per-module version stamps: subpackage name -> sha256 of its sources.

    Hashes every ``.py`` source (and workload program) under each
    ``repro`` subpackage, so any code change produces new cache keys
    without anyone remembering to bump a version constant.
    """
    import repro

    root = Path(repro.__file__).parent
    stamps: dict[str, str] = {"repro": _package_version()}
    for module in ("isa", "machine", "core", "asm", "cc", "baselines", "workloads", "uarch",
                   "fuzz"):
        digest = hashlib.sha256()
        base = root / module
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".rc", ".s") and path.is_file():
                digest.update(path.relative_to(base).as_posix().encode())
                digest.update(path.read_bytes())
        stamps[module] = digest.hexdigest()[:16]
    return stamps


def _package_version() -> str:
    import repro

    return getattr(repro, "__version__", "0")


@dataclasses.dataclass(frozen=True)
class Job:
    """One unit of farm work.  Hash- and pickle-stable by construction."""

    kind: str  # "compile" | "execute" | "ir"
    workload: str
    target: str  # "risc1" | "cisc" ("risc1" for IR jobs)
    scale: str = "default"
    #: extra simulator configuration, sorted (name, value) pairs
    config: tuple[tuple[str, int], ...] = ()
    #: ``PARAM_*`` overrides from a ``NAME:ARG`` workload spec, sorted
    #: (name, value) pairs applied on top of the scale's parameters
    params: tuple[tuple[str, int], ...] = ()
    #: inline mini-C source (fuzz-generated or user-supplied).  When set,
    #: ``workload`` is a free-form label, not a curated-workload name, and
    #: there is no expected-output oracle to verify against.
    source: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("compile", "execute", "ir", "fuzz"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.source is not None:
            if self.kind == "fuzz":
                raise ValueError("fuzz jobs carry a seed, not inline source")
            if not isinstance(self.source, str) or not self.source.strip():
                raise ValueError("inline job source must be non-empty text")
            return
        if self.kind == "fuzz":
            # fuzz jobs name a generator profile, not a curated workload:
            # workload is "fuzz:<profile>", the seed rides in config
            from repro.fuzz.gen import PROFILES

            prefix, _, profile = self.workload.partition(":")
            if prefix != "fuzz" or profile not in PROFILES:
                raise ValueError(
                    f"fuzz job workload must be 'fuzz:<profile>', got {self.workload!r}"
                )
            if "seed" not in dict(self.config):
                raise ValueError("fuzz job config must carry a 'seed'")
            return
        workload = ALL_WORKLOADS.get(self.workload)
        if workload is None:
            raise KeyError(f"unknown workload {self.workload!r}")
        for name, _ in self.params:
            if name not in workload.default_params:
                raise KeyError(
                    f"workload {self.workload!r} has no parameter {name!r} "
                    f"(has: {sorted(workload.default_params)})"
                )

    @property
    def key(self) -> str:
        return job_key(self)

    def describe(self) -> str:
        base = f"{self.kind}:{self.workload}:{self.target}:{self.scale}"
        if self.params:
            base += ":" + ",".join(f"{k}={v}" for k, v in self.params)
        return base

    def to_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "workload": self.workload,
            "target": self.target,
            "scale": self.scale,
            "config": [list(pair) for pair in self.config],
            "params": [list(pair) for pair in self.params],
            "key": self.key,
        }
        if self.source is not None:
            payload["source"] = self.source
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        """Rebuild a job from its :meth:`to_dict` form (``key`` is rederived)."""
        return cls(
            kind=payload["kind"],
            workload=payload["workload"],
            target=payload["target"],
            scale=payload.get("scale", "default"),
            config=tuple((str(k), int(v)) for k, v in payload.get("config", ())),
            params=tuple((str(k), int(v)) for k, v in payload.get("params", ())),
            source=payload.get("source"),
        )


def workload_source(name: str, scale: str, params: tuple = ()) -> str:
    """The workload's mini-C source at the requested scale plus overrides."""
    workload = ALL_WORKLOADS[name]
    merged = dict(workload.bench_params) if scale == "bench" else {}
    merged.update(dict(params))
    return workload.source(**merged)


@functools.lru_cache(maxsize=None)
def _source_digest(name: str, scale: str, params: tuple = ()) -> str:
    return hashlib.sha256(workload_source(name, scale, params).encode()).hexdigest()[:16]


def _fuzz_source_digest(job: Job) -> str:
    from repro.fuzz.gen import generate_source

    profile = job.workload.partition(":")[2]
    seed = dict(job.config)["seed"]
    return hashlib.sha256(generate_source(seed, profile).encode()).hexdigest()[:16]


def job_key(job: Job) -> str:
    """Deterministic content hash naming this job's cache artifact."""
    stamps = toolchain_fingerprint()
    material = {
        "schema": JOB_SCHEMA_VERSION,
        "kind": job.kind,
        "workload": job.workload,
        "target": job.target,
        "scale": job.scale,
        "config": [list(pair) for pair in sorted(job.config)],
        # params reach the key through the source digest: overriding a
        # PARAM_* global changes the source text, hence the artifact —
        # and overriding a parameter to its current value correctly
        # shares the existing artifact
        "source": hashlib.sha256(job.source.encode()).hexdigest()[:16]
        if job.source is not None
        else _fuzz_source_digest(job)
        if job.kind == "fuzz"
        else _source_digest(job.workload, job.scale, job.params),
        "toolchain": {m: stamps[m] for m in ("repro", *_MODULES_BY_KIND[job.kind])},
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- job builders -------------------------------------------------------------------


def _normalize_params(params) -> tuple[tuple[str, int], ...]:
    if not params:
        return ()
    if isinstance(params, dict):
        params = params.items()
    return tuple(sorted((str(k), int(v)) for k, v in params))


def compile_job(workload: str, target: str, scale: str = "default", params=None) -> Job:
    return Job("compile", workload, target, scale, params=_normalize_params(params))


def execute_job(
    workload: str,
    target: str,
    scale: str = "default",
    max_instructions: int = MAX_INSTRUCTIONS,
    params=None,
) -> Job:
    return Job(
        "execute",
        workload,
        target,
        scale,
        config=(("max_instructions", max_instructions),),
        params=_normalize_params(params),
    )


def ir_job(workload: str, scale: str = "default", params=None) -> Job:
    return Job("ir", workload, "risc1", scale, params=_normalize_params(params))


def fuzz_job(seed: int, profile: str = "default", max_steps: int | None = None) -> Job:
    """One differential-fuzz cell: generate seed's program, cross-check it.

    The target is tagged ``cross`` because the job runs *both* machine
    backends (plus the IR interpreter) and compares them.
    """
    if max_steps is None:
        from repro.fuzz.crosscheck import DEFAULT_MAX_STEPS

        max_steps = DEFAULT_MAX_STEPS
    return Job(
        "fuzz",
        f"fuzz:{profile}",
        "cross",
        config=(("max_steps", int(max_steps)), ("seed", int(seed))),
    )


def dependency(job: Job) -> Job | None:
    """The job that must (logically) run first, or None.

    Execution and IR jobs consume the compile job's artifact.  The
    dependency is *soft* — a worker recompiles on a cache miss — but the
    scheduler uses it to order waves so compiled programs are built once.
    """
    if job.kind in ("execute", "ir"):
        return Job(
            "compile",
            job.workload,
            "risc1" if job.kind == "ir" else job.target,
            job.scale,
            params=job.params,
            source=job.source,
        )
    return None


def sweep_jobs(
    workloads=None,
    targets=("risc1", "cisc"),
    scale: str = "default",
    with_ir: bool = True,
) -> list[Job]:
    """The full evaluation grid: compile + execute per target, plus IR profiles.

    ``workloads`` entries are workload *specs* in the shared
    ``NAME[:ARG]`` grammar (:func:`repro.workloads.parse_workload_spec`);
    bare names behave exactly as before.  Raises :class:`ValueError` on
    an unknown name or malformed argument.
    """
    from repro.workloads import parse_workload_spec

    specs = list(workloads) if workloads else list(ALL_WORKLOADS)
    jobs: list[Job] = []
    for spec in specs:
        name, overrides = parse_workload_spec(spec)
        params = _normalize_params(overrides)
        for target in targets:
            jobs.append(compile_job(name, target, scale, params=params))
            jobs.append(execute_job(name, target, scale, params=params))
        if with_ir:
            jobs.append(ir_job(name, scale, params=params))
    return jobs
