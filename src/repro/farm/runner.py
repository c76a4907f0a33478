"""Execute a single farm job against the artifact cache.

This is the layer both the multiprocess scheduler's workers and the
in-process experiment helpers share: check the content-addressed cache,
compute on a miss, verify the workload's output against its reference
oracle, and store the artifact.  Because cache keys cover the workload
source and the toolchain fingerprint, a cached artifact is by
construction the result the computation would produce.

Set ``REPRO_FARM_CACHE=0`` to bypass the on-disk layer entirely (every
job recomputes; useful for timing and for hermetic tests).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.cc.driver import CompiledProgram, compile_program, run_compiled
from repro.cc.irvm import IRResult, run_ir
from repro.core.api import RunResult
from repro.farm.cache import ArtifactCache, default_cache_root
from repro.farm.jobs import MAX_INSTRUCTIONS, Job, workload_source
from repro.workloads import ALL_WORKLOADS


def _decode_result(payload: dict):
    """Rebuild a cached execution/IR/fuzz artifact from its JSON payload."""
    tag = payload["type"]
    if tag == "ir":
        return IRResult.from_dict(payload["result"])
    if tag == "fuzz":
        from repro.fuzz.crosscheck import CrossCheckReport

        return CrossCheckReport.from_dict(payload["result"])
    return RunResult.from_dict(payload["result"])

_caches: dict[Path, ArtifactCache] = {}


def cache_enabled() -> bool:
    return os.environ.get("REPRO_FARM_CACHE", "1").lower() not in ("0", "off", "no")


def shared_cache() -> ArtifactCache:
    """One :class:`ArtifactCache` per cache root, shared within the process."""
    root = default_cache_root()
    key = root.resolve() if root.is_absolute() else (Path.cwd() / root).resolve()
    if key not in _caches:
        _caches[key] = ArtifactCache(root)
    return _caches[key]


def _expected_output(name: str, scale: str, params: tuple = ()) -> str:
    workload = ALL_WORKLOADS[name]
    merged = dict(workload.bench_params) if scale == "bench" else {}
    merged.update(dict(params))
    return workload.expected_output(**merged)


def _verify(job: Job, output: str) -> None:
    expected = _expected_output(job.workload, job.scale, job.params)
    if output != expected:
        raise AssertionError(
            f"{job.describe()}: output {output!r} != expected {expected!r}"
        )


def _load_cached(job: Job, cache: ArtifactCache | None):
    """The job's cached artifact, or None on a miss.

    A stored artifact that does not decode is deleted and counted as a
    miss, so the job recomputes it.
    """
    if cache is None:
        return None
    if job.kind == "compile":
        ext, decode = "pkl", CompiledProgram.from_blob
        raw = cache.load_blob(job.key, ext)
    else:
        ext, decode = "json", _decode_result
        raw = cache.load_json(job.key)
    if raw is None:
        return None
    try:
        return decode(raw)
    except Exception:
        cache.stats.hits -= 1
        cache.discard_corrupt(cache.path_for(job.key, ext))
        return None


def run_job(job: Job, cache: ArtifactCache | None = None):
    """Run one job, cache-first.  Returns ``(value, hit)``."""
    if cache is None and cache_enabled():
        cache = shared_cache()
    value = _load_cached(job, cache)
    if value is not None:
        return value, True

    if job.kind == "compile":
        value = compile_program(
            job.source
            if job.source is not None
            else workload_source(job.workload, job.scale, job.params),
            target=job.target,
            filename=f"{job.workload}.c",
        )
        if cache is not None:
            cache.store_blob(job.key, "pkl", value.to_blob())
        return value, False

    if job.kind == "fuzz":
        from repro.fuzz.crosscheck import crosscheck_seed

        config = dict(job.config)
        value = crosscheck_seed(
            config["seed"],
            job.workload.partition(":")[2],
            max_steps=config["max_steps"],
        )
        # no _verify: the cross-check IS the verification — the report
        # records agreement or divergence, and the campaign layer triages
        if cache is not None:
            cache.store_json(job.key, {"type": "fuzz", "result": value.to_dict()})
        return value, False

    from repro.farm.jobs import dependency

    program, _ = run_job(dependency(job), cache)
    if job.kind == "ir":
        value = run_ir(program.ir)
    else:
        limit = dict(job.config).get("max_instructions", MAX_INSTRUCTIONS)
        # the engine (resolved from $REPRO_ENGINE inside run_compiled, so
        # it reaches worker processes) is deliberately NOT part of the
        # cache key: both engines are differentially identical, so their
        # results are interchangeable artifacts
        from repro.obs.ledger import ledger_context

        # a cache hit never re-simulates, so only computed execute jobs
        # reach the machines' $REPRO_LEDGER hook — exactly the runs whose
        # wall time means something
        with ledger_context(workload=job.workload, scale=job.scale, source="farm"):
            value = run_compiled(program, max_steps=limit)
    if job.source is None:
        # inline-source jobs have no expected-output oracle to check
        _verify(job, value.output)
    if cache is not None:
        # execute / ir jobs store their results as typed JSON payloads
        tag = "ir" if job.kind == "ir" else job.target
        cache.store_json(job.key, {"type": tag, "result": value.to_dict()})
    return value, False


def job_metrics(job: Job, value) -> dict:
    """The small metrics record a finished job contributes to the manifest.

    These land in ``runs.jsonl`` next to the job's status/wall time, so a
    sweep's manifest answers "how much work did each cell do" without
    reopening any artifact.
    """
    if job.kind == "execute":
        return {
            "instructions": value.stats.instructions,
            "cycles": value.stats.cycles,
            "data_refs": value.stats.data_references,
            "exit_code": value.exit_code,
        }
    if job.kind == "compile":
        return {"code_size": value.code_size}
    if job.kind == "ir":
        return {"ir_ops": value.counts.total, "calls": value.counts.calls}
    if job.kind == "fuzz":
        return {
            "status": value.status,
            "divergences": len(value.divergences),
            "source_sha": value.source_sha,
        }
    return {}
