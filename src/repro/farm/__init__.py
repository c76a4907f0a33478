"""``repro.farm`` — a parallel simulation farm for the paper's evaluation grid.

The paper's tables are produced from a grid of (workload x target x scale)
simulation jobs.  This package turns that grid into explicit, hashable
:class:`~repro.farm.jobs.Job` objects and provides:

* a content-addressed on-disk artifact cache (:mod:`repro.farm.cache`) so
  compiled programs and execution statistics survive across invocations;
* a persistent worker pool (:mod:`repro.farm.pool`) forked once per client
  lifetime, preloading the toolchain and pulling batched job dispatches
  off a queue, with crash detection, one retry, and serial fallback;
* the unified submission API (:mod:`repro.farm.api`):
  :class:`FarmClient` with ``submit(JobSpec) -> FarmFuture`` and
  ``sweep(jobs) -> FarmReport``, plus versioned JSON-round-trippable
  :class:`JobSpec` / :class:`JobStatus` records;
* an async HTTP/JSON front door (:mod:`repro.farm.serve`,
  ``python -m repro.farm serve``) that dedupes in-flight submissions
  against the content-addressed cache;
* an append-only structured result store (:mod:`repro.farm.results`)
  recording every sweep as a JSONL manifest;
* a command line (``python -m repro.farm run / status / gc / serve``).

``repro.experiments.common`` routes its compilation/simulation helpers
through :mod:`repro.farm.runner`, keeping its per-process ``lru_cache`` as
the L1 layer on top of the farm's on-disk L2 cache.
"""

from __future__ import annotations

from repro.farm.api import (
    API_SCHEMA_VERSION,
    FarmClient,
    FarmFuture,
    FarmReport,
    JobFailed,
    JobOutcome,
    JobSpec,
    JobStatus,
    SpecError,
    shared_client,
)
from repro.farm.cache import ArtifactCache, CacheStats, default_cache_root
from repro.farm.jobs import (
    Job,
    compile_job,
    execute_job,
    ir_job,
    sweep_jobs,
    toolchain_fingerprint,
)
from repro.farm.pool import PoolBroken, PoolOutcome, WorkerPool, default_batch_size
from repro.farm.results import ResultStore
from repro.farm.runner import run_job

__all__ = [
    "API_SCHEMA_VERSION",
    "ArtifactCache",
    "CacheStats",
    "FarmClient",
    "FarmFuture",
    "FarmReport",
    "Job",
    "JobFailed",
    "JobOutcome",
    "JobSpec",
    "JobStatus",
    "PoolBroken",
    "PoolOutcome",
    "ResultStore",
    "SpecError",
    "WorkerPool",
    "compile_job",
    "default_batch_size",
    "default_cache_root",
    "execute_job",
    "ir_job",
    "run_job",
    "shared_client",
    "sweep_jobs",
    "toolchain_fingerprint",
]
