"""The farm's one submission surface: ``FarmClient.submit(spec) -> future``.

Every way into the farm — the ``risc1-farm`` CLI, the ``repro.farm
serve`` HTTP server, the experiment harnesses — goes through this
module:

* :class:`JobSpec` / :class:`JobStatus` are the wire types.  Both are
  plain dataclasses with versioned JSON round-trips (like
  :class:`~repro.core.api.RunResult`), so a spec POSTed to the server,
  printed by the CLI, or stored in a manifest is the same document.
  Workload names use the shared ``NAME[:ARG]`` grammar
  (:func:`repro.workloads.parse_workload_spec`); every validation
  failure raises :class:`SpecError`, which carries a structured
  ``payload`` suitable for an HTTP 400 body — never a traceback.
* :class:`FarmClient` owns the execution strategy: serial in-process
  for ``workers <= 1``, a persistent :class:`~repro.farm.pool.WorkerPool`
  otherwise (forked once per client lifetime, batched dispatch), with
  automatic serial fallback when the pool cannot run.  ``submit`` is
  deduplicated in flight: two submissions of the same content-addressed
  key share one execution and one future.
* :meth:`FarmClient.sweep` is the batch entry point the CLIs call:
  dependency waves, serial fallback, manifest record, tracer events.
  It reports through :class:`JobOutcome` and :class:`FarmReport`.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time

from repro.farm.cache import ArtifactCache, CacheStats, default_cache_root
from repro.farm.jobs import (
    MAX_INSTRUCTIONS,
    Job,
    _normalize_params,
    compile_job,
    dependency,
    execute_job,
    ir_job,
)
from repro.farm.pool import PoolBroken, WorkerPool
from repro.farm.runner import cache_enabled, job_metrics, run_job

__all__ = [
    "API_SCHEMA_VERSION",
    "FarmClient",
    "FarmFuture",
    "FarmReport",
    "JobFailed",
    "JobOutcome",
    "JobSpec",
    "JobStatus",
    "SpecError",
    "shared_client",
]

#: Bump on any backwards-incompatible JobSpec/JobStatus change.
API_SCHEMA_VERSION = 1

_KINDS = ("compile", "execute", "ir")
_TARGETS = ("risc1", "cisc")
_SCALES = ("default", "bench")

#: If a pool produces no outcome for this long while jobs are missing,
#: the sweep assumes the pool is wedged and falls back to serial.
_POOL_STALL_S = 300.0


class SpecError(ValueError):
    """An invalid job spec, with a structured JSON-able ``payload``."""

    def __init__(self, message: str, field: str | None = None, value=None):
        super().__init__(message)
        self.payload = {
            "error": {
                "message": message,
                **({"field": field} if field else {}),
                **({"value": value} if value is not None else {}),
            }
        }


@dataclasses.dataclass
class JobOutcome:
    """What happened to one job during a sweep."""

    job: Job
    key: str
    status: str  # "hit" | "computed" | "failed"
    wall_s: float
    worker: str  # "serial", or "pool:<worker id>" for pool execution
    error: str | None = None
    #: small per-job measurement record (cycles, instructions, code size)
    metrics: dict | None = None


@dataclasses.dataclass
class FarmReport:
    """Everything one sweep invocation did."""

    mode: str  # "serial" | "parallel" | "parallel+fallback"
    workers: int
    wall_s: float
    outcomes: list[JobOutcome]
    cache_stats: CacheStats

    @property
    def counts(self) -> dict[str, int]:
        counts = {"hit": 0, "computed": 0, "failed": 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def summary(self) -> str:
        c = self.counts
        return (
            f"{len(self.outcomes)} jobs in {self.wall_s:.2f}s "
            f"({self.mode}, {self.workers} worker{'s' if self.workers != 1 else ''}): "
            f"{c['hit']} cache hits, {c['computed']} computed, {c['failed']} failed"
        )


def _job_waves(jobs: list[Job]) -> list[list[Job]]:
    """Dependency-ordered waves: producers before the jobs that read them."""
    remaining = list(dict.fromkeys(jobs))  # preserve order, drop duplicates
    keys = {job.key for job in remaining}
    waves: list[list[Job]] = []
    done: set[str] = set()
    while remaining:
        wave = []
        for job in remaining:
            dep = dependency(job)
            if dep is None or dep.key in done or dep.key not in keys:
                wave.append(job)
        if not wave:  # cycle cannot happen with this job model, but stay safe
            wave = remaining[:]
        done.update(job.key for job in wave)
        remaining = [job for job in remaining if job.key not in done]
        waves.append(wave)
    return waves


def _serial_outcome(job: Job, cache: ArtifactCache | None) -> JobOutcome:
    started = time.perf_counter()
    metrics = None
    try:
        value, hit = run_job(job, cache)
        status, error = ("hit" if hit else "computed"), None
        metrics = job_metrics(job, value)
    except Exception as exc:
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    return JobOutcome(
        job, job.key, status, time.perf_counter() - started, "serial", error, metrics
    )


class JobFailed(RuntimeError):
    """Raised by :meth:`FarmFuture.result` when the job failed."""

    def __init__(self, status: "JobStatus"):
        super().__init__(status.error or f"job {status.key} failed")
        self.status = status


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One unit of requested work, in the shared workload-spec grammar.

    ``workload`` is a ``NAME[:ARG]`` spec (``towers``, ``towers:12``,
    ``bit_matrix_k:N=8,REPS=2``).  The other fields mirror the farm's
    :class:`~repro.farm.jobs.Job` model.
    """

    workload: str
    kind: str = "execute"
    target: str = "risc1"
    scale: str = "default"
    max_instructions: int = MAX_INSTRUCTIONS
    #: inline mini-C source (e.g. fuzz-generated).  When set, ``workload``
    #: is a free-form label and the source must compile under RCC —
    #: checked once by :meth:`FarmClient.submit` before dispatch, so a bad
    #: program is a structured 400 (:class:`SpecError`), never a failed
    #: job or a 500 from deep inside a worker.
    source: str | None = None

    def validate(self) -> "JobSpec":
        from repro.workloads import parse_workload_spec

        if self.kind not in _KINDS:
            raise SpecError(
                f"unknown job kind {self.kind!r} (choose from: {', '.join(_KINDS)})",
                field="kind",
                value=self.kind,
            )
        if self.target not in _TARGETS:
            raise SpecError(
                f"unknown target {self.target!r} (choose from: {', '.join(_TARGETS)})",
                field="target",
                value=self.target,
            )
        if self.scale not in _SCALES:
            raise SpecError(
                f"unknown scale {self.scale!r} (choose from: {', '.join(_SCALES)})",
                field="scale",
                value=self.scale,
            )
        if not isinstance(self.max_instructions, int) or self.max_instructions <= 0:
            raise SpecError(
                "max_instructions must be a positive integer",
                field="max_instructions",
                value=self.max_instructions,
            )
        if self.source is not None:
            if not isinstance(self.source, str) or not self.source.strip():
                raise SpecError(
                    "inline source must be non-empty text", field="source"
                )
            return self
        try:
            parse_workload_spec(self.workload)
        except ValueError as exc:
            raise SpecError(str(exc), field="workload", value=self.workload) from None
        return self

    def to_job(self) -> Job:
        """The content-addressed farm job this spec names."""
        from repro.workloads import parse_workload_spec

        self.validate()
        if self.source is not None:
            return Job(
                self.kind,
                self.workload,
                self.target,
                self.scale,
                config=(("max_instructions", self.max_instructions),)
                if self.kind == "execute"
                else (),
                source=self.source,
            )
        name, overrides = parse_workload_spec(self.workload)
        params = _normalize_params(overrides)
        if self.kind == "compile":
            return compile_job(name, self.target, self.scale, params=params)
        if self.kind == "ir":
            return ir_job(name, self.scale, params=params)
        return execute_job(
            name,
            self.target,
            self.scale,
            max_instructions=self.max_instructions,
            params=params,
        )

    def to_dict(self) -> dict:
        payload = {
            "schema": API_SCHEMA_VERSION,
            "workload": self.workload,
            "kind": self.kind,
            "target": self.target,
            "scale": self.scale,
            "max_instructions": self.max_instructions,
        }
        if self.source is not None:
            payload["source"] = self.source
        return payload

    @classmethod
    def from_dict(cls, payload) -> "JobSpec":
        """Parse and validate an incoming JSON document into a spec."""
        if not isinstance(payload, dict):
            raise SpecError("job spec must be a JSON object", value=payload)
        schema = payload.get("schema", API_SCHEMA_VERSION)
        if schema != API_SCHEMA_VERSION:
            raise SpecError(
                f"unsupported spec schema {schema!r} "
                f"(this server speaks {API_SCHEMA_VERSION})",
                field="schema",
                value=schema,
            )
        unknown = set(payload) - {
            "schema", "workload", "kind", "target", "scale", "max_instructions",
            "source",
        }
        if unknown:
            raise SpecError(
                f"unknown spec field(s): {', '.join(sorted(unknown))}",
                field=sorted(unknown)[0],
            )
        if "workload" not in payload or not isinstance(payload["workload"], str):
            raise SpecError("spec requires a string 'workload'", field="workload")
        try:
            max_instructions = int(payload.get("max_instructions", MAX_INSTRUCTIONS))
        except (TypeError, ValueError):
            raise SpecError(
                "max_instructions must be an integer",
                field="max_instructions",
                value=payload.get("max_instructions"),
            ) from None
        source = payload.get("source")
        if source is not None and not isinstance(source, str):
            raise SpecError("source must be a string", field="source")
        return cls(
            workload=payload["workload"],
            kind=payload.get("kind", "execute"),
            target=payload.get("target", "risc1"),
            scale=payload.get("scale", "default"),
            max_instructions=max_instructions,
            source=source,
        ).validate()

    @classmethod
    def from_job(cls, job: Job) -> "JobSpec":
        workload = job.workload
        if job.params:
            workload += ":" + ",".join(f"{k}={v}" for k, v in job.params)
        return cls(
            workload=workload,
            kind=job.kind,
            target=job.target,
            scale=job.scale,
            max_instructions=dict(job.config).get("max_instructions", MAX_INSTRUCTIONS),
            source=job.source,
        )


@dataclasses.dataclass
class JobStatus:
    """Where one submission stands; JSON round-trips for the HTTP API."""

    key: str
    state: str  # "queued" | "running" | "done" | "failed"
    spec: dict | None = None  # the JobSpec.to_dict() that produced it
    status: str | None = None  # terminal disposition: "hit" | "computed" | "failed"
    wall_s: float | None = None
    worker: str | None = None
    error: str | None = None
    metrics: dict | None = None
    attempts: int = 1
    deduped: bool = False

    def to_dict(self) -> dict:
        return {"schema": API_SCHEMA_VERSION, **dataclasses.asdict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "JobStatus":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


class FarmFuture:
    """Completion handle for one submitted job."""

    def __init__(self, job: Job, spec: JobSpec | None = None):
        self.job = job
        self._event = threading.Event()
        self._callbacks: list = []
        self._lock = threading.Lock()
        self._status = JobStatus(
            key=job.key,
            state="queued",
            spec=(spec or JobSpec.from_job(job)).to_dict(),
        )
        self._value = None
        self._has_value = False
        self._cache_root = None

    def done(self) -> bool:
        return self._event.is_set()

    def status(self) -> JobStatus:
        """A snapshot of the job's current status."""
        with self._lock:
            return dataclasses.replace(self._status)

    def add_done_callback(self, fn) -> None:
        """``fn(future)`` on completion (immediately if already done)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout: float | None = None):
        """The job's artifact value (blocks), or raises :class:`JobFailed`.

        For pool-executed jobs the value is read back from the
        content-addressed cache (a guaranteed hit for a finished job);
        when caching is disabled the job recomputes in-process.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(f"job {self.job.describe()} still {self._status.state}")
        if self._status.state == "failed":
            raise JobFailed(self.status())
        if not self._has_value:
            cache = ArtifactCache(self._cache_root) if self._cache_root else None
            self._value, _ = run_job(self.job, cache)
            self._has_value = True
        return self._value

    # -- resolution (client / pool side) ---------------------------------------

    def _mark_running(self, worker: str | None = None) -> None:
        with self._lock:
            if not self._event.is_set():
                self._status.state = "running"
                if worker:
                    self._status.worker = worker

    def _resolve(self, status, wall_s, worker, error=None, metrics=None, attempts=1,
                 value=None, has_value=False, cache_root=None) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._status.state = "failed" if status == "failed" else "done"
            self._status.status = status
            self._status.wall_s = round(wall_s, 6) if wall_s is not None else None
            self._status.worker = worker
            self._status.error = error
            self._status.metrics = metrics
            self._status.attempts = attempts
            self._value = value
            self._has_value = has_value
            self._cache_root = cache_root
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for fn in callbacks:
            try:
                fn(self)
            except Exception:
                import traceback

                traceback.print_exc()


class FarmClient:
    """The farm's front door: submit specs, collect futures, run sweeps.

    ``workers <= 1`` executes submissions serially in-process (the exact
    old serial path).  ``workers > 1`` lazily starts one persistent
    :class:`WorkerPool`, reused for every subsequent ``submit``/``sweep``
    until :meth:`close`; if the pool cannot start, the client falls back
    to serial execution and says so in sweep reports
    (``parallel+fallback``), never failing the work.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ArtifactCache | None = None,
        batch_size: int | None = None,
        retries: int = 1,
    ):
        self.workers = max(1, int(workers))
        if cache is None and cache_enabled():
            cache = ArtifactCache(default_cache_root())
        self.cache = cache
        self.batch_size = batch_size
        self.retries = retries
        self._pool: WorkerPool | None = None
        self._pool_broken = False
        self._lock = threading.Lock()
        self._inflight: dict[str, FarmFuture] = {}
        self.dedupe_hits = 0
        self._closed = False

    # -- pool management ---------------------------------------------------------

    @property
    def cache_root(self) -> str | None:
        return str(self.cache.root) if self.cache is not None else None

    def _ensure_pool(self) -> WorkerPool | None:
        """The running pool, or None when executing serially."""
        if self.workers <= 1 or self._pool_broken or self._closed:
            return None
        with self._lock:
            if self._pool is None:
                pool = WorkerPool(
                    self.workers,
                    cache_root=self.cache_root,
                    batch_size=self.batch_size,
                    retries=self.retries,
                )
                try:
                    pool.start()
                except Exception:
                    self._pool_broken = True
                    return None
                self._pool = pool
            return self._pool

    @property
    def mode(self) -> str:
        """How submissions execute right now: ``serial`` or ``pool``."""
        if self.workers <= 1 or self._pool_broken:
            return "serial"
        return "pool"

    def status(self) -> dict:
        """Machine-readable client/pool state (the serve /status payload)."""
        pool = self._pool
        return {
            "workers": self.workers,
            "mode": self.mode,
            "in_flight": len(self._inflight),
            "dedupe_hits": self.dedupe_hits,
            "cache_root": self.cache_root,
            "cache": self.cache.stats.to_dict() if self.cache else None,
            "pool": (
                {
                    "alive_workers": pool.alive_workers,
                    "batch_size": pool.batch_size,
                    "in_flight": pool.in_flight,
                    **pool.stats,
                }
                if pool is not None and pool._started
                else None
            ),
        }

    # -- single submission -------------------------------------------------------

    def submit(self, item: "JobSpec | Job | str") -> FarmFuture:
        """Submit one job; returns its future (shared if already in flight).

        ``item`` may be a :class:`JobSpec`, a raw :class:`Job`, or a
        bare ``NAME[:ARG]`` workload spec string (an execute job on
        RISC I).  Invalid specs raise :class:`SpecError` immediately;
        that includes inline source RCC rejects.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        if isinstance(item, str):
            item = JobSpec(workload=item)
        if isinstance(item, JobSpec):
            spec, job = item, item.to_job()
        else:
            spec, job = JobSpec.from_job(item), item
        if job.source is not None and job.key not in self._inflight:
            self._compile_inline(job)
        with self._lock:
            existing = self._inflight.get(job.key)
            if existing is not None and not existing.done():
                self.dedupe_hits += 1
                existing._status.deduped = True
                return existing
            future = FarmFuture(job, spec)
            self._inflight[job.key] = future
        pool = self._ensure_pool()
        if pool is None:
            self._run_serial(future)
            return future
        try:
            future._mark_running()
            pool.submit([job], self._pool_callback(future), batch_size=1)
        except PoolBroken:
            self._pool_broken = True
            self._run_serial(future)
        return future

    def _compile_inline(self, job: Job) -> None:
        """Compile an inline program once, before it is dispatched.

        The compiled artifact goes to the cache under the key of the
        compile job the run depends on, so the run reads it back instead
        of compiling again.
        """
        from repro.cc.driver import CompileError, compile_program

        try:
            compile_step = dependency(job)
            if compile_step is not None:
                run_job(compile_step, self.cache)
            else:  # the job is the compile itself; leave it to the worker
                compile_program(
                    job.source, target=job.target, filename=f"{job.workload}.c"
                )
        except CompileError as exc:
            raise SpecError(
                f"inline source does not compile: {exc}",
                field="source",
                value=str(exc),
            ) from None

    def _pool_callback(self, future: FarmFuture):
        def callback(outcome) -> None:
            if self.cache is not None and outcome.cache:
                self.cache.stats.merge(CacheStats(**outcome.cache))
            future._resolve(
                outcome.status,
                outcome.wall_s,
                outcome.worker,
                error=outcome.error,
                metrics=outcome.metrics,
                attempts=outcome.attempts,
                cache_root=self.cache_root,
            )
            with self._lock:
                if self._inflight.get(future.job.key) is future:
                    del self._inflight[future.job.key]

        return callback

    def _run_serial(self, future: FarmFuture) -> None:
        job = future.job
        future._mark_running("serial")
        started = time.perf_counter()
        try:
            value, hit = run_job(job, self.cache)
            future._resolve(
                "hit" if hit else "computed",
                time.perf_counter() - started,
                "serial",
                metrics=job_metrics(job, value),
                value=value,
                has_value=True,
            )
        except Exception as exc:
            future._resolve(
                "failed",
                time.perf_counter() - started,
                "serial",
                error=f"{type(exc).__name__}: {exc}",
            )
        with self._lock:
            if self._inflight.get(job.key) is future:
                del self._inflight[job.key]

    # -- batch sweeps ------------------------------------------------------------

    def sweep(
        self,
        jobs: list[Job],
        manifest: bool = True,
        store=None,
        tracer=None,
        batch_size: int | None = None,
    ) -> FarmReport:
        """Run a dependency-ordered sweep; returns a :class:`FarmReport`.

        Compile waves precede the runs that read them, outcomes stream
        through the optional ``tracer``, the report lands in the
        manifest, and any pool failure degrades to serial execution of
        whatever has not finished (``mode="parallel+fallback"``).
        """
        from repro.farm.results import ResultStore

        if tracer is not None and not getattr(tracer, "enabled", True):
            tracer = None
        started = time.perf_counter()
        outcomes: list[JobOutcome] = []
        totals = CacheStats()
        mode = "serial" if self.workers <= 1 else "parallel"

        def run_serially(batch: list[Job], announce: bool = True) -> None:
            for job in batch:
                if tracer is not None and announce:
                    tracer.job_start(job.key, job.describe())
                outcome = _serial_outcome(job, self.cache)
                if tracer is not None:
                    tracer.job_finish(
                        outcome.key, job.describe(), outcome.status, outcome.wall_s
                    )
                outcomes.append(outcome)

        for wave in _job_waves(jobs):
            pool = self._ensure_pool() if mode == "parallel" else None
            if pool is None:
                if mode == "parallel":
                    mode = "parallel+fallback"
                run_serially(wave)
                continue

            incoming: "queue.Queue" = queue.Queue()
            by_key = {job.key: job for job in wave}
            try:
                pool.submit(
                    list(by_key.values()),
                    incoming.put,
                    batch_size=batch_size or self.batch_size,
                )
            except PoolBroken:
                self._pool_broken = True
                mode = "parallel+fallback"
                run_serially(wave)
                continue
            if tracer is not None:
                for job in wave:
                    tracer.job_start(job.key, job.describe())
            pending = set(by_key)
            last_progress = time.monotonic()
            while pending:
                try:
                    result = incoming.get(timeout=0.5)
                except queue.Empty:
                    if time.monotonic() - last_progress > _POOL_STALL_S:
                        # wedged pool: finish the stragglers serially
                        self._pool_broken = True
                        mode = "parallel+fallback"
                        run_serially([by_key[key] for key in sorted(pending)], False)
                        pending.clear()
                    continue
                last_progress = time.monotonic()
                if result.key not in pending:
                    continue
                pending.discard(result.key)
                job = by_key[result.key]
                outcome = JobOutcome(
                    job,
                    result.key,
                    result.status,
                    result.wall_s,
                    result.worker,
                    result.error,
                    result.metrics,
                )
                outcomes.append(outcome)
                if tracer is not None:
                    tracer.job_finish(
                        outcome.key, job.describe(), outcome.status, outcome.wall_s
                    )
                if result.cache:
                    totals.merge(CacheStats(**result.cache))

        if self.cache is not None:
            totals.merge(self.cache.stats)
        report = FarmReport(
            mode, self.workers, time.perf_counter() - started, outcomes, totals
        )
        if manifest and (store is not None or self.cache is not None):
            if store is None:
                store = ResultStore(self.cache.root / "runs.jsonl")
            try:
                store.append_run(report)
            except OSError:
                pass  # an unwritable manifest must not fail a finished sweep
        return report

    # -- lifecycle ---------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for in-flight pool work to finish (used by serve shutdown)."""
        pool = self._pool
        if pool is None:
            return True
        return pool.drain(timeout)

    def close(self) -> None:
        """Shut the pool down (merging ledger shards) and refuse new work."""
        self._closed = True
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "FarmClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_shared: FarmClient | None = None
_shared_lock = threading.Lock()


def shared_client(workers: int = 1) -> FarmClient:
    """One process-wide serial-or-better client, grown on demand.

    The experiment harnesses route their compile/execute/IR helpers
    through this client so every in-process consumer shares the same
    in-flight dedupe map; asking for more workers than the current
    shared client has replaces it with a bigger one.
    """
    global _shared
    with _shared_lock:
        if _shared is None or _shared._closed or _shared.workers < workers:
            previous, _shared = _shared, FarmClient(workers=workers)
            if previous is not None:
                previous.close()
        return _shared
