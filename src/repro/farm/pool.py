"""Persistent worker pool: fork once, dispatch batches, survive crashes.

The old scheduler paid a :class:`~concurrent.futures.ProcessPoolExecutor`
per sweep and a pickled future round-trip per job — on ~2s workloads the
overhead swamped the parallelism (``BENCH_farm.json`` recorded a 0.93×
"speedup").  This pool inverts the cost model:

* **Workers are forked once per pool lifetime** (one ``FarmClient``, or
  the whole life of a ``repro.farm serve`` process).  Before forking,
  the parent *preloads* the toolchain — compiler, both simulators, the
  IR VM, the content-addressed toolchain fingerprint and every workload
  source — so each child inherits warm module state and read-only
  program artifacts through copy-on-write pages instead of re-importing
  and re-hashing per process.
* **Jobs travel in batches.**  One queue message carries many jobs; one
  small outcome record returns per job as it finishes (so progress
  streams), plus a batch-completion marker.  Queue round-trips are paid
  per batch, not per job.
* **Crashes are survivable.**  Each worker's stderr is redirected to a
  per-worker file.  If a worker dies mid-batch, the parent re-enqueues
  the batch's unfinished jobs (once, by default), respawns a
  replacement worker, and — when the retry budget is exhausted —
  reports the job *failed cleanly* with the dead worker's stderr tail
  attached, never raising out of the sweep.
* **The run ledger shards per worker.**  When ``$REPRO_LEDGER`` is
  active each worker appends to its own ``shards/<worker>.jsonl``
  (no cross-process interleaving, no per-record fsync contention); the
  parent merges the shards into the main ledger on :meth:`close` —
  idempotently, so a crash between merges never duplicates records.

The pool degrades gracefully: if ``multiprocessing`` cannot start at
all, :meth:`start` raises and callers (``FarmClient``) fall back to
serial in-process execution, exactly like the old scheduler.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

__all__ = ["PoolBroken", "PoolOutcome", "WorkerPool", "default_batch_size"]

#: How long the collector waits on the result queue before checking
#: worker liveness (seconds).
_POLL_S = 0.1

#: How many trailing stderr bytes a crash report carries.
_STDERR_TAIL = 2000


class PoolBroken(RuntimeError):
    """The pool cannot execute jobs (failed start or no live workers)."""


@dataclasses.dataclass
class PoolOutcome:
    """One job's result as reported by (or synthesized for) a worker."""

    key: str
    status: str  # "hit" | "computed" | "failed"
    wall_s: float
    worker: str  # "pool:<id>" or "pool" for synthesized crash failures
    error: str | None = None
    metrics: dict | None = None
    #: per-job cache accounting delta (CacheStats.to_dict form) or None
    cache: dict | None = None
    #: 1 for a first-try result, 2+ after crash retries
    attempts: int = 1


def default_batch_size(jobs: int, workers: int) -> int:
    """Batch so each worker sees ~2 dispatches per wave, bounded [1, 8].

    Two dispatches per worker keeps the tail balanced (a straggler batch
    costs at most half a worker's share) while paying queue round-trips
    per *batch* rather than per job.
    """
    if jobs <= 0 or workers <= 0:
        return 1
    return max(1, min(8, (jobs + 2 * workers - 1) // (2 * workers)))


def _preload_toolchain() -> None:
    """Warm everything a worker needs before (or right after) forking.

    Imports the compiler driver, both simulators and the IR VM, then
    computes the toolchain fingerprint and every workload's source
    digest — the expensive per-process set-up the old executor paid in
    every worker, every sweep.
    """
    import repro.baselines.vax.cpu  # noqa: F401
    import repro.cc.driver  # noqa: F401
    import repro.cc.irvm  # noqa: F401
    import repro.core.cpu  # noqa: F401
    import repro.core.engine  # noqa: F401
    from repro.farm.jobs import _source_digest, toolchain_fingerprint
    from repro.workloads import ALL_WORKLOADS

    toolchain_fingerprint()
    for name in ALL_WORKLOADS:
        try:
            _source_digest(name, "default")
        except Exception:  # a missing program file fails the job, not the pool
            pass


def _maybe_test_crash(job) -> None:
    """Test-only crash injection, gated by ``$REPRO_FARM_TEST_CRASH``.

    The value is a substring matched against ``job.describe()``; a match
    kills the worker with ``os._exit`` (no cleanup — a real crash).  If
    ``$REPRO_FARM_TEST_CRASH_ONCE`` names a marker path, the crash
    happens only while the marker does not exist (crash once, then
    succeed on retry).
    """
    needle = os.environ.get("REPRO_FARM_TEST_CRASH")
    if not needle or needle not in job.describe():
        return
    marker = os.environ.get("REPRO_FARM_TEST_CRASH_ONCE")
    if marker:
        if os.path.exists(marker):
            return
        Path(marker).write_text("crashed once\n", encoding="utf-8")
    print(f"simulated worker crash while running {job.describe()}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(66)


def _worker_main(worker_id, task_q, result_q, cache_root, stderr_path, shard):
    """Worker process entry: pull batches until the stop sentinel."""
    try:
        handle = open(stderr_path, "a", buffering=1, encoding="utf-8")
        os.dup2(handle.fileno(), 2)
        sys.stderr = handle
    except OSError:
        pass  # no stderr capture, but the worker still works
    if shard:
        # every ledger append in this process lands in our own shard
        os.environ["REPRO_LEDGER_SHARD"] = shard
    _preload_toolchain()  # no-op under fork (inherited warm), real under spawn

    from repro.farm.cache import ArtifactCache, CacheStats
    from repro.farm.runner import job_metrics, run_job

    cache = ArtifactCache(cache_root) if cache_root is not None else None
    result_q.put(("ready", None, worker_id, None, None))
    while True:
        message = task_q.get()
        if message is None:
            break
        batch_id, jobs = message
        result_q.put(("taken", batch_id, worker_id, None, None))
        for job in jobs:
            _maybe_test_crash(job)
            before = dataclasses.replace(cache.stats) if cache is not None else None
            started = time.perf_counter()
            metrics = error = None
            try:
                value, hit = run_job(job, cache)
                status = "hit" if hit else "computed"
                metrics = job_metrics(job, value)
            except Exception:
                status = "failed"
                error = traceback.format_exc(limit=4)
            delta = None
            if cache is not None:
                delta = CacheStats(
                    *(
                        getattr(cache.stats, f.name) - getattr(before, f.name)
                        for f in dataclasses.fields(CacheStats)
                    )
                ).to_dict()
            record = {
                "status": status,
                "wall_s": time.perf_counter() - started,
                "error": error,
                "metrics": metrics,
                "cache": delta,
            }
            result_q.put(("outcome", batch_id, worker_id, job.key, record))
        result_q.put(("batch_done", batch_id, worker_id, None, None))
    result_q.put(("bye", None, worker_id, None, None))


class _Batch:
    """Parent-side bookkeeping for one dispatched batch."""

    __slots__ = ("id", "jobs", "callback", "taken_by", "done", "attempts")

    def __init__(self, batch_id, jobs, callback, attempts):
        self.id = batch_id
        self.jobs = {job.key: job for job in jobs}
        self.callback = callback
        self.taken_by = None  # worker id once a worker announces it
        self.done: set[str] = set()
        self.attempts = attempts  # key -> attempt count for these jobs

    @property
    def complete(self) -> bool:
        return self.done >= set(self.jobs)


class WorkerPool:
    """A persistent, crash-tolerant pool of preloaded farm workers."""

    def __init__(
        self,
        workers: int,
        cache_root: str | None = None,
        batch_size: int | None = None,
        retries: int = 1,
        ledger_shards: bool = True,
    ):
        self.workers = max(1, int(workers))
        self.cache_root = cache_root
        self.batch_size = batch_size
        self.retries = max(0, int(retries))
        self.ledger_shards = ledger_shards
        self._context = None
        self._task_q = None
        self._result_q = None
        self._procs: dict[int, multiprocessing.Process] = {}
        self._stderr: dict[int, Path] = {}
        self._stderr_dir: tempfile.TemporaryDirectory | None = None
        self._batches: dict[int, _Batch] = {}
        self._next_batch = 0
        self._next_worker = 0
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        self._collector: threading.Thread | None = None
        self._closing = False
        self._started = False
        #: pool-lifetime accounting, surfaced by /status
        self.stats = {
            "batches_dispatched": 0,
            "jobs_dispatched": 0,
            "jobs_completed": 0,
            "jobs_retried": 0,
            "worker_crashes": 0,
            "workers_respawned": 0,
        }

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Preload the toolchain, fork the workers, start the collector.

        Raises (so callers can fall back to serial) if the platform
        cannot start worker processes at all.
        """
        if self._started:
            return self
        _preload_toolchain()  # children inherit all of this through fork
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        self._context = multiprocessing.get_context(method)
        # SimpleQueue writes synchronously to the pipe (no feeder thread),
        # so a worker's "taken" announcement is on the wire before it runs
        # the batch — a hard crash can never hide which batch it owned
        self._task_q = self._context.SimpleQueue()
        self._result_q = self._context.SimpleQueue()
        self._stderr_dir = tempfile.TemporaryDirectory(prefix="repro-farm-pool-")
        ready = []
        for _ in range(self.workers):
            self._spawn_worker()
        # wait for every worker to check in, so a broken multiprocessing
        # setup surfaces here, not mid-sweep
        deadline = time.monotonic() + 30.0
        while len(ready) < self.workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._terminate_all()
                raise PoolBroken("workers failed to start in time")
            message = self._result_get(timeout=min(remaining, 0.5))
            if message is None:
                if not any(p.is_alive() for p in self._procs.values()):
                    self._terminate_all()
                    raise PoolBroken("workers died during startup")
                continue
            if message[0] == "ready":
                ready.append(message[2])
        self._started = True
        self._collector = threading.Thread(
            target=self._collect, name="farm-pool-collector", daemon=True
        )
        self._collector.start()
        return self

    def _spawn_worker(self) -> int:
        worker_id = self._next_worker
        self._next_worker += 1
        stderr_path = Path(self._stderr_dir.name) / f"worker-{worker_id}.stderr"
        shard = f"worker-{worker_id}" if self.ledger_shards else None
        proc = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._task_q,
                self._result_q,
                self.cache_root,
                str(stderr_path),
                shard,
            ),
            daemon=True,
            name=f"farm-worker-{worker_id}",
        )
        proc.start()
        self._procs[worker_id] = proc
        self._stderr[worker_id] = stderr_path
        return worker_id

    @property
    def alive_workers(self) -> int:
        return sum(1 for p in self._procs.values() if p.is_alive())

    # -- submission --------------------------------------------------------------

    def submit(self, jobs, callback, batch_size: int | None = None) -> int:
        """Dispatch ``jobs`` in batches; ``callback(PoolOutcome)`` per job.

        Callbacks fire on the collector thread as outcomes stream back.
        Returns the number of batches dispatched.
        """
        if not self._started or self._closing:
            raise PoolBroken("pool is not running")
        jobs = list(jobs)
        if not jobs:
            return 0
        size = batch_size or self.batch_size or default_batch_size(
            len(jobs), self.workers
        )
        dispatched = 0
        with self._lock:
            self._idle.clear()
            for start in range(0, len(jobs), size):
                chunk = jobs[start : start + size]
                self._enqueue_batch(chunk, callback, {j.key: 1 for j in chunk})
                dispatched += 1
        return dispatched

    def _enqueue_batch(self, jobs, callback, attempts) -> None:
        """Must hold ``self._lock``."""
        batch = _Batch(self._next_batch, jobs, callback, attempts)
        self._next_batch += 1
        self._batches[batch.id] = batch
        self.stats["batches_dispatched"] += 1
        self.stats["jobs_dispatched"] += len(jobs)
        self._task_q.put((batch.id, list(jobs)))

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every dispatched batch has completed."""
        return self._idle.wait(timeout)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return sum(
                len(b.jobs) - len(b.done) for b in self._batches.values()
            )

    # -- the collector thread ----------------------------------------------------

    def _result_get(self, timeout: float):
        """One result message, or None after ``timeout`` seconds.

        ``SimpleQueue`` has no timed ``get``; its reader connection does
        expose ``poll``, and this pool is the queue's only reader, so a
        positive poll guarantees a non-blocking ``get``.
        """
        try:
            if not self._result_q._reader.poll(timeout):
                return None
        except (OSError, ValueError):
            return None
        return self._result_q.get()

    def _collect(self) -> None:
        while True:
            message = self._result_get(_POLL_S)
            if message is None:
                if self._closing and not self._batches:
                    return
                self._reap_crashed_workers()
                continue
            kind, batch_id, worker_id, key, record = message
            if kind == "bye":
                if self._closing and self._all_stopped():
                    return
                continue
            if kind == "ready":
                continue
            with self._lock:
                batch = self._batches.get(batch_id)
                if batch is None:
                    continue
                if kind == "taken":
                    batch.taken_by = worker_id
                    continue
                if kind == "outcome":
                    if key in batch.done:
                        continue  # duplicate after a retry race
                    batch.done.add(key)
                    outcome = PoolOutcome(
                        key=key,
                        status=record["status"],
                        wall_s=record["wall_s"],
                        worker=f"pool:{worker_id}",
                        error=record["error"],
                        metrics=record["metrics"],
                        cache=record["cache"],
                        attempts=batch.attempts.get(key, 1),
                    )
                    callback = batch.callback
                elif kind == "batch_done":
                    if batch.complete:
                        del self._batches[batch_id]
                    if not self._batches:
                        self._idle.set()
                    continue
                else:
                    continue
            # fire outside the lock: callbacks may touch the pool
            self.stats["jobs_completed"] += 1
            try:
                callback(outcome)
            except Exception:
                traceback.print_exc()

    def _all_stopped(self) -> bool:
        return all(not p.is_alive() for p in self._procs.values())

    def _reap_crashed_workers(self) -> None:
        """Detect dead workers; requeue or fail their lost jobs; respawn."""
        crashed = [
            (wid, proc)
            for wid, proc in list(self._procs.items())
            if not proc.is_alive() and proc.exitcode not in (0, None)
        ]
        if not crashed:
            return
        for worker_id, proc in crashed:
            del self._procs[worker_id]
            self.stats["worker_crashes"] += 1
            tail = self._stderr_tail(worker_id)
            failures = []
            with self._lock:
                for batch in [
                    b for b in self._batches.values() if b.taken_by == worker_id
                ]:
                    del self._batches[batch.id]
                    if batch.complete:  # died between the last outcome and
                        continue        # its batch_done marker — nothing lost
                    lost = [
                        (key, job)
                        for key, job in batch.jobs.items()
                        if key not in batch.done
                    ]
                    retry_jobs, retry_attempts = [], {}
                    for key, job in lost:
                        attempt = batch.attempts.get(key, 1)
                        if attempt <= self.retries:
                            retry_jobs.append(job)
                            retry_attempts[key] = attempt + 1
                            self.stats["jobs_retried"] += 1
                        else:
                            failures.append(
                                (
                                    batch.callback,
                                    PoolOutcome(
                                        key=key,
                                        status="failed",
                                        wall_s=0.0,
                                        worker="pool",
                                        error=(
                                            f"worker {worker_id} crashed "
                                            f"(exit code {proc.exitcode}) while "
                                            f"running {job.describe()} "
                                            f"(attempt {attempt}); stderr tail:\n"
                                            f"{tail}"
                                        ),
                                        attempts=attempt,
                                    ),
                                )
                            )
                    if retry_jobs:
                        self._enqueue_batch(retry_jobs, batch.callback, retry_attempts)
                if not self._batches:
                    self._idle.set()
            if not self._closing:
                self._spawn_worker()
                self.stats["workers_respawned"] += 1
            for callback, outcome in failures:
                self.stats["jobs_completed"] += 1
                try:
                    callback(outcome)
                except Exception:
                    traceback.print_exc()

    def _stderr_tail(self, worker_id: int) -> str:
        path = self._stderr.get(worker_id)
        try:
            data = path.read_bytes() if path is not None else b""
        except OSError:
            data = b""
        return data[-_STDERR_TAIL:].decode("utf-8", "replace").strip() or "(empty)"

    # -- shutdown ----------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work and wait for in-flight batches to finish."""
        self._closing = True
        return self.wait_idle(timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Drain, stop the workers, merge ledger shards, release resources."""
        if not self._started:
            return
        self.drain(timeout)
        self._closing = True
        for _ in self._procs:
            try:
                self._task_q.put(None)
            except (OSError, ValueError):
                break
        deadline = time.monotonic() + timeout
        for proc in self._procs.values():
            proc.join(max(0.0, deadline - time.monotonic()))
        self._terminate_all()
        if self._collector is not None:
            self._collector.join(timeout=1.0)
        self._merge_ledger_shards()
        if self._stderr_dir is not None:
            self._stderr_dir.cleanup()
            self._stderr_dir = None
        for q in (self._task_q, self._result_q):
            try:
                q.close()
            except (OSError, AttributeError):
                pass
        self._started = False

    def _terminate_all(self) -> None:
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()

    def _merge_ledger_shards(self) -> None:
        """Fold per-worker ledger shards into the main ledger (idempotent)."""
        if not self.ledger_shards:
            return
        try:
            from repro.obs.ledger import resolve_ledger

            ledger = resolve_ledger()
            if ledger is not None:
                ledger.merge_shards()
        except Exception as exc:
            print(f"warning: ledger shard merge failed: {exc}", file=sys.stderr)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
