"""The persistent worker pool: parity, reuse, and crash tolerance.

The crash tests use the pool's test-only injection hooks
(``$REPRO_FARM_TEST_CRASH`` / ``$REPRO_FARM_TEST_CRASH_ONCE``) to kill a
worker with ``os._exit`` mid-batch — a real SIGKILL-grade death, not an
exception — and assert the deployment contract: the job is retried once
on a fresh worker, and when the retry budget is exhausted it fails
*cleanly* with the dead worker's stderr attached, never wedging or
raising out of the sweep.
"""

import queue

import pytest

from repro.farm.api import FarmClient
from repro.farm.cache import ArtifactCache
from repro.farm.jobs import execute_job, sweep_jobs
from repro.farm.pool import WorkerPool, default_batch_size


def _collect_pool(pool, jobs, timeout=120.0):
    """Submit jobs, return {key: PoolOutcome} once all have reported."""
    incoming = queue.Queue()
    pool.submit(jobs, incoming.put)
    outcomes = {}
    while len(outcomes) < len(jobs):
        outcome = incoming.get(timeout=timeout)
        outcomes[outcome.key] = outcome
    return outcomes


class TestBatchSize:
    def test_two_dispatches_per_worker(self):
        assert default_batch_size(16, 4) == 2
        assert default_batch_size(64, 4) == 8  # capped
        assert default_batch_size(3, 4) == 1
        assert default_batch_size(0, 4) == 1

    def test_degenerate_inputs(self):
        assert default_batch_size(10, 0) == 1
        assert default_batch_size(-1, 2) == 1


class TestPoolExecution:
    def test_pool_matches_serial_results(self, tmp_path):
        jobs = sweep_jobs(workloads=["towers", "qsort"], targets=["risc1"])
        serial_cache = ArtifactCache(tmp_path / "serial")
        with FarmClient(workers=1, cache=serial_cache) as client:
            serial = client.sweep(jobs)
        with WorkerPool(2, cache_root=str(tmp_path / "pool")) as pool:
            outcomes = _collect_pool(pool, jobs)
        # raw pool submission has no dependency waves, so a compile job may
        # be a cache *hit* (its execute job compiled first) — but every job
        # succeeds and produces bit-identical measurements
        assert all(o.status in ("hit", "computed") for o in outcomes.values())
        assert {o.key: o.metrics for o in serial.outcomes} == {
            k: o.metrics for k, o in outcomes.items()
        }
        assert all(o.worker.startswith("pool:") for o in outcomes.values())

    def test_pool_is_reused_across_submissions(self, tmp_path):
        jobs = [execute_job("towers", "risc1")]
        with WorkerPool(2, cache_root=str(tmp_path)) as pool:
            first_pids = sorted(p.pid for p in pool._procs.values())
            _collect_pool(pool, jobs)
            _collect_pool(pool, jobs)  # second submission: warm cache, same forks
            assert sorted(p.pid for p in pool._procs.values()) == first_pids
            assert pool.stats["batches_dispatched"] == 2
            assert pool.stats["worker_crashes"] == 0

    def test_cache_stats_travel_with_outcomes(self, tmp_path):
        with WorkerPool(1, cache_root=str(tmp_path)) as pool:
            cold = _collect_pool(pool, [execute_job("towers", "risc1")])
            warm = _collect_pool(pool, [execute_job("towers", "risc1")])
        (cold_outcome,) = cold.values()
        (warm_outcome,) = warm.values()
        assert cold_outcome.status == "computed"
        assert cold_outcome.cache["stores"] >= 1
        assert warm_outcome.status == "hit"
        assert warm_outcome.cache["hits"] >= 1


class TestCrashTolerance:
    def test_crash_is_retried_once_then_succeeds(self, tmp_path, monkeypatch):
        job = execute_job("towers", "risc1")
        marker = tmp_path / "crashed-once"
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH", job.describe())
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH_ONCE", str(marker))
        with WorkerPool(2, cache_root=str(tmp_path / "cache")) as pool:
            outcomes = _collect_pool(pool, [job])
            assert pool.stats["worker_crashes"] == 1
            assert pool.stats["jobs_retried"] == 1
            assert pool.stats["workers_respawned"] == 1
            # the pool is still fully usable after the respawn
            monkeypatch.delenv("REPRO_FARM_TEST_CRASH")
            more = _collect_pool(pool, [execute_job("qsort", "risc1")])
        outcome = outcomes[job.key]
        assert outcome.status == "computed"
        assert outcome.attempts == 2
        assert marker.exists()
        assert all(o.status == "computed" for o in more.values())

    def test_exhausted_retries_fail_cleanly_with_stderr(self, tmp_path, monkeypatch):
        job = execute_job("towers", "risc1")
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH", job.describe())
        with WorkerPool(2, cache_root=str(tmp_path / "cache")) as pool:
            outcomes = _collect_pool(pool, [job])
        outcome = outcomes[job.key]
        assert outcome.status == "failed"
        assert outcome.attempts == 2  # first try + one retry, both crashed
        assert "crashed" in outcome.error
        assert "exit code 66" in outcome.error
        # the dead worker's stderr tail is attached to the failure
        assert "simulated worker crash" in outcome.error

    def test_client_sweep_survives_worker_crashes(self, tmp_path, monkeypatch):
        """A crashing job fails its own outcome; everything else completes."""
        victim = execute_job("towers", "risc1")
        jobs = [victim, execute_job("qsort", "risc1"), execute_job("sed", "risc1")]
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH", victim.describe())
        with FarmClient(workers=2, cache=ArtifactCache(tmp_path / "cache")) as client:
            report = client.sweep(jobs)
        by_key = {o.key: o for o in report.outcomes}
        assert by_key[victim.key].status == "failed"
        assert "crashed" in by_key[victim.key].error
        survivors = [o for k, o in by_key.items() if k != victim.key]
        assert all(o.status == "computed" for o in survivors)


class TestPoolLifecycle:
    def test_drain_then_close_merges_nothing_without_ledger(self, tmp_path):
        pool = WorkerPool(1, cache_root=str(tmp_path))
        pool.start()
        _collect_pool(pool, [execute_job("towers", "risc1")])
        assert pool.drain(timeout=30.0)
        pool.close()
        assert not pool._started
        # close is idempotent
        pool.close()

    def test_pool_refuses_work_after_close(self, tmp_path):
        from repro.farm.pool import PoolBroken

        pool = WorkerPool(1, cache_root=str(tmp_path))
        pool.start()
        pool.close()
        with pytest.raises(PoolBroken):
            pool.submit([execute_job("towers", "risc1")], lambda o: None)


class TestOrphanedWorkers:
    def test_workers_exit_when_pool_process_is_killed(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        script = (
            "import sys, time\n"
            "from repro.farm.pool import WorkerPool\n"
            f"pool = WorkerPool(2, cache_root={str(tmp_path)!r}).start()\n"
            "print(*(p.pid for p in pool._procs.values()), flush=True)\n"
            "time.sleep(120)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        owner = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
        finally:
            owner.send_signal(signal.SIGKILL)
            owner.wait(timeout=10)
            owner.stdout.close()

        def gone(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return True
            return stat.rsplit(")", 1)[1].split()[0] == "Z"  # a zombie is gone

        deadline = time.monotonic() + 5.0
        while not all(gone(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        alive = [pid for pid in pids if not gone(pid)]
        for pid in alive:  # never leave strays behind, even on failure
            os.kill(pid, signal.SIGKILL)
        assert not alive, f"workers {alive} outlived their pool's process"
