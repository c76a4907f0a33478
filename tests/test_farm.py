"""Tests for the ``repro.farm`` subsystem.

Covers the content-addressed job keys, corruption-safe cache behaviour,
parallel-vs-serial result equality, the run manifest, and the two CLIs'
farm-facing flags.
"""

import json

import pytest

import repro
from repro.core.stats import ExecutionStats
from repro.farm import jobs as jobs_mod
from repro.farm.api import FarmClient, _job_waves
from repro.farm.cache import ArtifactCache
from repro.farm.jobs import compile_job, execute_job, ir_job, sweep_jobs
from repro.farm.results import ResultStore
from repro.farm.runner import run_job
from repro.isa.opcodes import Opcode


def sweep(jobs, workers=1, cache=None, **kwargs):
    """One sweep on a fresh client (its pool lives for this call only)."""
    with FarmClient(workers=workers, cache=cache) as client:
        return client.sweep(jobs, **kwargs)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture
def isolated_cache_dir(tmp_path, monkeypatch):
    root = tmp_path / "farm-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


class TestJobHashing:
    def test_same_job_same_key(self):
        assert compile_job("towers", "risc1").key == compile_job("towers", "risc1").key

    def test_key_is_content_addressed_hex(self):
        key = compile_job("towers", "risc1").key
        assert len(key) == 64
        int(key, 16)  # valid hex

    def test_scale_changes_key(self):
        assert (
            compile_job("towers", "risc1", "default").key
            != compile_job("towers", "risc1", "bench").key
        )

    def test_target_changes_key(self):
        assert (
            compile_job("towers", "risc1").key != compile_job("towers", "cisc").key
        )

    def test_kind_and_config_change_key(self):
        keys = {
            compile_job("towers", "risc1").key,
            execute_job("towers", "risc1").key,
            execute_job("towers", "risc1", max_instructions=1000).key,
            ir_job("towers").key,
        }
        assert len(keys) == 4

    def test_version_stamp_changes_key(self, monkeypatch):
        before = compile_job("towers", "risc1").key
        try:
            monkeypatch.setattr(repro, "__version__", "999.0.0-test")
            jobs_mod.toolchain_fingerprint.cache_clear()
            after = compile_job("towers", "risc1").key
        finally:
            monkeypatch.undo()
            jobs_mod.toolchain_fingerprint.cache_clear()
        assert before != after

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            compile_job("no_such_workload", "risc1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            jobs_mod.Job("frobnicate", "towers", "risc1")

    def test_sweep_jobs_covers_grid(self):
        grid = sweep_jobs(workloads=["towers", "sed"], scale="default")
        kinds = [(j.kind, j.target) for j in grid]
        assert kinds.count(("compile", "risc1")) == 2
        assert kinds.count(("execute", "cisc")) == 2
        assert kinds.count(("ir", "risc1")) == 2


class TestStatsRoundTrip:
    def test_execution_stats_round_trip(self):
        stats = ExecutionStats(instructions=10, cycles=14)
        stats.by_opcode[Opcode.ADD] = 7
        stats.by_opcode[Opcode.CALL] = 3
        restored = ExecutionStats.from_dict(
            json.loads(json.dumps(stats.to_dict()))
        )
        assert restored == stats
        assert restored.by_opcode[Opcode.ADD] == 7

    def test_executed_result_round_trip(self, isolated_cache_dir):
        first, hit_first = run_job(execute_job("towers", "risc1"))
        again, hit_again = run_job(execute_job("towers", "risc1"))
        assert (hit_first, hit_again) == (False, True)
        assert again.to_dict() == first.to_dict()
        assert again.stats.by_opcode == first.stats.by_opcode

    def test_cisc_and_ir_round_trip(self, isolated_cache_dir):
        for job in (execute_job("towers", "cisc"), ir_job("towers")):
            cold, _ = run_job(job)
            warm, hit = run_job(job)
            assert hit
            assert warm.to_dict() == cold.to_dict()


class TestCacheCorruption:
    def test_truncated_pickle_recomputes(self, cache):
        job = compile_job("towers", "risc1")
        value, hit = run_job(job, cache)
        assert not hit
        path = cache.path_for(job.key, "pkl")
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        value2, hit2 = run_job(job, cache)
        assert not hit2
        assert cache.stats.corrupt == 1
        assert value2.assembly == value.assembly
        # the recomputed artifact was re-stored and is loadable again
        assert run_job(job, cache)[1]

    def test_garbage_json_recomputes(self, cache):
        job = execute_job("towers", "risc1")
        cold, _ = run_job(job, cache)
        cache.path_for(job.key, "json").write_bytes(b"{not json at all")
        warm, hit = run_job(job, cache)
        assert not hit
        assert cache.stats.corrupt >= 1
        assert warm.to_dict() == cold.to_dict()

    def test_wrong_payload_shape_recomputes(self, cache):
        job = ir_job("towers")
        run_job(job, cache)
        cache.store_json(job.key, {"type": "ir", "result": {"bogus": 1}})
        value, hit = run_job(job, cache)
        assert not hit
        assert value.counts.calls > 0

    def test_gc_evicts_everything_at_zero_budget(self, cache):
        run_job(compile_job("towers", "risc1"), cache)
        run_job(compile_job("sed", "risc1"), cache)
        assert len(cache.entries()) == 2
        evicted = cache.gc(max_bytes=0)
        assert len(evicted) == 2
        assert cache.entries() == []
        assert cache.stats.evictions == 2


class TestScheduler:
    WORKLOADS = ["towers", "string_search_e"]

    def test_parallel_equals_serial(self, tmp_path):
        grid = sweep_jobs(workloads=self.WORKLOADS, scale="default")
        serial_cache = ArtifactCache(tmp_path / "serial")
        parallel_cache = ArtifactCache(tmp_path / "parallel")
        serial = sweep(grid, workers=1, cache=serial_cache)
        parallel = sweep(grid, workers=2, cache=parallel_cache)
        assert serial.counts["failed"] == parallel.counts["failed"] == 0
        assert {o.key for o in serial.outcomes} == {o.key for o in parallel.outcomes}
        for job in grid:
            if job.kind == "compile":
                continue
            from_serial, _ = run_job(job, ArtifactCache(tmp_path / "serial"))
            from_parallel, _ = run_job(job, ArtifactCache(tmp_path / "parallel"))
            assert from_serial.to_dict() == from_parallel.to_dict()

    def test_compile_wave_precedes_runs(self):
        grid = sweep_jobs(workloads=self.WORKLOADS)
        waves = _job_waves(grid)
        assert len(waves) == 2
        assert {job.kind for job in waves[0]} == {"compile"}
        assert {job.kind for job in waves[1]} == {"execute", "ir"}

    def test_warm_sweep_has_zero_recomputes(self, tmp_path):
        grid = sweep_jobs(workloads=["towers"])
        cache_root = tmp_path / "warm"
        sweep(grid, workers=1, cache=ArtifactCache(cache_root))
        report = sweep(grid, workers=1, cache=ArtifactCache(cache_root))
        assert report.counts == {"hit": len(grid), "computed": 0, "failed": 0}

    def test_failed_job_is_reported_not_raised(self, cache, monkeypatch):
        monkeypatch.setitem(
            jobs_mod.ALL_WORKLOADS,
            "towers",
            jobs_mod.ALL_WORKLOADS["towers"].__class__(
                **{
                    **{
                        f.name: getattr(jobs_mod.ALL_WORKLOADS["towers"], f.name)
                        for f in jobs_mod.ALL_WORKLOADS["towers"].__dataclass_fields__.values()
                    },
                    "reference": lambda DISKS: "wrong output\n",
                }
            ),
        )
        report = sweep([execute_job("towers", "risc1")], workers=1, cache=cache)
        assert report.counts["failed"] == 1
        assert "AssertionError" in report.outcomes[0].error


class TestResultStore:
    def test_manifest_append_and_query(self, cache, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        grid = [compile_job("towers", "risc1"), execute_job("towers", "risc1")]
        sweep(grid, workers=1, cache=cache, store=store)
        sweep(grid, workers=1, cache=cache, store=store)
        records = store.records()
        assert len(records) == 2
        assert records[0]["schema"] == 1
        assert len(store.computed_jobs(records[0])) == 2
        assert store.computed_jobs(records[1]) == []
        assert store.hit_rate(records[1]) == 1.0

    def test_manifest_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"schema": 1, "jobs": []}\nnot json\n[1,2]\n')
        store = ResultStore(path)
        assert len(store.records()) == 1


class TestFarmCli:
    def test_run_status_gc_smoke(self, isolated_cache_dir, capsys):
        from repro.farm.cli import main

        assert main(["run", "--jobs", "2", "--format", "json",
                     "--workloads", "towers"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["failed"] == 0
        assert payload["counts"]["computed"] + payload["counts"]["hit"] == 5

        assert main(["status"]) == 0
        out = capsys.readouterr().out
        assert "artifacts" in out and "last run" in out

        assert main(["gc"]) == 0
        assert "evicted" in capsys.readouterr().out

    def test_run_rejects_unknown_workload(self, isolated_cache_dir, capsys):
        from repro.farm.cli import main

        assert main(["run", "--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestExperimentsCliFarmFlags:
    def test_list_flag(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "e1 " in out and "e16" in out

    def test_unknown_experiment_clear_error(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["e99"])
        assert excinfo.value.code != 0
        assert "unknown experiment" in capsys.readouterr().err

    def test_jobs_and_json_format(self, isolated_cache_dir, capsys):
        from repro.experiments.cli import main

        assert main(["--jobs", "2", "--format", "json", "e8"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert documents[0]["experiment"] == "e8"
        table = documents[0]["tables"][0]
        assert table["headers"][0] == "program"
        assert any(row[0] == "towers" for row in table["rows"])
