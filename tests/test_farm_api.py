"""The unified submission API: specs, statuses, futures, the client.

``repro.farm.api`` is the farm's one front door — everything here is
contract: the versioned JSON round-trips the HTTP server and manifests
rely on, structured validation errors (never tracebacks), in-flight
dedupe, and the sweep manifest.
"""

import pytest

from repro.core.api import RunResult
from repro.farm.api import (
    API_SCHEMA_VERSION,
    FarmClient,
    JobFailed,
    JobSpec,
    JobStatus,
    SpecError,
    shared_client,
)
from repro.farm.cache import ArtifactCache
from repro.farm.jobs import execute_job


class TestJobSpec:
    def test_round_trips_through_json_dict(self):
        spec = JobSpec(workload="towers", kind="execute", target="risc1")
        payload = spec.to_dict()
        assert payload["schema"] == API_SCHEMA_VERSION
        assert JobSpec.from_dict(payload) == spec

    def test_spec_grammar_reaches_the_job_key(self):
        plain = JobSpec(workload="sed").to_job()
        tuned = JobSpec(workload="sed:REPS=2").to_job()
        assert plain.key != tuned.key
        assert tuned.params == (("REPS", 2),)
        # overriding a parameter to its default value shares the artifact
        assert JobSpec(workload="sed:REPS=5").to_job().key == plain.key

    def test_from_job_rebuilds_the_spec_string(self):
        job = JobSpec(workload="sed:REPS=2", kind="execute").to_job()
        spec = JobSpec.from_job(job)
        assert spec.workload == "sed:REPS=2"
        assert spec.to_job().key == job.key

    def test_unknown_workload_is_a_spec_error(self):
        with pytest.raises(SpecError) as exc:
            JobSpec(workload="not_a_workload").validate()
        payload = exc.value.payload
        assert payload["error"]["field"] == "workload"
        assert "not_a_workload" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "field,value",
        [("kind", "transmogrify"), ("target", "pdp11"), ("scale", "enormous")],
    )
    def test_bad_enum_fields_are_spec_errors(self, field, value):
        spec = JobSpec(workload="towers", **{field: value})
        with pytest.raises(SpecError) as exc:
            spec.validate()
        assert exc.value.payload["error"]["field"] == field
        assert exc.value.payload["error"]["value"] == value

    def test_from_dict_rejects_unknown_fields_and_schemas(self):
        with pytest.raises(SpecError) as exc:
            JobSpec.from_dict({"workload": "towers", "color": "red"})
        assert exc.value.payload["error"]["field"] == "color"
        with pytest.raises(SpecError):
            JobSpec.from_dict({"workload": "towers", "schema": 99})
        with pytest.raises(SpecError):
            JobSpec.from_dict(["towers"])
        with pytest.raises(SpecError):
            JobSpec.from_dict({"workload": "towers", "max_instructions": "lots"})


class TestJobStatus:
    def test_round_trips(self):
        status = JobStatus(
            key="ab" * 32,
            state="done",
            status="computed",
            wall_s=1.25,
            worker="pool:0",
            metrics={"cycles": 42},
        )
        payload = status.to_dict()
        assert payload["schema"] == API_SCHEMA_VERSION
        assert JobStatus.from_dict(payload) == status


class TestFarmClient:
    def test_serial_submit_returns_value(self, tmp_path):
        with FarmClient(workers=1, cache=ArtifactCache(tmp_path)) as client:
            future = client.submit(JobSpec(workload="towers"))
            result = future.result(timeout=120)
        assert isinstance(result, RunResult)
        status = future.status()
        assert status.state == "done"
        assert status.status == "computed"
        assert status.worker == "serial"
        assert status.metrics["instructions"] > 0

    def test_submit_accepts_spec_strings_and_raw_jobs(self, tmp_path):
        with FarmClient(workers=1, cache=ArtifactCache(tmp_path)) as client:
            by_string = client.submit("towers")
            by_job = client.submit(execute_job("towers", "risc1"))
        assert by_string.job.key == by_job.job.key

    def test_completed_duplicate_is_a_cache_hit(self, tmp_path):
        with FarmClient(workers=1, cache=ArtifactCache(tmp_path)) as client:
            first = client.submit("towers")
            first.result(timeout=120)
            second = client.submit("towers")
            second.result(timeout=120)
        assert first.status().status == "computed"
        assert second.status().status == "hit"

    def test_pool_submit_dedupes_in_flight(self, tmp_path):
        with FarmClient(workers=2, cache=ArtifactCache(tmp_path)) as client:
            first = client.submit("towers")
            second = client.submit("towers")  # still in flight: same future
            assert second is first
            assert client.dedupe_hits == 1
            assert first.result(timeout=120).exit_code == 0
        assert first.status().deduped

    def test_failed_job_raises_job_failed(self, tmp_path, monkeypatch):
        # an impossible instruction budget makes the run fail deterministically
        with FarmClient(workers=1, cache=ArtifactCache(tmp_path)) as client:
            spec = JobSpec(workload="towers", max_instructions=1)
            future = client.submit(spec)
            with pytest.raises(JobFailed) as exc:
                future.result(timeout=120)
        assert exc.value.status.state == "failed"
        assert exc.value.status.error

    def test_invalid_spec_raises_before_submission(self, tmp_path):
        with FarmClient(workers=1, cache=ArtifactCache(tmp_path)) as client:
            with pytest.raises(SpecError):
                client.submit(JobSpec(workload="towers", kind="nope"))

    def test_closed_client_refuses_submissions(self, tmp_path):
        client = FarmClient(workers=1, cache=ArtifactCache(tmp_path))
        client.close()
        with pytest.raises(RuntimeError):
            client.submit("towers")

    def test_status_payload_shape(self, tmp_path):
        with FarmClient(workers=1, cache=ArtifactCache(tmp_path)) as client:
            client.submit("towers").result(timeout=120)
            payload = client.status()
        assert payload["mode"] == "serial"
        assert payload["workers"] == 1
        assert payload["cache"]["stores"] >= 1


class TestSweep:
    def test_sweep_writes_manifest(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with FarmClient(workers=1, cache=cache) as client:
            client.sweep([execute_job("towers", "risc1")])
        assert (cache.root / "runs.jsonl").exists()


class TestSharedClient:
    def test_shared_client_is_process_wide_and_grows(self):
        first = shared_client()
        assert shared_client() is first
        bigger = shared_client(workers=max(first.workers, 1))
        assert bigger.workers >= first.workers
