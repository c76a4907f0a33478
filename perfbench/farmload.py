"""The serve round: one ``python -m repro.farm serve`` process, start to drain.

Each round boots a server on a fresh cache directory, sends the cold specs
and then the warm repeats (the stages of ``corpus.traffic``) over two
keep-alive connections (closed loop: a connection sends its next request
when its previous job reached a terminal state), checks every finished
job's artifact in the cache directory against the reference, reads
``GET /status`` and ends the server with SIGTERM while both connections
are still open.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from calib import Calibrator

#: Longest a request may wait for its job (seconds).
_WAIT_S = 120


@dataclasses.dataclass
class JobSample:
    stage: str  # "cold" | "warm"
    spec: object  # corpus.Spec
    latency_s: float = 0.0
    #: calibration factor (see calib.py)
    factor: float = 1.0
    #: the job's last JobStatus document
    status: dict | None = None
    error: str | None = None
    #: operation id of the job's spans
    op: int = 0


@dataclasses.dataclass
class ServeRound:
    samples: list[JobSample] = dataclasses.field(default_factory=list)
    #: wall time of all the traffic stages
    traffic_s: float = 0.0
    #: the ``server`` block of ``GET /status`` after the traffic
    counters: dict = dataclasses.field(default_factory=dict)
    #: (operation name, list of error strings) per checked operation
    ops: list[tuple[str, list[str]]] = dataclasses.field(default_factory=list)


class _Connection:
    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=_WAIT_S + 30)

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read() or b"null")

    def close(self) -> None:
        self.conn.close()


def _run_job(conn: _Connection, spec, stage: str, tracer) -> JobSample:
    """POST one spec and wait until its job is done or failed."""
    span = tracer.span
    started = time.perf_counter()
    with span("serve.post_" + spec.form):
        code, status = conn.request("POST", "/jobs", spec.body)
    error = None if code == 202 else f"POST returned {code}: {status}"
    if error is None and status.get("state") not in ("done", "failed"):
        with span("serve.wait"):
            code, status = conn.request("GET", f"/jobs/{status['key']}?wait={_WAIT_S}")
        if code != 200:
            error = f"GET /jobs returned {code}"
    latency = time.perf_counter() - started
    if error is None and status.get("state") != "done":
        error = f"job ended {status.get('state')}: {status.get('error')}"
    return JobSample(stage, spec, latency, status=status, error=error)


def _drive(conns: list[_Connection], specs, stage: str, concurrent: bool, tracer,
           op_ids) -> list[JobSample]:
    """Send ``specs`` round-robin over the connections, each request after
    the previous one on its connection finished (closed loop).

    ``concurrent`` runs one client thread per connection, and the stage is
    calibrated as a whole while no request is in flight: a calibration loop
    in one client thread would hold the GIL while the other thread's
    response waits.  Otherwise one thread alternates between the
    connections, one request at a time, with a calibration sample between
    requests.
    """
    lanes = len(conns) if concurrent else 1
    results: list[list[JobSample]] = [[] for _ in range(lanes)]
    calibrator = Calibrator()

    def client(lane: int) -> None:
        for index in range(lane, len(specs), lanes):
            spec, conn = specs[index], conns[index % len(conns)]
            op = next(op_ids)
            with tracer.span("serve.job", op=op):
                try:
                    sample = _run_job(conn, spec, stage, tracer)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    sample = JobSample(stage, spec, error=f"{type(exc).__name__}: {exc}")
            sample.op = op
            if not concurrent:
                sample.factor = calibrator.bracket()
            results[lane].append(sample)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(lanes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = [sample for lane in results for sample in lane]
    if concurrent:
        factor = calibrator.bracket()
        for sample in samples:
            sample.factor = factor
    return samples


def _artifact_errors(cache_dir: Path, sample: JobSample) -> list[str]:
    """Read the job's result from the cache directory and check it."""
    if sample.error:
        return [sample.error]
    key = sample.status["key"]
    path = cache_dir / "objects" / key[:2] / f"{key}.json"
    try:
        payload = json.loads(path.read_text())
        output = payload["result"]["output"]
        exit_code = payload["result"]["exit_code"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{sample.spec.body['workload']}: artifact unreadable: {exc}"]
    expected = sample.spec.program.expected
    errors = []
    if output != expected:
        errors.append(f"{sample.spec.body['workload']}: served output {output[:60]!r} "
                      f"!= reference {expected[:60]!r}")
    if exit_code != 0:
        errors.append(f"{sample.spec.body['workload']}: served exit {exit_code} != 0")
    if sample.stage == "warm" and not sample.status.get("deduped"):
        errors.append(f"{sample.spec.body['workload']}: repeat was not deduplicated")
    return errors


def serve_round(root: Path, work_dir: Path, workers: int, stages, tracer,
                op_ids) -> ServeRound:
    """Boot, load, check and drain one server; returns the measurements."""
    out = ServeRound()
    cache_dir = work_dir / f"cache-{os.getpid()}-{next(op_ids)}"
    env = dict(os.environ)
    for name in ("REPRO_LEDGER", "REPRO_ENGINE", "REPRO_FARM_CACHE"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    with tracer.span("serve.boot", op=next(op_ids)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.farm", "serve", "--port", "0",
             "--jobs", str(workers)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
    conns: list[_Connection] = []
    try:
        try:
            info = json.loads(line)["serving"]
        except (ValueError, KeyError, TypeError):
            proc.kill()
            _, err = proc.communicate(timeout=60)
            out.ops.append(("boot", [f"server did not start: {line!r} {err[-500:]!r}"]))
            return out
        conns = [_Connection(info["host"], info["port"]) for _ in range(2)]
        with tracer.span("http.healthz", op=next(op_ids)):
            code, health = conns[0].request("GET", "/healthz")
        out.ops.append(("healthz", [] if code == 200 and health.get("ok") else
                        [f"GET /healthz returned {code}: {health}"]))

        started = time.perf_counter()
        for stage, specs, concurrent in stages:
            out.samples += _drive(conns, specs, stage, concurrent, tracer, op_ids)
        out.traffic_s = time.perf_counter() - started
        for sample in out.samples:
            out.ops.append(("job", _artifact_errors(cache_dir, sample)))

        code, status = conns[0].request("GET", "/status")
        server = (status or {}).get("server", {})
        out.counters = server
        errors = [] if code == 200 else [f"GET /status returned {code}"]
        for name in ("bad_requests", "server_errors"):
            if server.get(name, -1) != 0:
                errors.append(f"GET /status reports {name}={server.get(name)}")
        out.ops.append(("status", errors))

        # SIGTERM with both keep-alive connections still open
        with tracer.span("serve.drain", op=next(op_ids)):
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=90)
        out.ops.append(("drain", _drain_errors(proc.returncode, stdout, stderr)))
    finally:
        for conn in conns:
            conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=60)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def _drain_errors(returncode: int, stdout: str, stderr: str) -> list[str]:
    errors = []
    if returncode != 0:
        errors.append(f"server exited {returncode}")
    drained = None
    for line in stdout.splitlines():
        try:
            drained = json.loads(line).get("drained", drained)
        except ValueError:
            pass
    if not drained or not drained.get("ok"):
        errors.append(f"drain summary {drained!r} is not ok")
    if "Traceback" in stderr:
        tail = stderr.strip().splitlines()
        errors.append(f"server wrote a {len(tail)}-line traceback ending {tail[-1]!r}")
    return errors
