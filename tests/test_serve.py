"""The farm's HTTP front door: endpoints, dedupe, structured errors, drain.

Most tests run the server in-process (its own event loop on a daemon
thread, serial client — no forked workers needed to exercise the HTTP
contract).  The SIGTERM test boots the real ``python -m repro.farm
serve`` subprocess and asserts the drain behaviour end to end: in-flight
work finishes, the summary line is printed, exit code 0.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.farm import serve as farm_serve

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def server(tmp_path, monkeypatch):
    """An in-process serial-mode server; yields (server, base_url)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    started = threading.Event()
    holder = {}

    def ready(srv):
        holder["server"] = srv
        holder["loop"] = srv._server.get_loop()
        started.set()

    def runner():
        holder["summary"] = asyncio.run(
            farm_serve.run(port=0, workers=1, ready=ready)
        )

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(60), "serve did not come up"
    srv = holder["server"]
    yield srv, f"http://{srv.host}:{srv.port}", holder
    try:
        holder["loop"].call_soon_threadsafe(srv.request_shutdown)
    except RuntimeError:
        pass  # a test already drained the server and its loop is closed
    thread.join(60)
    assert not thread.is_alive()


def _request(base, method, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server):
        _, base, _ = server
        code, body = _request(base, "GET", "/healthz")
        assert code == 200
        assert body == {"ok": True, "draining": False}

    def test_submit_then_get(self, server):
        _, base, _ = server
        code, body = _request(base, "POST", "/jobs", {"workload": "towers"})
        assert code == 202
        assert body["schema"] == 1
        assert body["spec"]["workload"] == "towers"
        key = body["key"]
        code, status = _request(base, "GET", f"/jobs/{key}?wait=60")
        assert code == 200
        assert status["state"] == "done"
        assert status["status"] in ("computed", "hit")
        assert status["metrics"]["instructions"] > 0

    def test_batch_submission(self, server):
        _, base, _ = server
        code, body = _request(
            base, "POST", "/jobs",
            {"jobs": [{"workload": "towers"}, {"workload": "towers", "kind": "ir"}]},
        )
        assert code == 202
        assert len(body["jobs"]) == 2
        assert body["jobs"][0]["key"] != body["jobs"][1]["key"]

    def test_duplicate_specs_dispatch_once(self, server):
        srv, base, _ = server
        for _ in range(3):
            code, body = _request(base, "POST", "/jobs", {"workload": "sed"})
            assert code == 202
        assert srv.counters["specs_dispatched"] == 1
        deduped = (
            srv.counters["deduped_inflight"] + srv.counters["deduped_registry"]
        )
        assert deduped == 2
        assert body["deduped"] is True
        code, status_doc = _request(base, "GET", "/status")
        assert status_doc["server"]["dedupe_hit_rate"] > 0

    def test_unknown_job_is_404(self, server):
        _, base, _ = server
        code, body = _request(base, "GET", "/jobs/definitely-not-a-key")
        assert code == 404
        assert "error" in body

    def test_unknown_route_is_404(self, server):
        _, base, _ = server
        code, _ = _request(base, "GET", "/nope")
        assert code == 404

    def test_status_counters(self, server):
        srv, base, _ = server
        _request(base, "POST", "/jobs", {"workload": "towers"})
        code, body = _request(base, "GET", "/status")
        assert code == 200
        assert body["server"]["requests"] >= 2
        assert body["client"]["mode"] == "serial"
        assert body["server"]["server_errors"] == 0


class TestStructuredErrors:
    def test_bad_workload_is_structured_400(self, server):
        _, base, _ = server
        code, body = _request(base, "POST", "/jobs", {"workload": "not_real"})
        assert code == 400
        assert body["error"]["field"] == "workload"
        assert "not_real" in body["error"]["message"]
        assert "Traceback" not in json.dumps(body)

    def test_bad_param_grammar_is_structured_400(self, server):
        _, base, _ = server
        code, body = _request(base, "POST", "/jobs", {"workload": "sed:NOPE=3"})
        assert code == 400
        assert body["error"]["field"] == "workload"

    def test_unknown_field_is_structured_400(self, server):
        _, base, _ = server
        code, body = _request(
            base, "POST", "/jobs", {"workload": "towers", "workers": 4}
        )
        assert code == 400
        assert body["error"]["field"] == "workers"

    def test_malformed_json_body_is_400(self, server):
        _, base, _ = server
        request = urllib.request.Request(
            base + "/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert exc.value.code == 400

    def test_non_object_payload_is_400(self, server):
        _, base, _ = server
        code, body = _request(base, "POST", "/jobs", ["towers"])
        assert code == 400
        assert "error" in body


class TestInlineSource:
    """POST /jobs with fuzz-generated inline source (the ``source`` field)."""

    GOOD = "int main(void) { putint(6 * 7); return 0; }\n"
    BAD = "int main(void) { return undeclared_variable; }\n"

    def test_good_source_runs_end_to_end(self, server):
        _, base, _ = server
        code, body = _request(
            base, "POST", "/jobs",
            {"workload": "fuzz-demo", "source": self.GOOD},
        )
        assert code == 202
        code, status = _request(base, "GET", f"/jobs/{body['key']}?wait=60")
        assert code == 200
        assert status["state"] == "done"
        assert status["metrics"]["exit_code"] == 0

    def test_uncompilable_source_is_structured_400(self, server):
        srv, base, _ = server
        code, body = _request(
            base, "POST", "/jobs",
            {"workload": "fuzz-bad", "source": self.BAD},
        )
        assert code == 400
        assert body["error"]["field"] == "source"
        assert "does not compile" in body["error"]["message"]
        assert "Traceback" not in json.dumps(body)
        assert srv.counters["server_errors"] == 0

    def test_hex_literal_without_digits_is_structured_400(self, server):
        # once a ValueError out of the lexer, answered with a 500
        srv, base, _ = server
        code, body = _request(
            base, "POST", "/jobs",
            {"workload": "fuzz-hex", "source": "int main(){return 0x;}"},
        )
        assert code == 400
        assert body["error"]["field"] == "source"
        assert "hex literal" in body["error"]["message"]
        assert srv.counters["server_errors"] == 0

    def test_uncompilable_source_mid_batch_is_400_not_500(self, server):
        # a fuzz campaign POSTing a batch where one program fails RCC:
        # the whole POST must answer a structured 400, never a 500/hang
        srv, base, _ = server
        code, body = _request(
            base, "POST", "/jobs",
            {"jobs": [
                {"workload": "towers"},
                {"workload": "fuzz-bad", "source": self.BAD},
                {"workload": "qsort"},
            ]},
        )
        assert code == 400
        assert body["error"]["field"] == "source"
        assert srv.counters["server_errors"] == 0
        assert srv.counters["bad_requests"] == 1

    def test_empty_source_is_structured_400(self, server):
        _, base, _ = server
        code, body = _request(
            base, "POST", "/jobs", {"workload": "x", "source": "   "}
        )
        assert code == 400
        assert body["error"]["field"] == "source"

    def test_non_string_source_is_structured_400(self, server):
        _, base, _ = server
        code, body = _request(
            base, "POST", "/jobs", {"workload": "x", "source": 42}
        )
        assert code == 400
        assert body["error"]["field"] == "source"


class TestStreaming:
    def test_stream_emits_ndjson_until_terminal(self, server):
        _, base, _ = server
        code, body = _request(base, "POST", "/jobs", {"workload": "towers"})
        key = body["key"]
        with urllib.request.urlopen(
            f"{base}/jobs/{key}?stream=1&wait=60", timeout=60
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in response.read().splitlines()]
        assert lines, "stream produced no snapshots"
        assert lines[-1]["state"] == "done"
        assert all(snapshot["key"] == key for snapshot in lines)


def _read_http_response(fp):
    """One framed HTTP response off a raw socket file: (code, headers, body)."""
    status_line = fp.readline()
    if not status_line:
        return None, {}, None
    code = int(status_line.split()[1])
    headers = {}
    while True:
        line = fp.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = fp.read(int(headers.get("content-length", 0)))
    return code, headers, json.loads(body) if body else None


class TestKeepAlive:
    """HTTP/1.1 persistent connections: many requests over one socket."""

    def _connect(self, server):
        srv, _base, _holder = server
        sock = socket.create_connection((srv.host, srv.port), timeout=30)
        return sock, sock.makefile("rb")

    def test_two_requests_share_one_connection(self, server):
        srv, _base, _ = server
        sock, fp = self._connect(server)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            code, headers, body = _read_http_response(fp)
            assert code == 200 and body["ok"] is True
            assert headers["connection"] == "keep-alive"
            sock.sendall(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
            code, headers, body = _read_http_response(fp)
            assert code == 200 and "server" in body
            assert headers["connection"] == "keep-alive"
        finally:
            sock.close()

    def test_post_then_get_on_one_connection(self, server):
        sock, fp = self._connect(server)
        try:
            payload = json.dumps({"workload": "towers"}).encode()
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n"
                + payload
            )
            code, _headers, body = _read_http_response(fp)
            assert code == 202
            key = body["key"]
            sock.sendall(
                f"GET /jobs/{key}?wait=60 HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            code, _headers, body = _read_http_response(fp)
            assert code == 200
            assert body["state"] == "done"
        finally:
            sock.close()

    def test_connection_close_is_honored(self, server):
        sock, fp = self._connect(server)
        try:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            code, headers, _body = _read_http_response(fp)
            assert code == 200
            assert headers["connection"] == "close"
            assert fp.read() == b""  # server closed after the response
        finally:
            sock.close()

    def test_http10_without_keep_alive_closes(self, server):
        sock, fp = self._connect(server)
        try:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            code, headers, _body = _read_http_response(fp)
            assert code == 200
            assert headers["connection"] == "close"
            assert fp.read() == b""
        finally:
            sock.close()

    def test_requests_counter_counts_requests_not_connections(self, server):
        srv, _base, _ = server
        before = srv.counters["requests"]
        sock, fp = self._connect(server)
        try:
            for _ in range(3):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                code, _headers, _body = _read_http_response(fp)
                assert code == 200
        finally:
            sock.close()
        assert srv.counters["requests"] == before + 3

    def test_status_reports_operator_fields(self, server):
        _, base, _ = server
        code, body = _request(base, "GET", "/status")
        assert code == 200
        server_doc = body["server"]
        assert server_doc["uptime_s"] >= 0
        assert server_doc["jobs_in_flight"] == 0
        assert server_doc["open_connections"] >= 0
        assert body["client"]["workers"] == 1


class TestDrain:
    def test_sigterm_drains_in_flight_jobs(self, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH=REPO_SRC,
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.farm", "serve", "--port", "0",
             "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            cwd=str(tmp_path),
        )
        try:
            boot = json.loads(proc.stdout.readline())["serving"]
            base = f"http://{boot['host']}:{boot['port']}"
            code, body = _request(base, "POST", "/jobs", {"workload": "qsort"})
            assert code == 202
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 0, f"serve exited {proc.returncode}: {err}"
        drained = json.loads(out.strip().splitlines()[-1])["drained"]
        assert drained["ok"] is True
        assert drained["incomplete"] == 0

    def test_draining_server_rejects_new_posts(self, server):
        srv, base, holder = server
        holder["loop"].call_soon_threadsafe(srv.request_shutdown)
        # the loop processes the shutdown callback before the next request
        deadline = 50
        while not srv.draining and deadline:
            deadline -= 1
            import time

            time.sleep(0.1)
        assert srv.draining
