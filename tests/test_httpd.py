"""The one HTTP layer (``repro.httpd``) under both servers.

Each test boots the real ``python -m repro.farm serve`` and ``python -m
repro.obs dash`` processes: drain on SIGTERM must close idle keep-alive
connections promptly and quietly, and a malformed request head must get
a structured 400 — never a 500, a traceback or a silent close.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = ROOT / "benchmarks" / "ledger_seed"

SERVERS = {
    "serve": (["repro.farm", "serve", "--port", "0", "--jobs", "2"], "serving"),
    "dash": (
        ["repro.obs", "dash", "--port", "0", "--no-profile", "--ledger", str(SEED)],
        "dash",
    ),
}

MALFORMED = [
    b"GARBAGE\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
]


@pytest.fixture(params=sorted(SERVERS))
def booted(request, tmp_path):
    """A server subprocess; yields (name, proc, address)."""
    argv, banner_key = SERVERS[request.param]
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
    )
    env.pop("REPRO_LEDGER", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=str(tmp_path),
    )
    try:
        banner = json.loads(proc.stdout.readline())[banner_key]
        yield request.param, proc, (banner["host"], banner["port"])
    finally:
        if proc.poll() is None:  # a failed test: drain it (a kill orphans pool workers)
            proc.terminate()
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate(timeout=30)


def _read_response(fp):
    """(code, headers, body) of one framed response off a socket file."""
    status_line = fp.readline()
    assert status_line, "connection closed without a response"
    code = int(status_line.split()[1])
    headers = {}
    while True:
        line = fp.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = fp.read(int(headers.get("content-length", 0)))
    return code, headers, json.loads(body)


def _terminate(proc):
    """SIGTERM; returns (exit code, stdout, stderr, seconds to exit)."""
    started = time.monotonic()
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err, time.monotonic() - started


def test_sigterm_with_idle_keep_alive_connections_exits_cleanly(booted):
    _name, proc, address = booted
    idle = []
    for _ in range(2):
        sock = socket.create_connection(address, timeout=30)
        fp = sock.makefile("rb")
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        code, headers, _body = _read_response(fp)
        assert code == 200 and headers["connection"] == "keep-alive"
        idle.append((sock, fp))
    try:
        code, _out, err, seconds = _terminate(proc)
    finally:
        for sock, fp in idle:
            fp.close()
            sock.close()
    assert code == 0
    assert err == ""
    assert seconds < 5.0


def test_malformed_heads_get_structured_400(booted):
    name, proc, address = booted
    for raw in MALFORMED:
        with socket.create_connection(address, timeout=30) as sock:
            fp = sock.makefile("rb")
            sock.sendall(raw)
            code, headers, body = _read_response(fp)
            assert code == 400, raw
            assert body["error"]["message"]
            assert headers["connection"] == "close"
            assert fp.read() == b""  # closed after the answer, not left hanging
    if name == "serve":
        with socket.create_connection(address, timeout=30) as sock:
            fp = sock.makefile("rb")
            spec = b'{"workload": "towers"}'
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                % (len(spec), spec)
            )
            _code, _headers, job = _read_response(fp)
            sock.sendall(
                b"GET /jobs/%s?stream=1&wait=soon HTTP/1.1\r\nHost: x\r\n\r\n"
                % job["key"].encode()
            )
            code, _headers, body = _read_response(fp)
            assert code == 400 and "wait" in body["error"]["message"]
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
            _code, _headers, status = _read_response(sock.makefile("rb"))
        assert status["server"]["server_errors"] == 0
        assert status["server"]["bad_requests"] == len(MALFORMED)
    code, _out, err, _seconds = _terminate(proc)
    assert code == 0
    assert "Traceback" not in err
