"""``python -m repro.farm serve`` — the farm's async HTTP/JSON front door.

A zero-dependency asyncio server that exposes the :class:`FarmClient`
submission surface over HTTP so many concurrent clients (sweep drivers,
CI shards, notebook users) can share one warm worker pool and one
content-addressed cache:

* ``POST /jobs`` — submit one spec, or ``{"jobs": [spec, ...]}``.
  Responds ``202`` with one :class:`~repro.farm.api.JobStatus` document
  per spec.  Invalid specs get a structured ``400`` (the
  :class:`~repro.farm.api.SpecError` payload), never a traceback.
  Duplicate submissions are answered without re-dispatch: an in-flight
  key shares the existing future, a completed key is answered straight
  from the server's registry / the content-addressed cache.
* ``GET /jobs/<key>`` — the job's status document.  ``?wait=SECONDS``
  blocks until terminal (or the deadline), ``?stream=1`` streams
  newline-delimited status snapshots until the job finishes.
* ``GET /status`` — server counters plus the client/pool/cache state.
* ``GET /healthz`` — liveness (``draining`` flips during shutdown).

On boot the server prints one machine-readable line to stdout::

    {"serving": {"host": "127.0.0.1", "port": 8421, "workers": 4}}

``SIGTERM``/``SIGINT`` triggers a graceful drain: new ``POST``s get a
``503``, in-flight jobs run to completion, worker ledger shards merge
into the main ledger, and the process exits 0 after printing a final
``{"drained": ...}`` line.

The protocol layer — persistent HTTP/1.1 connections, head parsing,
the body cap, framing, drain — is :mod:`repro.httpd`, shared with the
operator dashboard; this module keeps only the farm's routes, registry
and dedupe.  Streaming responses (``?stream=1``) end their connection:
they have no length framing.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import json
import time

from repro import httpd
from repro.farm.api import FarmClient, FarmFuture, JobSpec, SpecError
from repro.httpd import json_response

__all__ = ["FarmServer", "main", "run"]

#: Default ceiling on a ``?wait=`` / ``?stream=`` long poll.
_MAX_WAIT_S = 300.0

#: Completed registry entries kept for ``GET /jobs/<key>`` answers.
_REGISTRY_LIMIT = 8192


def _ext_for(spec_dict: dict | None) -> str:
    """Artifact extension for a spec's cached result (compile = pickle)."""
    return "pkl" if (spec_dict or {}).get("kind") == "compile" else "json"


@dataclasses.dataclass
class _Entry:
    """One known job key: its farm future plus an asyncio-side event."""

    future: FarmFuture
    event: asyncio.Event


class FarmServer(httpd.HTTPServer):
    """The HTTP front door around one shared :class:`FarmClient`."""

    backlog = 2048

    def __init__(
        self,
        client: FarmClient,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout: float = 60.0,
        idle_timeout: float = httpd.IDLE_TIMEOUT_S,
    ):
        super().__init__(host, port, idle_timeout)
        self.client = client
        self.drain_timeout = drain_timeout
        self._started = time.monotonic()
        self.counters.update(
            specs_submitted=0,
            specs_dispatched=0,
            deduped_inflight=0,
            deduped_registry=0,
            cache_probe_hits=0,
        )
        self._registry: dict[str, _Entry] = {}
        #: keys claimed for dispatch but not yet in the registry — duplicate
        #: POSTs arriving in that window await the claimant instead of
        #: re-dispatching
        self._pending: dict[str, asyncio.Future] = {}
        self._lock = asyncio.Lock()
        # Submissions run off-loop: a serial client executes the job inside
        # submit(), and even the pool path does blocking queue writes.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(4, client.workers * 2), thread_name_prefix="farm-submit"
        )

    # -- registry ----------------------------------------------------------------

    def _remember(self, future: FarmFuture) -> _Entry:
        loop = asyncio.get_running_loop()
        entry = _Entry(future=future, event=asyncio.Event())
        future.add_done_callback(
            lambda _f: loop.call_soon_threadsafe(entry.event.set)
        )
        self._registry[future.job.key] = entry
        if len(self._registry) > _REGISTRY_LIMIT:
            for key in [
                k for k, e in self._registry.items() if e.event.is_set()
            ][: len(self._registry) - _REGISTRY_LIMIT]:
                del self._registry[key]
        return entry

    @staticmethod
    def _deduped_status(entry: _Entry) -> dict:
        status = entry.future.status()
        status.deduped = True
        return status.to_dict()

    async def _submit_spec(self, payload) -> dict:
        """One spec document -> one JobStatus document (deduped).

        The job key comes from the spec alone (an inline program's key
        hashes its text), so duplicates are answered from the registry or
        the in-flight claim before anything compiles; a new inline program
        compiles once, inside ``client.submit`` on the executor.
        """
        spec = JobSpec.from_dict(payload)  # SpecError -> 400 at the call site
        job = spec.to_job()
        self.counters["specs_submitted"] += 1
        loop = asyncio.get_running_loop()
        async with self._lock:
            entry = self._registry.get(job.key)
            if entry is not None:
                self.counters[
                    "deduped_registry" if entry.event.is_set() else "deduped_inflight"
                ] += 1
                return self._deduped_status(entry)
            waiter = self._pending.get(job.key)
            if waiter is None:
                # this coroutine owns the dispatch; duplicates await below
                self._pending[job.key] = loop.create_future()
                cache = self.client.cache
                if cache is not None and cache.contains(
                    job.key, _ext_for(spec.to_dict())
                ):
                    self.counters["cache_probe_hits"] += 1
            else:
                self.counters["deduped_inflight"] += 1
        if waiter is not None:
            entry = await asyncio.shield(waiter)
            return self._deduped_status(entry)
        self.counters["specs_dispatched"] += 1
        try:
            future = await loop.run_in_executor(
                self._executor, self.client.submit, spec
            )
        except BaseException as exc:
            async with self._lock:
                pending = self._pending.pop(job.key, None)
            if pending is not None and not pending.done():
                pending.set_exception(exc)
                pending.exception()  # consumed; awaiters re-raise their own copy
            raise
        async with self._lock:
            entry = self._remember(future)
            pending = self._pending.pop(job.key, None)
        if pending is not None and not pending.done():
            pending.set_result(entry)
        return entry.future.status().to_dict()

    # -- handlers ----------------------------------------------------------------

    async def _handle_post_jobs(self, body: bytes) -> tuple[int, dict]:
        if self.draining:
            return 503, {"error": {"message": "server is draining; retry elsewhere"}}
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            self.counters["bad_requests"] += 1
            return 400, {"error": {"message": "request body is not valid JSON"}}
        if isinstance(payload, dict) and isinstance(payload.get("jobs"), list):
            specs = payload["jobs"]
        elif isinstance(payload, dict):
            specs = [payload]
        else:
            self.counters["bad_requests"] += 1
            return 400, {
                "error": {
                    "message": "POST /jobs expects a spec object or {\"jobs\": [...]}"
                }
            }
        statuses = []
        for spec_payload in specs:
            try:
                statuses.append(await self._submit_spec(spec_payload))
            except SpecError as exc:
                self.counters["bad_requests"] += 1
                return 400, exc.payload
        return 202, {"jobs": statuses} if "jobs" in (payload or {}) else statuses[0]

    async def _handle_get_job(
        self, key: str, query: dict
    ) -> tuple[int, dict] | None:
        entry = self._registry.get(key)
        if entry is None:
            return 404, {"error": {"message": f"unknown job key {key!r}"}}
        wait_s = 0.0
        if "wait" in query:
            try:
                wait_s = min(float(query["wait"]), _MAX_WAIT_S)
            except ValueError:
                return 400, {"error": {"message": "wait must be a number of seconds"}}
        if wait_s > 0 and not entry.event.is_set():
            try:
                await asyncio.wait_for(entry.event.wait(), wait_s)
            except asyncio.TimeoutError:
                pass
        return 200, entry.future.status().to_dict()

    async def _stream_job(self, writer: asyncio.StreamWriter, key: str, query: dict):
        """``?stream=1``: newline-delimited status snapshots until terminal.

        Returns a framed response only when there is nothing to stream."""
        entry = self._registry.get(key)
        if entry is None:
            return json_response(
                404, {"error": {"message": f"unknown job key {key!r}"}}, keep_alive=False
            )
        try:
            wait_s = min(float(query.get("wait", _MAX_WAIT_S) or _MAX_WAIT_S), _MAX_WAIT_S)
        except ValueError:
            return json_response(
                400, {"error": {"message": "wait must be a number of seconds"}},
                keep_alive=False,
            )
        deadline = asyncio.get_running_loop().time() + wait_s
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        last = None
        while True:
            snapshot = entry.future.status().to_dict()
            if snapshot != last:
                writer.write(json.dumps(snapshot, sort_keys=True).encode() + b"\n")
                await writer.drain()
                last = snapshot
            if entry.event.is_set():
                break
            if asyncio.get_running_loop().time() >= deadline:
                break
            try:
                await asyncio.wait_for(entry.event.wait(), 0.2)
            except asyncio.TimeoutError:
                pass

    def _status_payload(self) -> dict:
        submitted = self.counters["specs_submitted"]
        deduped = (
            self.counters["deduped_inflight"] + self.counters["deduped_registry"]
        )
        return {
            "server": {
                **self.counters,
                "draining": self.draining,
                "registry_size": len(self._registry),
                "dedupe_hit_rate": round(deduped / submitted, 6) if submitted else 0.0,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "jobs_in_flight": sum(
                    1 for e in self._registry.values() if not e.event.is_set()
                ),
                "open_connections": len(self._connections),
            },
            "client": self.client.status(),
        }

    # -- routes ------------------------------------------------------------------

    async def handle(self, request: httpd.Request, writer: asyncio.StreamWriter):
        method, path = request.method, request.path
        if method == "GET" and path == "/healthz":
            return json_response(200, {"ok": True, "draining": self.draining})
        if method == "GET" and path == "/status":
            return json_response(200, self._status_payload())
        if method == "GET" and path.startswith("/jobs/"):
            key = path[len("/jobs/"):]
            if request.query.get("stream") in ("1", "true"):
                # ndjson has no length framing; the stream ends the connection
                return await self._stream_job(writer, key, request.query)
            return json_response(*await self._handle_get_job(key, request.query))
        if method == "POST" and path == "/jobs":
            return json_response(*await self._handle_post_jobs(request.body))
        return json_response(
            404 if method in ("GET", "POST") else 405,
            {"error": {"message": f"no route for {method} {path}"}},
        )

    # -- lifecycle ---------------------------------------------------------------

    def banner(self) -> dict:
        return {
            "serving": {
                "host": self.host,
                "port": self.port,
                "workers": self.client.workers,
                "mode": self.client.mode,
            }
        }

    async def drain(self) -> dict:
        """Wait out in-flight jobs, then fold worker shards into the ledger."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        waited = 0
        for entry in list(self._registry.values()):
            if entry.event.is_set():
                continue
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(entry.event.wait(), remaining)
                waited += 1
            except asyncio.TimeoutError:
                break
        await loop.run_in_executor(
            self._executor, self.client.drain, max(0.0, deadline - loop.time())
        )
        await loop.run_in_executor(self._executor, self.client.close)
        incomplete = sum(
            1 for entry in self._registry.values() if not entry.event.is_set()
        )
        return {"waited_jobs": waited, "incomplete": incomplete, "ok": incomplete == 0}

    async def serve_until_shutdown(self) -> dict:
        """Run until :meth:`request_shutdown`, then drain; returns the summary."""
        summary = await super().serve_until_shutdown()
        self._executor.shutdown(wait=False)
        return summary


async def run(
    host: str = "127.0.0.1",
    port: int = 8421,
    workers: int = 1,
    batch_size: int | None = None,
    drain_timeout: float = 60.0,
    ready=None,
) -> dict:
    """Start a server, install signal handlers, serve until drained.

    ``ready(server)`` — if given — is called once listening (used by the
    in-process load tests to learn the ephemeral port).
    """
    client = FarmClient(workers=workers, batch_size=batch_size)
    # Fork the pool BEFORE the listening socket exists: workers must never
    # inherit client connections (a forked duplicate of an accepted socket
    # would hold it open past our close, stalling EOF-delimited readers).
    client._ensure_pool()
    server = FarmServer(client, host=host, port=port, drain_timeout=drain_timeout)
    summary = await httpd.serve(server, ready)
    print(json.dumps({"drained": summary}, sort_keys=True), flush=True)
    return summary


def main(args) -> int:
    """The ``python -m repro.farm serve`` entry point (argparse namespace)."""
    summary = asyncio.run(
        run(
            host=args.host,
            port=args.port,
            workers=args.jobs,
            batch_size=getattr(args, "batch_size", None),
            drain_timeout=args.drain_timeout,
        )
    )
    return 0 if summary.get("ok", False) else 1
