"""The one HTTP/1.1 layer under ``repro.farm serve`` and ``repro.obs dash``.

A zero-dependency asyncio server.  An application subclasses
:class:`HTTPServer`, keeps its routes and state, and answers each parsed
:class:`Request` in :meth:`HTTPServer.handle`.  This module owns the rest:

* request-head parsing — a malformed request line or ``Content-Length``
  gets a structured ``400``, never a ``500`` or a silent close;
* persistent connections (the HTTP/1.1 default; HTTP/1.0 only with
  ``Connection: keep-alive``), closed on ``Connection: close``, a
  protocol error, or :data:`IDLE_TIMEOUT_S` without a next request;
* the request-body cap (:data:`MAX_BODY`);
* response framing;
* the ``500`` answer for a handler bug;
* connection tracking, SIGTERM/SIGINT installation (:func:`serve`) and
  drain: on shutdown the listener stops, the application's
  :meth:`HTTPServer.drain` finishes in-flight work, idle connections are
  closed at once and busy ones get :data:`DRAIN_GRACE_S` to answer.

Error bodies written by this layer are ``{"error": {"message": ...}}``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
from http import HTTPStatus

__all__ = [
    "DRAIN_GRACE_S",
    "HTTPServer",
    "IDLE_TIMEOUT_S",
    "MAX_BODY",
    "MAX_HEAD",
    "Request",
    "Response",
    "json_response",
    "serve",
]

#: Cap on one request head (the stream reader's buffer limit).
MAX_HEAD = 64 * 1024
#: Cap on one request body; both servers take tiny JSON documents or none.
MAX_BODY = 1024 * 1024
#: A keep-alive connection with no next request within this window is
#: closed (frees sockets held by clients that wandered off).
IDLE_TIMEOUT_S = 75.0
#: How long a drain lets a connection that is mid-request finish.
DRAIN_GRACE_S = 5.0

class _BadRequest(Exception):
    """A request head this layer refuses; the message is the 400 body."""


@dataclasses.dataclass
class Request:
    method: str
    path: str
    query: dict[str, str]
    body: bytes
    keep_alive: bool


@dataclasses.dataclass
class Response:
    code: int
    body: bytes
    content_type: str = "application/json"
    #: False ends the connection after this response
    keep_alive: bool = True


def json_response(code: int, payload, keep_alive: bool = True) -> Response:
    """A JSON response with sorted keys (stable bytes for equal payloads)."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return Response(code, body, keep_alive=keep_alive)


def _error(code: int, message: str) -> Response:
    return json_response(code, {"error": {"message": message}}, keep_alive=False)


class HTTPServer:
    """Keep-alive HTTP/1.1 over asyncio streams; subclasses add routes."""

    #: extra header lines (each ending ``\\r\\n``) on every response
    extra_headers = ""
    #: listen backlog
    backlog = 100

    def __init__(self, host: str, port: int, idle_timeout: float = IDLE_TIMEOUT_S):
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self.draining = False
        self.counters = {"requests": 0, "bad_requests": 0, "server_errors": 0}
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        #: open connections (handler task -> writer) and the idle subset,
        #: waiting for their next request head
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.Task] = set()

    # -- the application's part ------------------------------------------

    async def handle(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response | None:
        """Answer one request.  ``None`` means the handler wrote its own
        unframed response to ``writer`` and the connection ends."""
        raise NotImplementedError

    async def drain(self):
        """Finish in-flight work once no new connection is accepted; the
        result is what :meth:`serve_until_shutdown` returns."""
        return None

    def banner(self) -> dict:
        """The one JSON line :func:`serve` prints once listening."""
        raise NotImplementedError

    # -- protocol ------------------------------------------------------------

    def _frame(self, response: Response, keep_alive: bool) -> bytes:
        return (
            f"HTTP/1.1 {response.code} {HTTPStatus(response.code).phrase}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"{self.extra_headers}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("ascii") + response.body

    async def _read_request(self, reader: asyncio.StreamReader, head: bytes) -> Request:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ", 2)
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {request_line[:80]!r}")
        method, target, version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close"
            if version.strip() == "HTTP/1.1"
            else connection == "keep-alive"
        )
        length = headers.get("content-length", "") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _BadRequest("Content-Length must be a non-negative integer")
        size = int(length)
        if size > MAX_BODY:
            # the unread body makes the socket unusable for a next request
            raise _BadRequest("request body too large")
        body = b""
        if size:
            body = await asyncio.wait_for(reader.readexactly(size), self.idle_timeout)
        path, _, query_string = target.partition("?")
        query = {}
        for pair in query_string.split("&"):
            if pair:
                name, _, value = pair.partition("=")
                query[name] = value
        return Request(method, path, query, body, keep_alive)

    async def _serve_requests(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        while not self.draining:
            self._idle.add(task)
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), self.idle_timeout
                )
            except asyncio.LimitOverrunError:
                self.counters["bad_requests"] += 1
                writer.write(self._frame(_error(400, "request head too large"), False))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, asyncio.TimeoutError, OSError):
                return  # the client left, or idled past the timeout
            finally:
                self._idle.discard(task)
            self.counters["requests"] += 1
            keep_alive = False
            try:
                request = await self._read_request(reader, head)
            except _BadRequest as exc:
                self.counters["bad_requests"] += 1
                response = _error(400, str(exc))
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                return  # the body never arrived in full
            else:
                try:
                    response = await self.handle(request, writer)
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                except Exception as exc:  # a handler bug must answer 500, not hang
                    self.counters["server_errors"] += 1
                    response = _error(500, f"{type(exc).__name__}: {exc}")
                if response is None:
                    return
                keep_alive = response.keep_alive and request.keep_alive
            writer.write(self._frame(response, keep_alive))
            await writer.drain()
            if not keep_alive:
                return

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            await self._serve_requests(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            # the peer reset, or drain cancelled a connection that outlived
            # its grace: close quietly.  This task is the connection, so
            # nothing awaits the cancellation, and a connection task that
            # ends cancelled makes Python 3.11's stream callback print a
            # traceback.
            pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, Exception):
                pass

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._connection, self.host, self.port, limit=MAX_HEAD, backlog=self.backlog
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        self.draining = True
        self._shutdown.set()

    async def serve_until_shutdown(self):
        """Serve until :meth:`request_shutdown`, then drain every layer."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.start_serving()
            await self._shutdown.wait()
            self._server.close()  # stop accepting
            result = await self.drain()
            await self._close_connections()
        return result

    async def _close_connections(self) -> None:
        for task, writer in list(self._connections.items()):
            if task in self._idle:
                writer.close()  # its pending read ends as a clean EOF
        tasks = list(self._connections)
        if not tasks:
            return
        _done, late = await asyncio.wait(tasks, timeout=DRAIN_GRACE_S)
        for task in late:
            task.cancel()
        if late:
            await asyncio.wait(late)


async def serve(server: HTTPServer, ready=None):
    """Start ``server``, print its banner, serve until SIGTERM/SIGINT.

    Returns the drain result.  ``ready(server)`` — if given — is called
    once listening (in-process tests use it to learn the ephemeral port).
    """
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    print(json.dumps(server.banner(), sort_keys=True), flush=True)
    if ready is not None:
        ready(server)
    return await server.serve_until_shutdown()
