"""The asyncio HTTP/1.1 front end of the scheduling service.

A deliberately small, dependency-free server: requests are parsed off
:class:`asyncio.StreamReader` (request line, headers, Content-Length
body), responses are JSON documents, and connections are keep-alive
until the client closes or asks otherwise.  Endpoints:

=========  ===========================  =====================================
method     path                         action
=========  ===========================  =====================================
``GET``    ``/v1/healthz``              liveness probe
``GET``    ``/v1/stats``                service counters snapshot
``POST``   ``/v1/jobs``                 submit a job or a burst of jobs
``GET``    ``/v1/jobs/<id>``            query one job's decision/status
``GET``    ``/v1/budget``               current service budget
``POST``   ``/v1/budget``               update the service budget
``GET``    ``/v1/telemetry/stream``     server-sent-events telemetry feed
=========  ===========================  =====================================

:class:`ServeDaemon` ties the server to a
:class:`~repro.serve.coalescer.BurstCoalescer` and exposes two run
styles: :meth:`ServeDaemon.run` blocks the calling thread (the CLI),
and :meth:`ServeDaemon.start_in_thread` / :meth:`ServeDaemon.shutdown`
host the whole daemon on a background thread with its own event loop
(the load generator, the contract tests, and embedding applications).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time

from repro.errors import AdmissionError, ServeError
from repro.serve.coalescer import BurstCoalescer
from repro.serve.service import DEFAULT_TENANT, SchedulerService

__all__ = ["ServeDaemon"]

_MAX_HEADERS = 100
_MAX_BODY = 16 * 1024 * 1024
#: How long a ``wait=true`` submission may block on its decision.
_DECISION_TIMEOUT_S = 60.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """Malformed HTTP or JSON; turned into a 400 response."""


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self) -> dict:
        """The body parsed as a JSON object."""
        if not self.body:
            raise _BadRequest("empty body (expected JSON)")
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"bad JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _BadRequest("JSON body must be an object")
        return payload


def _parse_query(raw: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in raw.split("&"):
        if part:
            key, _, value = part.partition("=")
            out[key] = value
    return out


class ServeDaemon:
    """The ``clip-sched serve`` daemon: HTTP front end + coalescer."""

    def __init__(
        self,
        service: SchedulerService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        window_s: float = 0.0,
        max_burst: int = 512,
    ):
        self._service = service
        self._host = host
        self._requested_port = port
        self.port: int | None = None  # bound port, set on start
        self._coalescer = BurstCoalescer(
            service, window_s=window_s, max_burst=max_burst
        )
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._stopping = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    @property
    def service(self) -> SchedulerService:
        """The wrapped service (shared scheduler, records, stats)."""
        return self._service

    # -- lifecycle -----------------------------------------------------

    async def _serve(self, ready: threading.Event | None = None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._stopping = False
        if threading.current_thread() is threading.main_thread():
            # let `kill -TERM` stop the CLI daemon as gracefully as
            # Ctrl-C does (thread-hosted daemons use shutdown() instead)
            try:
                self._loop.add_signal_handler(
                    signal.SIGTERM, self._stop_event.set
                )
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal handlers
        try:
            self._coalescer.start()
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._requested_port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as exc:
            self._startup_error = exc
            if ready is not None:
                ready.set()
            raise
        if ready is not None:
            ready.set()
        try:
            await self._stop_event.wait()
        finally:
            self._stopping = True
            self._server.close()
            await self._server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )
            await self._coalescer.stop()

    def run(self) -> None:
        """Serve on the calling thread until interrupted (the CLI)."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass

    def start_in_thread(self, timeout: float = 60.0) -> "ServeDaemon":
        """Start the daemon on a background thread; return once the
        socket is bound (``self.port`` holds the ephemeral port)."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve(ready)),
            name="clip-serve",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise ServeError("daemon did not start in time")
        if self._startup_error is not None:
            raise ServeError(f"daemon failed to start: {self._startup_error}")
        return self

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop a thread-hosted daemon and join its thread."""
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise ServeError("daemon did not shut down in time")
            self._thread = None

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while not self._stopping:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (
            asyncio.CancelledError,
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            pass
        except _BadRequest as exc:
            # unparseable framing: answer if the pipe still works, drop
            try:
                await self._respond(writer, 400, {"error": str(exc)}, False)
            except ConnectionError:
                pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader) -> _Request | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError as exc:
            raise _BadRequest(f"bad request line {line!r}") from exc
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers")
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError as exc:
                raise _BadRequest("bad Content-Length") from exc
            if n < 0:
                raise _BadRequest("bad Content-Length")
            if n > _MAX_BODY:
                raise _BadRequest("body too large")
            body = await reader.readexactly(n)
        path, _, query = target.partition("?")
        return _Request(
            method.upper(), path, _parse_query(query), headers, body
        )

    async def _respond(
        self, writer, status: int, payload: dict, keep_alive: bool
    ) -> None:
        body = (json.dumps(payload) + "\n").encode()
        writer.write(
            (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _dispatch(self, request: _Request, writer) -> bool:
        keep_alive = (
            request.headers.get("connection", "keep-alive").lower() != "close"
        )
        method, path = request.method, request.path
        try:
            if path == "/v1/healthz":
                if method != "GET":
                    return await self._method_not_allowed(writer, keep_alive)
                await self._respond(writer, 200, {"ok": True}, keep_alive)
            elif path == "/v1/stats":
                if method != "GET":
                    return await self._method_not_allowed(writer, keep_alive)
                await self._respond(
                    writer, 200, self._service.stats(), keep_alive
                )
            elif path == "/v1/budget":
                if method == "GET":
                    await self._respond(
                        writer,
                        200,
                        {"budget_w": self._service.budget_w},
                        keep_alive,
                    )
                elif method == "POST":
                    payload = request.json()
                    if "budget_w" not in payload:
                        raise _BadRequest("missing budget_w")
                    new = self._service.update_budget(payload["budget_w"])
                    await self._respond(
                        writer, 200, {"budget_w": new}, keep_alive
                    )
                else:
                    return await self._method_not_allowed(writer, keep_alive)
            elif path == "/v1/jobs":
                if method != "POST":
                    return await self._method_not_allowed(writer, keep_alive)
                await self._submit(request, writer, keep_alive)
            elif path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/outcome"):
                    if method != "POST":
                        return await self._method_not_allowed(
                            writer, keep_alive
                        )
                    await self._record_outcome(
                        rest[: -len("/outcome")], request, writer, keep_alive
                    )
                else:
                    if method != "GET":
                        return await self._method_not_allowed(
                            writer, keep_alive
                        )
                    await self._query_job(rest, writer, keep_alive)
            elif path == "/v1/telemetry/stream":
                if method != "GET":
                    return await self._method_not_allowed(writer, keep_alive)
                await self._stream_telemetry(request, writer)
                return False  # the stream owns (and ends) the connection
            else:
                await self._respond(
                    writer, 404, {"error": f"no such path {path!r}"}, keep_alive
                )
        except _BadRequest as exc:
            await self._respond(writer, 400, {"error": str(exc)}, keep_alive)
        except AdmissionError as exc:
            payload = {"error": str(exc), "rejected": True}
            if exc.tenant is not None:
                payload["tenant"] = exc.tenant
            await self._respond(writer, 429, payload, keep_alive)
        except ServeError as exc:
            await self._respond(
                writer, exc.status or 400, {"error": str(exc)}, keep_alive
            )
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            await self._respond(
                writer,
                500,
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
                False,
            )
            return False
        return keep_alive

    async def _method_not_allowed(self, writer, keep_alive: bool) -> bool:
        await self._respond(
            writer, 405, {"error": "method not allowed"}, keep_alive
        )
        return keep_alive

    # -- endpoints -----------------------------------------------------

    async def _submit(self, request: _Request, writer, keep_alive) -> None:
        payload = request.json()
        if "jobs" in payload:
            jobs = payload["jobs"]
            if not isinstance(jobs, list):
                raise _BadRequest("jobs must be a list")
        elif "app" in payload:
            jobs = [payload]
        else:
            raise _BadRequest('body needs "jobs": [...] or "app": name')
        tenant = payload.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise _BadRequest("tenant must be a non-empty string")
        wait = bool(payload.get("wait", True))
        submissions = self._service.submit(jobs, tenant=tenant)
        for sub in submissions:
            self._coalescer.submit_nowait(sub)
        if wait:
            try:
                await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            asyncio.wrap_future(s.future)
                            for s in submissions
                        ),
                        return_exceptions=True,
                    ),
                    timeout=_DECISION_TIMEOUT_S,
                )
            except asyncio.TimeoutError:
                await self._respond(
                    writer,
                    504,
                    {
                        "error": "decision timed out",
                        "jobs": [s.record.job_id for s in submissions],
                    },
                    keep_alive,
                )
                return
        await self._respond(
            writer,
            200,
            {"jobs": [s.record.to_dict() for s in submissions]},
            keep_alive,
        )

    async def _query_job(self, job_id: str, writer, keep_alive) -> None:
        record = self._service.job(job_id)
        if record is None:
            await self._respond(
                writer, 404, {"error": f"unknown job {job_id!r}"}, keep_alive
            )
            return
        await self._respond(writer, 200, record.to_dict(), keep_alive)

    async def _record_outcome(
        self, job_id: str, request: _Request, writer, keep_alive
    ) -> None:
        """POST /v1/jobs/<id>/outcome — feed a measured result back.

        The service validates the payload and the job's state (404 /
        409 surface through the ServeError status), pushes the
        observation through the pipeline choke point, and the updated
        record is echoed back.
        """
        payload = request.json()
        record = self._service.record_outcome(job_id, payload)
        await self._respond(writer, 200, record.to_dict(), keep_alive)

    async def _stream_telemetry(self, request: _Request, writer) -> None:
        """Server-sent events: one stats snapshot per interval.

        ``?interval=SECONDS`` sets the cadence (default 1.0);
        ``?events=N`` ends the stream after N events (0 = until the
        client disconnects or the daemon stops) — tests and scripts use
        it to read a bounded feed.
        """
        try:
            interval = float(request.query.get("interval", "1.0"))
            limit = int(request.query.get("events", "0"))
        except ValueError as exc:
            raise _BadRequest(f"bad telemetry parameter: {exc}") from exc
        if not math.isfinite(interval):
            raise _BadRequest(f"bad telemetry interval {interval!r}: not finite")
        if limit < 0:
            raise _BadRequest(f"bad telemetry events {limit}: must be >= 0")
        interval = max(0.01, interval)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        sent = 0
        last = self._service.stats()
        last_t = time.monotonic()
        while not self._stopping and (limit == 0 or sent < limit):
            await asyncio.sleep(interval)
            stats = self._service.stats()
            now = time.monotonic()
            dt = max(now - last_t, 1e-9)
            event = dict(stats)
            # instantaneous rate over the tick, not the lifetime mean
            event["decisions_per_s"] = (
                (stats["decided"] - last["decided"]) / dt
            )
            event["rejected_per_s"] = (
                (stats["rejected"] - last["rejected"]) / dt
            )
            last, last_t = stats, now
            try:
                writer.write(
                    f"data: {json.dumps(event)}\n\n".encode()
                )
                await writer.drain()
            except ConnectionError:
                break
            sent += 1
