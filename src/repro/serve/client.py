"""Blocking stdlib client for the ``clip-sched serve`` daemon.

A thin convenience over :mod:`http.client` with a persistent
keep-alive connection — the shape the load generator wants (one
connection per worker thread, many submissions each).  High-level
methods raise :class:`~repro.errors.ServeError` (carrying the HTTP
status) on error responses; :meth:`ServeClient.request` returns the
raw ``(status, payload)`` pair for callers probing rejection paths.
"""

from __future__ import annotations

import http.client
import json

from repro.errors import ServeError

__all__ = ["ServeClient"]

#: Seconds between the snapshots :meth:`ServeClient.telemetry` asks for.
TELEMETRY_INTERVAL_S = 0.1


class ServeClient:
    """One persistent connection to a running daemon."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        """Drop the connection (reopened lazily on the next request)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._conn

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        """One round trip; returns ``(status, parsed JSON body)``.

        Retries exactly once on a dead keep-alive connection (the
        server may have closed an idle one between requests).
        """
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServeError(
                f"non-JSON response from daemon: {raw[:200]!r}"
            ) from exc
        return response.status, data

    def _checked(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        status, data = self.request(method, path, payload)
        if status >= 400:
            raise ServeError(
                data.get("error", f"HTTP {status} on {path}"), status=status
            )
        return data

    # -- endpoints -----------------------------------------------------

    def health(self) -> dict:
        """``GET /v1/healthz``."""
        return self._checked("GET", "/v1/healthz")

    def stats(self) -> dict:
        """``GET /v1/stats``."""
        return self._checked("GET", "/v1/stats")

    def budget(self) -> float:
        """``GET /v1/budget``."""
        return float(self._checked("GET", "/v1/budget")["budget_w"])

    def update_budget(self, budget_w: float) -> float:
        """``POST /v1/budget``."""
        data = self._checked("POST", "/v1/budget", {"budget_w": budget_w})
        return float(data["budget_w"])

    def submit(
        self,
        jobs: list[dict | str] | str,
        tenant: str | None = None,
        wait: bool = True,
    ) -> list[dict]:
        """``POST /v1/jobs``; returns the job records.

        *jobs* is an app name, or a list of names /
        ``{"app": ..., "budget_w": ...}`` specs (one burst).
        """
        payload: dict = {
            "jobs": [jobs] if isinstance(jobs, str) else list(jobs),
            "wait": wait,
        }
        if tenant is not None:
            payload["tenant"] = tenant
        return self._checked("POST", "/v1/jobs", payload)["jobs"]

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>``."""
        return self._checked("GET", f"/v1/jobs/{job_id}")

    def telemetry(self, events: int) -> list[dict]:
        """Read *events* snapshots from ``/v1/telemetry/stream``, one
        every :data:`TELEMETRY_INTERVAL_S`.

        Uses its own short-lived connection: the stream ends with
        ``Connection: close``, which would poison the keep-alive one.
        """
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        try:
            conn.request(
                "GET",
                f"/v1/telemetry/stream?events={events}"
                f"&interval={TELEMETRY_INTERVAL_S}",
            )
            response = conn.getresponse()
            if response.status != 200:
                raise ServeError(
                    f"telemetry stream refused: HTTP {response.status}",
                    status=response.status,
                )
            out = []
            for raw in response:
                line = raw.decode().strip()
                if line.startswith("data: "):
                    out.append(json.loads(line[len("data: "):]))
                    if len(out) >= events:
                        break
            return out
        finally:
            conn.close()
