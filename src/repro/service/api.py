"""The HTTP/JSON face of the service (stdlib ``socketserver``).

Endpoints::

    POST /jobs               submit a job spec        -> 202 job status
    GET  /jobs/<id>          job status (results when done)
    GET  /jobs/<id>/events   NDJSON stream, follows until terminal
    GET  /healthz            liveness
    GET  /stats              queue/cache/cell metrics (+ fabric fleet)
    GET  /dlq                fabric dead-letter queue (exhausted cells)
    POST /shutdown           graceful stop {"mode": "drain"|"checkpoint"}

Error mapping: :class:`~repro.errors.JobSpecError` → 400,
:class:`~repro.errors.JobNotFoundError` → 404,
:class:`~repro.errors.ServiceUnavailableError` → 503, anything else
→ 500; every error body is ``{"error": ..., "category": ...}``.

The server speaks the subset of HTTP/1.0 the API uses, on a
``socketserver.ThreadingTCPServer`` rather than the stdlib's HTTP
server module, which imports ``http.client`` and with it ``ssl`` and
``email``.  A request
is a request line ``METHOD SP target SP HTTP/x.y`` of at most 64 KiB,
at most 100 header lines of at most 64 KiB each (names matched
case-insensitively), and a body of ``Content-Length`` bytes, at most
:data:`MAX_BODY`.  A request outside that subset is answered with a
JSON error too: 400 (``BadRequest``) for a malformed request line or
header, 400 (``JobSpecError``) for a bad ``Content-Length`` or a short
body, 501 (``NotImplemented``) for a method other than GET and POST.

One request per connection: every reply is HTTP/1.0 and the server
closes the connection after it.  A JSON reply carries
``Content-Type`` and ``Content-Length``; the event stream carries
neither length nor end marker, one JSON object per line, flushed as
produced, and the close marks its end.  Each connection occupies one
daemon thread, which is the intended trade at this scale — the
simulation workers live elsewhere.  A client that has gone away is
never answered: the handler drops a reply (error replies included)
whose write finds the connection broken or reset.
"""

from __future__ import annotations

import json
import re
import socketserver
import threading
from typing import Any

from repro.errors import (
    JobNotFoundError,
    JobSpecError,
    ServiceUnavailableError,
)
from repro.service.scheduler import Scheduler
from repro.service.spec import parse_job_spec

#: Largest request body accepted, in bytes (a job spec, not a trace).
MAX_BODY = 4 * 1024 * 1024

#: Longest request or header line, in bytes (the stdlib HTTP server's limit).
MAX_LINE = 65536

#: Most header lines in one request (the stdlib HTTP server's limit).
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_VERSION = re.compile(r"HTTP/\d{1,10}\.\d{1,10}")


def _head(status: int, *headers: str) -> bytes:
    """An HTTP/1.0 status line and *headers*, up to the blank line."""
    lines = [f"HTTP/1.0 {status} {_REASONS[status]}", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1")


class _RequestError(Exception):
    """A request the handler cannot serve, answered with *status*."""

    def __init__(self, status: int, category: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.category = category


class ServiceServer:
    """One scheduler wrapped in an HTTP server.

    Args:
        scheduler: the (not yet started) scheduler to serve.
        host: bind address.
        port: bind port; 0 picks a free one (see :attr:`port`).
    """

    def __init__(
        self, scheduler: Scheduler, host: str = "127.0.0.1", port: int = 8642
    ) -> None:
        self.scheduler = scheduler
        self._httpd = _Listener((host, port), self)
        self.host, self.port = self._httpd.server_address[:2]
        self._serve_thread: threading.Thread | None = None
        self.stop_event = threading.Event()
        #: set by POST /shutdown so the serve loop can initiate the stop
        self.requested_shutdown_mode: str | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the scheduler workers and the HTTP accept loop."""
        self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-service-http",
            daemon=True,
        )
        self._serve_thread.start()

    def stop(self, mode: str = "drain", timeout: float | None = None) -> None:
        """Graceful shutdown: scheduler first, then the HTTP listener."""
        self.scheduler.shutdown(mode=mode, timeout=timeout)
        self.stop_event.set()
        self._httpd.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._httpd.server_close()

    def request_shutdown(self, mode: str) -> None:
        """Record a client-requested shutdown (acted on by the serve loop)."""
        self.requested_shutdown_mode = mode
        self.stop_event.set()


class _Listener(socketserver.ThreadingTCPServer):
    """The accept loop: one daemon thread per connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ServiceServer) -> None:
        self.service = service
        super().__init__(address, _Handler)


class _Handler(socketserver.StreamRequestHandler):
    """Reads one request, answers it, and lets the connection close."""

    server: _Listener

    def handle(self) -> None:
        try:
            self._serve()
        except ConnectionError:
            pass  # the client went away: nobody is left to answer
        except Exception as exc:
            try:
                self._send_error_json(exc)
            except ConnectionError:
                pass  # nor to tell what went wrong

    # -- parsing -------------------------------------------------------

    def _readline(self, what: str) -> bytes:
        line = self.rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise _RequestError(
                400, "BadRequest", f"{what} longer than {MAX_LINE} bytes"
            )
        return line

    def _serve(self) -> None:
        line = self._readline("request line")
        if not line:
            return  # connected and closed without a request
        request_line = line.decode("iso-8859-1").rstrip("\r\n")
        words = request_line.split()
        if len(words) != 3 or not _VERSION.fullmatch(words[2]):
            raise _RequestError(400, "BadRequest", f"bad request line {request_line!r}")
        method, target = words[0], words[1]
        self.headers = self._read_headers()
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET":
            self._get(path)
        elif method == "POST":
            self._post(path)
        else:
            raise _RequestError(
                501, "NotImplemented", f"method {method!r} is not supported"
            )

    def _read_headers(self) -> dict[str, str]:
        """Header lines up to the blank line, by lower-cased name; the
        first of repeated names wins."""
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._readline("header line")
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _RequestError(400, "BadRequest", f"bad header line {line!r}")
            headers.setdefault(name.lower(), value.strip())
        raise _RequestError(400, "BadRequest", f"more than {MAX_HEADERS} headers")

    def _read_body(self) -> Any:
        declared = self.headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise JobSpecError(f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY:
            raise JobSpecError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b"{}"
        if len(raw) < length:
            raise JobSpecError(f"request body ended after {len(raw)} of {length} bytes")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobSpecError(f"request body is not valid JSON: {exc}") from exc

    # -- replies -------------------------------------------------------

    def _send_json(self, status: int, body: dict[str, Any]) -> None:
        payload = json.dumps(body).encode("utf-8")
        head = _head(
            status, "Content-Type: application/json", f"Content-Length: {len(payload)}"
        )
        self.wfile.write(head + payload)

    def _send_error_json(self, exc: Exception) -> None:
        if isinstance(exc, _RequestError):
            status, category = exc.status, exc.category
        else:
            category = type(exc).__name__
            if isinstance(exc, JobSpecError):
                status = 400
            elif isinstance(exc, JobNotFoundError):
                status = 404
            elif isinstance(exc, ServiceUnavailableError):
                status = 503
            else:
                status = 500
        self._send_json(status, {"error": str(exc), "category": category})

    # -- routes --------------------------------------------------------

    def _get(self, path: str) -> None:
        scheduler = self.server.service.scheduler
        if path == "/healthz":
            # Liveness only: nothing here scans the cache or the db.
            self._send_json(
                200,
                {
                    "status": "stopping" if scheduler.jobs.stopping else "ok",
                    "uptime_s": scheduler.uptime_s,
                },
            )
        elif path == "/stats":
            self._send_json(200, scheduler.stats())
        elif path == "/dlq":
            fabric = scheduler.fabric
            self._send_json(
                200,
                {
                    "enabled": fabric is not None,
                    "dead": fabric.dead_letters() if fabric else [],
                },
            )
        elif path.startswith("/jobs/") and path.endswith("/events"):
            job_id = path[len("/jobs/"):-len("/events")].strip("/")
            self._stream_events(job_id)
        elif path.startswith("/jobs/"):
            job = scheduler.jobs.get(path[len("/jobs/"):])
            self._send_json(200, job.status())
        else:
            raise JobNotFoundError(f"no such route {path!r}")

    def _post(self, path: str) -> None:
        service = self.server.service
        if path == "/jobs":
            spec = parse_job_spec(self._read_body())
            job, deduplicated = service.scheduler.submit(spec)
            body = job.status()
            body["deduplicated"] = deduplicated
            self._send_json(202, body)
        elif path == "/shutdown":
            body = self._read_body()
            if not isinstance(body, dict):
                raise JobSpecError(f"shutdown body must be a JSON object, got {body!r}")
            mode = body.get("mode", "drain")
            if mode not in ("drain", "checkpoint"):
                raise JobSpecError(
                    f"shutdown mode must be drain/checkpoint, got {mode!r}"
                )
            # Before responding, so a client that sees the 202
            # can rely on the stop already being requested.
            service.request_shutdown(mode)
            self._send_json(202, {"stopping": True, "mode": mode})
        else:
            raise JobNotFoundError(f"no such route {path!r}")

    def _stream_events(self, job_id: str) -> None:
        service = self.server.service
        job = service.scheduler.jobs.get(job_id)
        self.wfile.write(
            _head(
                200, "Content-Type: application/x-ndjson", "Cache-Control: no-cache"
            )
        )
        for event in job.stream_events(poll=0.5, stop=service.stop_event):
            self.wfile.write((json.dumps(event) + "\n").encode("utf-8"))


def serve(
    scheduler: Scheduler, host: str = "127.0.0.1", port: int = 8642
) -> ServiceServer:
    """Build, start, and return a :class:`ServiceServer` (non-blocking)."""
    server = ServiceServer(scheduler, host=host, port=port)
    server.start()
    return server
