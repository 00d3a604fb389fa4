"""The HTTP/JSON face of the service (stdlib ``ThreadingHTTPServer``).

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

The event stream is plain HTTP/1.0-style: no ``Content-Length``, one
JSON object per line, flushed as produced, connection close marks the
end.  Each streaming client occupies one server thread
(``ThreadingHTTPServer`` with daemon threads), which is the intended
trade at this scale — the simulation workers live elsewhere.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
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


def _make_handler(server: ServiceServer) -> type[BaseHTTPRequestHandler]:
    scheduler = server.scheduler

    class Handler(BaseHTTPRequestHandler):
        # One request per connection; close delimits the event stream.
        protocol_version = "HTTP/1.0"

        # -- plumbing --------------------------------------------------

        def log_message(self, format: str, *args: Any) -> None:
            pass  # the service logs through events, not per-request lines

        def _send_json(self, status: int, body: dict[str, Any]) -> None:
            payload = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _send_error_json(self, exc: Exception) -> None:
            if isinstance(exc, JobSpecError):
                status = 400
            elif isinstance(exc, JobNotFoundError):
                status = 404
            elif isinstance(exc, ServiceUnavailableError):
                status = 503
            else:
                status = 500
            self._send_json(
                status, {"error": str(exc), "category": type(exc).__name__}
            )

        def _read_body(self) -> Any:
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY:
                raise JobSpecError(f"request body too large ({length} bytes)")
            raw = self.rfile.read(length) if length else b"{}"
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise JobSpecError(f"request body is not valid JSON: {exc}") from exc

        # -- routes ----------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            try:
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
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
                    job_id = path[len("/jobs/"):]
                    job = scheduler.jobs.get(job_id)
                    self._send_json(200, job.status())
                else:
                    raise JobNotFoundError(f"no such route {path!r}")
            except BrokenPipeError:
                pass
            except Exception as exc:
                self._send_error_json(exc)

        def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
            try:
                path = self.path.split("?", 1)[0].rstrip("/")
                if path == "/jobs":
                    spec = parse_job_spec(self._read_body())
                    job, deduplicated = scheduler.submit(spec)
                    body = job.status()
                    body["deduplicated"] = deduplicated
                    self._send_json(202, body)
                elif path == "/shutdown":
                    body = self._read_body()
                    mode = body.get("mode", "drain")
                    if mode not in ("drain", "checkpoint"):
                        raise JobSpecError(
                            f"shutdown mode must be drain/checkpoint, got {mode!r}"
                        )
                    # Before responding, so a client that sees the 202
                    # can rely on the stop already being requested.
                    server.request_shutdown(mode)
                    self._send_json(202, {"stopping": True, "mode": mode})
                else:
                    raise JobNotFoundError(f"no such route {path!r}")
            except BrokenPipeError:
                pass
            except Exception as exc:
                self._send_error_json(exc)

        # -- streaming -------------------------------------------------

        def _stream_events(self, job_id: str) -> None:
            job = scheduler.jobs.get(job_id)
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Cache-Control", "no-cache")
            self.end_headers()
            try:
                for event in job.stream_events(poll=0.5, stop=server.stop_event):
                    line = json.dumps(event) + "\n"
                    self.wfile.write(line.encode("utf-8"))
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass  # client went away; nothing to clean up

    return Handler


def serve(
    scheduler: Scheduler, host: str = "127.0.0.1", port: int = 8642
) -> ServiceServer:
    """Build, start, and return a :class:`ServiceServer` (non-blocking)."""
    server = ServiceServer(scheduler, host=host, port=port)
    server.start()
    return server
