"""Thin synchronous client for the simulation service.

:class:`ServiceClient` speaks the service's HTTP/JSON dialect with
nothing but :mod:`urllib` — no dependency on the rest of the package is
*required* at call time, so a stripped-down deployment can vendor this
one file next to a ``repro list --json`` dump for client-side name
validation.  (The optional :meth:`ServiceClient.results` helper does
import the checkpoint codec to hand back real
:class:`~repro.core.result.SimulationResult` objects.)

The transport is imported by the first request, not by this module:
``urllib.request`` pulls in ``http.client``, ``ssl`` and ``email``
(7 MB of resident memory in a bare interpreter), and a process that
imports the client without calling it, such as a benchmark harness
child, should not pay for them.

Typical use::

    client = ServiceClient("http://127.0.0.1:8642")
    job = client.submit({"schemes": ["dir0b", "dragon"],
                         "traces": [{"workload": "pops", "length": 2000}]})
    for event in client.stream_events(job["id"]):
        print(event["type"], event.get("scheme"), event.get("status"))
    final = client.job(job["id"])
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import (
    JobNotFoundError,
    JobSpecError,
    ServiceError,
    ServiceUnavailableError,
)

if TYPE_CHECKING:
    import urllib.error

_ERROR_BY_STATUS = {
    400: JobSpecError,
    404: JobNotFoundError,
    503: ServiceUnavailableError,
}


class ServiceClient:
    """Synchronous HTTP client for one service endpoint.

    Args:
        base_url: e.g. ``http://127.0.0.1:8642`` (trailing slash ok).
        timeout: per-request socket timeout in seconds.  Streaming
            requests use it as the *read* timeout between events, so
            keep it above the server's 0.5 s event poll.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _open(self, method: str, path: str, data: bytes | None = None) -> Any:
        """Send one request; the open response, or the matching error."""
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.base_url + path,
            method=method,
            data=data,
            headers={"Content-Type": "application/json"},
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise self._as_service_error(exc) from None
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"service at {self.base_url} unreachable: {exc.reason}"
            ) from None

    def _request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> Any:
        data = None if body is None else json.dumps(body).encode("utf-8")
        with self._open(method, path, data) as response:
            return json.loads(response.read().decode("utf-8"))

    @staticmethod
    def _as_service_error(exc: urllib.error.HTTPError) -> ServiceError:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            message = payload.get("error", str(exc))
        except Exception:
            message = str(exc)
        cls = _ERROR_BY_STATUS.get(exc.code, ServiceError)
        return cls(message)

    # -- API -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def submit(self, spec: dict[str, Any]) -> dict[str, Any]:
        """``POST /jobs``; returns the job status (plus ``deduplicated``)."""
        return self._request("POST", "/jobs", body=spec)

    def job(self, job_id: str) -> dict[str, Any]:
        """``GET /jobs/<id>``."""
        return self._request("GET", f"/jobs/{job_id}")

    def shutdown(self, mode: str = "drain") -> dict[str, Any]:
        """``POST /shutdown`` — ask the server to stop gracefully."""
        return self._request("POST", "/shutdown", body={"mode": mode})

    def stream_events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """``GET /jobs/<id>/events`` — yield NDJSON events as they arrive.

        The iterator ends when the server closes the stream (job reached
        a terminal state, or the server is shutting down).
        """
        with self._open("GET", f"/jobs/{job_id}/events") as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def wait(self, job_id: str) -> dict[str, Any]:
        """Follow the event stream until the job is terminal; final status."""
        for event in self.stream_events(job_id):
            if event.get("type") == "job" and event.get("state") in (
                "done", "failed", "cancelled"
            ):
                break
        return self.job(job_id)

    def results(self, job_id: str) -> dict[str, dict[str, Any]]:
        """A finished job's results as ``SimulationResult`` objects.

        Returns ``{scheme key: {trace name: SimulationResult}}``,
        decoded with the same codec the checkpoint manifest uses, so
        the objects are bit-identical to a local run's.
        """
        from repro.runner.checkpoint import result_from_json

        status = self.job(job_id)
        payload = status.get("results")
        if payload is None:
            raise ServiceError(
                f"job {job_id} has no results yet (state {status.get('state')!r})"
            )
        return {
            scheme: {
                trace_name: result_from_json(result_json)
                for trace_name, result_json in per_trace.items()
            }
            for scheme, per_trace in payload.items()
        }
