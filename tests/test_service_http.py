"""The HTTP API and client, end to end over a real socket."""

import json
import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro.core.simulator import Simulator
from repro.errors import JobNotFoundError, JobSpecError, ServiceUnavailableError
from repro.runner.checkpoint import result_to_json
from repro.engine.backends import ProcessPoolBackend
from repro.engine.plan import ExecutionPlan
from repro.service import Scheduler, ServiceClient, ServiceServer, parse_job_spec
from repro.service.api import MAX_BODY
from repro.service.jobs import JobStore
from repro.workloads.registry import make_trace

SPEC = {
    "schemes": ["dir0b", "dragon"],
    "traces": [{"workload": "pops", "length": 1500, "seed": 3}],
}


pytestmark = pytest.mark.service


@pytest.fixture
def server():
    instance = ServiceServer(Scheduler(workers=2, sim_jobs=1), port=0)
    instance.start()
    yield instance
    instance.stop(mode="drain", timeout=30.0)


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=15.0)


def test_healthz_and_stats(client):
    health = client.health()
    assert health["status"] == "ok"
    stats = client.stats()
    assert stats["jobs"]["total"] == 0
    assert stats["cells"]["simulated"] == 0


def test_submit_wait_and_results_roundtrip(client):
    job = client.submit(SPEC)
    assert job["state"] in ("queued", "running", "done")
    assert not job["deduplicated"]
    final = client.wait(job["id"])
    assert final["state"] == "done"
    assert final["cells"]["completed"] == 2

    # The client can decode results into real SimulationResult objects,
    # bit-identical to a local simulation.
    results = client.results(job["id"])
    trace = make_trace("pops", length=1500, seed=3)
    simulator = Simulator()
    for scheme in ("dir0b", "dragon"):
        direct = simulator.run(trace, scheme, trace_name=trace.name)
        direct.scheme = scheme
        assert result_to_json(results[scheme][trace.name]) == result_to_json(direct)


def test_event_stream_is_ordered_ndjson(client):
    job = client.submit(SPEC)
    events = list(client.stream_events(job["id"]))
    assert [event["seq"] for event in events] == list(range(len(events)))
    cell_events = [event for event in events if event["type"] == "cell"]
    assert {event["scheme"] for event in cell_events} == {"dir0b", "dragon"}
    assert all(event["status"] == "ok" for event in cell_events)
    assert events[-1]["type"] == "job" and events[-1]["state"] == "done"


def test_invalid_spec_maps_to_400(client):
    with pytest.raises(JobSpecError):
        client.submit({"schemes": ["nope"], "traces": ["pops"]})
    with pytest.raises(JobSpecError):
        client.submit({"schemes": ["dir0b"]})


def test_unknown_job_maps_to_404(client):
    with pytest.raises(JobNotFoundError):
        client.job("doesnotexist")
    with pytest.raises(JobNotFoundError):
        list(client.stream_events("doesnotexist"))


def test_unknown_route_maps_to_404(client):
    with pytest.raises(JobNotFoundError):
        client._request("GET", "/frobnicate")


def test_unreachable_server_raises_service_unavailable():
    dead = ServiceClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ServiceUnavailableError):
        dead.health()


def test_priority_order_respected_with_single_worker():
    server = ServiceServer(Scheduler(workers=1, sim_jobs=1), port=0)
    server.start()
    try:
        client = ServiceClient(server.url, timeout=15.0)
        # Occupy the single worker, then queue low before high.
        blocker = client.submit(dict(SPEC, tags={"n": "blocker"}))
        low = client.submit(dict(SPEC, priority=0, tags={"n": "low"}))
        high = client.submit(dict(SPEC, priority=10, tags={"n": "high"}))
        client.wait(low["id"])
        client.wait(high["id"])
        client.wait(blocker["id"])
        stats = client.stats()
        assert stats["jobs"]["done"] == 3
    finally:
        server.stop(mode="drain", timeout=30.0)


def test_acceptance_concurrent_identical_jobs_zero_duplicate_simulation(server):
    """ISSUE acceptance: two identical jobs submitted concurrently both
    complete with results bit-identical to a direct ProcessPoolBackend
    run, and /stats shows the second job's cells came from
    cache/coalescing — zero duplicate simulations."""
    client = ServiceClient(server.url, timeout=30.0)
    spec = {
        "schemes": ["dir1nb", "wti", "dir0b", "dragon"],
        "traces": [{"workload": "thor", "length": 2000, "seed": 7}],
    }

    finals = {}
    barrier = threading.Barrier(2)

    def submit_and_wait(tag):
        barrier.wait()
        job = client.submit(spec)
        finals[tag] = client.wait(job["id"])

    threads = [
        threading.Thread(target=submit_and_wait, args=(i,)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)

    first, second = finals[0], finals[1]
    assert first["id"] != second["id"]
    assert first["state"] == "done" and second["state"] == "done"

    # Bit-identical to a direct ProcessPoolBackend run of the same cells.
    trace = make_trace("thor", length=2000, seed=7)
    cells = ExecutionPlan(traces=[trace], schemes=spec["schemes"]).cells()
    outcomes = ProcessPoolBackend(jobs=2).run(Simulator(), cells)
    expected = {
        spec["schemes"][index]: {trace.name: outcome["result"]}
        for index, outcome in outcomes.items()
    }
    assert first["results"] == expected
    assert second["results"] == expected

    # Zero duplicate simulations: every unique cell simulated exactly
    # once; the second job's cells all came from coalescing or cache.
    stats = client.stats()
    assert stats["cells"]["simulated"] == len(spec["schemes"])
    assert stats["cells"]["coalesced"] + stats["cells"]["cache"] == len(
        spec["schemes"]
    )
    totals = [finals[i]["cells"] for i in range(2)]
    for cells_summary in totals:
        assert cells_summary["completed"] == len(spec["schemes"])
        assert cells_summary["errors"] == 0
    assert sum(summary["simulated"] for summary in totals) == len(spec["schemes"])


def test_shutdown_endpoint_requests_stop(server, client):
    response = client.shutdown(mode="drain")
    assert response == {"stopping": True, "mode": "drain"}
    assert server.stop_event.is_set()
    assert server.requested_shutdown_mode == "drain"


def test_shutdown_is_requested_before_the_response(server, client, monkeypatch):
    request_shutdown = ServiceServer.request_shutdown

    def slow_request_shutdown(self, mode):
        time.sleep(0.2)
        request_shutdown(self, mode)

    monkeypatch.setattr(ServiceServer, "request_shutdown", slow_request_shutdown)
    client.shutdown(mode="checkpoint")
    assert server.stop_event.is_set()
    assert server.requested_shutdown_mode == "checkpoint"


def test_http_submit_body_matches_cli_json_registry(client, capsys):
    """`repro list --json` names validate against the live service."""
    from repro.cli import main

    assert main(["list", "--json"]) == 0
    registry = json.loads(capsys.readouterr().out)
    job = client.submit(
        {
            "schemes": registry["protocols"][:2],
            "traces": [
                {"workload": registry["workloads"][0], "length": 500}
            ],
        }
    )
    final = client.wait(job["id"])
    assert final["state"] == "done"


def test_healthz_does_not_touch_the_cache(client, monkeypatch):
    from repro.runner.cache import ResultCache

    def refuse(self):
        raise AssertionError("a liveness probe listed the cache")

    monkeypatch.setattr(ResultCache, "__len__", refuse)
    assert client.health()["status"] == "ok"


def raw_get(url):
    with urllib.request.urlopen(url, timeout=15.0) as response:
        return response.read()


def test_finished_job_is_served_byte_identically(tmp_path):
    """The bytes a live job would be served equal those its record serves,
    before and after a restart on the same state dir."""
    state = tmp_path / "state"
    server = ServiceServer(Scheduler(workers=1, state_dir=state), port=0)
    server.start()
    try:
        job, _ = server.scheduler.submit(parse_job_spec(SPEC))
        ServiceClient(server.url, timeout=15.0).wait(job.id)
        # As the API sends them: in the order the job built them.
        live_status = json.dumps(job.status()).encode("utf-8")
        live_events = "".join(
            json.dumps(event) + "\n" for event in job.events_since(0)
        ).encode("utf-8")
        deadline = time.monotonic() + 15.0
        while server.scheduler.jobs.all() and time.monotonic() < deadline:
            time.sleep(0.02)  # the terminal event precedes the record
        assert server.scheduler.jobs.all() == []
        served = (
            raw_get(f"{server.url}/jobs/{job.id}"),
            raw_get(f"{server.url}/jobs/{job.id}/events"),
        )
        assert served == (live_status, live_events)
    finally:
        server.stop(mode="drain", timeout=30.0)

    restarted = ServiceServer(Scheduler(workers=1, state_dir=state), port=0)
    restarted.start()
    try:
        assert (
            raw_get(f"{restarted.url}/jobs/{job.id}"),
            raw_get(f"{restarted.url}/jobs/{job.id}/events"),
        ) == (live_status, live_events)
    finally:
        restarted.stop(mode="drain", timeout=30.0)


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
def test_job_that_cannot_start_fails_and_its_worker_runs_the_next(monkeypatch):
    """A job whose start raises (here: filing its running state) fails
    with the error instead of killing its worker thread, which then runs
    the next queued job."""
    persist = JobStore._file_job
    threads = set()

    def persist_or_fail(self, job):
        if job.state == "running":
            threads.add(threading.get_ident())
            if dict(job.spec.tags).get("n") == "doomed":
                raise OSError("state dir is read-only")
        persist(self, job)

    monkeypatch.setattr(JobStore, "_file_job", persist_or_fail)
    server = ServiceServer(Scheduler(workers=1, sim_jobs=1), port=0)
    server.start()
    try:
        client = ServiceClient(server.url, timeout=15.0)
        doomed = client.submit(dict(SPEC, tags={"n": "doomed"}))
        after = client.submit(dict(SPEC, tags={"n": "after"}))

        def terminal(job_id):
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                body = client.job(job_id)
                if body["state"] in ("done", "failed", "cancelled"):
                    return body
                time.sleep(0.02)
            return body

        failed = terminal(doomed["id"])
        assert failed["state"] == "failed"
        assert failed["error"] == "OSError: state dir is read-only"
        assert terminal(after["id"])["state"] == "done"
        assert len(threads) == 1  # both jobs ran on the one worker thread
        jobs = client.stats()["jobs"]
        assert (jobs["running"], jobs["failed"], jobs["done"]) == (0, 1, 1)
    finally:
        server.stop(mode="drain", timeout=30.0)


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("step", ["retire", "persist"])
def test_job_whose_last_steps_fail_stays_answerable_and_its_worker_runs_the_next(
    monkeypatch, step
):
    """A finished job whose record cannot be written (retiring it, or
    persisting its terminal state, raises) stays done and answerable
    with the error on it, and its worker thread runs the next job."""
    run_job = Scheduler._run_job
    persist = JobStore._file_job
    retire = JobStore.retire
    threads = set()
    failures = []

    def doomed(job):
        return dict(job.spec.tags).get("n") == "doomed" and not failures

    def run_job_on_thread(self, job):
        threads.add(threading.get_ident())
        run_job(self, job)

    def persist_or_fail(self, job):
        if step == "persist" and job.state == "done" and doomed(job):
            failures.append(job.id)
            raise OSError("no space left on device")
        persist(self, job)

    def retire_or_fail(self, job):
        if step == "retire" and doomed(job):
            failures.append(job.id)
            raise OSError("no space left on device")
        retire(self, job)

    monkeypatch.setattr(Scheduler, "_run_job", run_job_on_thread)
    monkeypatch.setattr(JobStore, "_file_job", persist_or_fail)
    monkeypatch.setattr(JobStore, "retire", retire_or_fail)
    server = ServiceServer(Scheduler(workers=1, sim_jobs=1), port=0)
    server.start()
    try:
        client = ServiceClient(server.url, timeout=15.0)
        first = client.submit(dict(SPEC, tags={"n": "doomed"}))
        after = client.submit(dict(SPEC, tags={"n": "after"}))

        deadline = time.monotonic() + 30.0
        while client.job(after["id"])["state"] != "done":
            assert time.monotonic() < deadline, "the next job never finished"
            time.sleep(0.02)
        assert failures == [first["id"]]
        assert len(threads) == 1  # both jobs ran on the one worker thread
        kept = client.job(first["id"])
        assert kept["state"] == "done"
        assert kept["error"] == "OSError: no space left on device"
        jobs = client.stats()["jobs"]
        assert (jobs["running"], jobs["done"]) == (0, 2)
    finally:
        server.stop(mode="drain", timeout=30.0)


def test_served_results_print_the_fresh_cycles_per_reference(tmp_path):
    """A result fetched from the service, live or from its record, sums its
    cost floats in the fresh order (0.05375 from a re-sorted payload)."""
    from repro.cost.bus import pipelined_bus
    from repro.runner.checkpoint import result_from_json

    spec = {"schemes": ["berkeley"], "traces": [{"workload": "thor", "length": 20000}]}
    fresh = Simulator().run(make_trace("thor", length=20000), "berkeley")
    want = fresh.bus_cycles_per_reference(pipelined_bus())
    assert want == 0.053750000000000006
    server = ServiceServer(Scheduler(workers=1, state_dir=tmp_path / "state"), port=0)
    server.start()
    try:
        client = ServiceClient(server.url, timeout=15.0)
        job_id = client.submit(spec)["id"]
        assert client.wait(job_id)["state"] == "done"
        live = client.results(job_id)["berkeley"]["thor"]
        deadline = time.monotonic() + 15.0
        while server.scheduler.jobs.all() and time.monotonic() < deadline:
            time.sleep(0.02)  # the terminal event precedes the record
        assert server.scheduler.jobs.all() == []
        served = client.results(job_id)["berkeley"]["thor"]
        rebuilt = result_from_json(
            server.scheduler.jobs.get(job_id).results["berkeley"]["thor"]
        )
        for result in (live, served, rebuilt):
            assert result == fresh
            assert result.bus_cycles_per_reference(pipelined_bus()) == want
    finally:
        server.stop(mode="drain", timeout=30.0)


def test_record_with_sorted_keys_still_loads(tmp_path):
    # Records written before insertion order was kept have sorted keys;
    # they still load, in their old order.
    state = tmp_path / "state"
    scheduler = Scheduler(workers=1, state_dir=state)
    scheduler.start()
    try:
        job, _ = scheduler.submit(parse_job_spec(SPEC))
        deadline = time.monotonic() + 30.0
        while scheduler.jobs.all() and time.monotonic() < deadline:
            time.sleep(0.02)
        record = state / "jobs" / job.id / "record.json"
        record.write_text(
            json.dumps(json.loads(record.read_text("utf-8")), sort_keys=True), "utf-8"
        )
        loaded = scheduler.jobs.get(job.id)
        assert loaded.state == "done"
        assert loaded.results == job.results
        assert loaded.events_since(0) == job.events_since(0)
    finally:
        scheduler.shutdown(mode="drain", timeout=30.0)


# -- requests outside the API's HTTP subset, over a plain socket ---------


def raw_exchange(server, data, *, half_close=False):
    """Send *data* on a fresh connection; the reply's status and JSON body.

    The 5 s timeout turns a server that waits for more input into a
    failure instead of a hang.
    """
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


@pytest.mark.parametrize("length", ["abc", "-1", str(MAX_BODY + 1)])
def test_bad_content_length_is_a_400_job_spec_error(server, client, length):
    # "-1" once reached ``rfile.read(-1)``: the reply waited for the
    # client to close, and the body had no bound.
    status, body = raw_exchange(
        server, f"POST /jobs HTTP/1.0\r\nContent-Length: {length}\r\n\r\n".encode()
    )
    assert status == 400
    assert body["category"] == "JobSpecError"
    assert length in body["error"]
    assert client.health()["status"] == "ok"


def test_body_ending_before_its_length_is_a_400(server, client):
    # The 2 bytes sent parse as ``{}``, a valid shutdown request, but the
    # request declared 10: it is refused, and the server keeps running.
    status, body = raw_exchange(
        server,
        b"POST /shutdown HTTP/1.0\r\nContent-Length: 10\r\n\r\n{}",
        half_close=True,
    )
    assert (status, body["category"]) == (400, "JobSpecError")
    assert "ended after 2 of 10 bytes" in body["error"]
    assert not server.stop_event.is_set()
    assert client.health()["status"] == "ok"


def test_shutdown_body_that_is_not_an_object_is_a_400(server):
    status, body = raw_exchange(
        server, b"POST /shutdown HTTP/1.0\r\nContent-Length: 2\r\n\r\n[]"
    )
    assert (status, body["category"]) == (400, "JobSpecError")
    assert not server.stop_event.is_set()


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GARBAGE\r\n\r\n",
        b"GET /healthz\r\n\r\n",
        b"GET /healthz HTTP/one\r\n\r\n",
        b"GET / healthz HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\nno colon here\r\n\r\n",
        b"GET /" + b"x" * 65536 + b" HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\nX-Big: " + b"x" * 65536 + b"\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n",
    ],
    ids=[
        "one-word", "no-version", "bad-version", "four-words", "bad-header",
        "long-line", "long-header", "101-headers",
    ],
)
def test_malformed_request_gets_a_json_400(server, client, request_bytes):
    status, body = raw_exchange(server, request_bytes)
    assert status == 400
    assert set(body) == {"error", "category"}
    assert body["category"] == "BadRequest"
    assert client.health()["status"] == "ok"


def test_unsupported_method_gets_a_json_501(server):
    status, body = raw_exchange(server, b"DELETE /jobs/abc HTTP/1.0\r\n\r\n")
    assert status == 501
    assert body["category"] == "NotImplemented"
    assert "DELETE" in body["error"]


def test_100_headers_with_64_kib_lines_are_accepted_in_any_case(server):
    # At the limits: 100 header lines, one of them 64 KiB long, and the
    # one header the API reads, ``Content-Length``, in mixed case.
    payload = json.dumps(SPEC).encode()
    request_bytes = (
        b"POST /jobs HTTP/1.1\r\n"
        + b"X-Many: 1\r\n" * 98
        + b"X-Big: " + b"x" * (65536 - len("X-Big: \r\n")) + b"\r\n"
        + b"cOnTeNt-LeNgTh: %d\r\n\r\n" % len(payload)
        + payload
    )
    status, body = raw_exchange(server, request_bytes)
    assert status == 202, body
    assert body["state"] in ("queued", "running", "done")


def test_a_vanished_client_leaves_no_traceback(server, client, capfd):
    # The client sends half a body, then resets the connection: the
    # server's read fails, and so would the error reply it once tried to
    # write, with a traceback from the stdlib's handler on stderr.
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.sendall(b"POST /jobs HTTP/1.0\r\nContent-Length: 100\r\n\r\n{")
        time.sleep(0.2)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    deadline = time.monotonic() + 5.0
    while any(
        thread.name.endswith("(process_request_thread)")
        for thread in threading.enumerate()
    ):
        assert time.monotonic() < deadline, "the handler thread never ended"
        time.sleep(0.02)
    assert client.health()["status"] == "ok"
    assert "Traceback" not in capfd.readouterr().err
