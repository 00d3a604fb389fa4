"""Import budget: a process loads only the modules it uses.

Every package ``__init__`` is a lazy name -> module map, and each CLI
verb imports its own dependencies.  These tests check which modules a
fresh interpreter has loaded after an import; they never time anything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]
)

#: Exports that are submodules, not attributes of one.
SUBMODULE_EXPORTS = {("repro.report", "experiments")}


def loaded_after(code: str, *packages: str) -> set[str]:
    """The modules of *packages* (default ``repro``) a fresh interpreter
    holds after running *code*."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        f" if m.split('.')[0] in {packages or ('repro',)!r})))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_packages_cover_every_subpackage():
    assert len(PACKAGES) == 17
    assert {"repro", "repro.runner", "repro.protocols.snoopy"} <= set(PACKAGES)


def test_import_repro_loads_no_submodule():
    assert loaded_after("import repro") <= {"repro", "repro.errors"}


def test_columnar_traces_do_not_load_the_simulator():
    loaded = loaded_after("import repro.trace.columnar")
    assert "repro.core.simulator" not in loaded
    assert not any(name.startswith("repro.core") for name in loaded)


def test_cli_import_leaves_verb_dependencies_unloaded():
    loaded = loaded_after("import repro.cli")
    heavy = ("repro.report", "repro.analysis", "repro.verify", "repro.service", "repro.fabric")
    assert not [name for name in loaded if name.startswith(heavy)]


def test_cli_parser_loads_no_protocol():
    # ``repro --help`` builds the parser and nothing else.
    loaded = loaded_after("from repro.cli import build_parser\nbuild_parser()")
    assert not [name for name in loaded if name.startswith("repro.protocols")]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listing
        if (package, name) not in SUBMODULE_EXPORTS and name != "__version__":
            assert not isinstance(value, ModuleType), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["simulate"] is importlib.import_module("repro.core.simulator").simulate


def test_importing_a_submodule_keeps_the_same_named_export():
    # ``repro.trace.windows`` is both a submodule and the function it
    # defines; importing the submodule must not rebind the export.
    loaded = loaded_after(
        "import sys\n"
        "import repro.trace.windows\n"
        "assert repro.trace.windows is sys.modules['repro.trace.windows'].windows\n"
    )
    assert "repro.trace.windows" in loaded


def test_pool_workers_import_nothing_after_fork():
    # The pooled sweep forks its workers after the parent's imports; a
    # worker importing a module itself pays for it once per process.
    code = """
import os, sys
from repro.engine import Engine, ExecutionPlan
from repro.engine import backends
from repro.protocols.registry import available_protocols
from repro.trace.columnar import ColumnarTrace
from repro.workloads.registry import make_trace

def modules():
    return {m for m in sys.modules if m.split('.')[0] == 'repro'}

at_fork = []
os.register_at_fork(after_in_child=lambda: at_fork.append(modules()))

def imported_since_fork():
    return sorted(modules() - at_fork[0])

traces = [ColumnarTrace.from_trace(make_trace(name, length=300)) for name in ('pops', 'thor')]
Engine(jobs=2).run(ExecutionPlan(traces=traces, schemes=available_protocols()))
pool = backends._POOLS[2]
late = set()
for future in [pool.submit(imported_since_fork) for _ in range(4)]:
    late.update(future.result())
backends.shutdown_pools()
assert not late, sorted(late)
"""
    loaded_after(code)


def test_inline_service_job_loads_no_process_pool():
    # ``--jobs 1`` runs cells in the worker thread; the pool machinery
    # (and ``multiprocessing``'s connection and queue modules) is
    # loaded only by a sweep that uses a pool.
    code = """
import time
from repro.service.scheduler import Scheduler
from repro.service.spec import parse_job_spec

scheduler = Scheduler(workers=1, sim_jobs=1)
scheduler.start()
job, _ = scheduler.submit(parse_job_spec(
    {"schemes": ["dir0b"], "traces": [{"workload": "pops", "length": 300}]}
))
while not job.finished:
    time.sleep(0.02)
scheduler.shutdown()
assert job.state == "done", job.state
"""
    assert "concurrent.futures.process" not in loaded_after(code, "concurrent")


#: What ``urllib.request`` loads: ``http.client`` brings ``ssl`` (libssl)
#: and ``email`` with it.  ``urllib.parse`` and the ``http`` status enum
#: are cheap and loaded by unrelated modules, so they do not count.
HTTP_TRANSPORT = ("http.client", "urllib.request", "urllib.error", "ssl", "email")


#: ``hashlib`` and its ``_hashlib`` map OpenSSL's libcrypto.  Every
#: content hash in ``repro`` (fingerprints, cache keys, job-spec hashes)
#: uses CPython's built-in SHA-256 instead.  A pooled sweep still loads
#: them, through ``multiprocessing.shared_memory`` -> ``secrets`` ->
#: ``hmac``; that is the standard library's cost, not ours.
OPENSSL_HASH = ("hashlib", "_hashlib")


def http_transport_after(code: str) -> set[str]:
    """The HTTP transport modules a fresh interpreter holds after *code*."""
    loaded = loaded_after(code, "http", "urllib", "ssl", "email")
    return {name for name in loaded if name.startswith(HTTP_TRANSPORT)}


def test_service_client_loads_no_http_stack_until_it_sends():
    idle = "from repro.service.client import ServiceClient\nServiceClient('http://127.0.0.1:9')"
    assert http_transport_after(idle) == set()

    # The first request imports the transport, here on its error path.
    refused = """
import socket
from repro.errors import ServiceUnavailableError
from repro.service.client import ServiceClient

with socket.socket() as probe:
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
try:
    ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0).health()
except ServiceUnavailableError:
    pass
else:
    raise AssertionError("a closed port answered")
"""
    assert {"http.client", "urllib.request", "ssl"} <= http_transport_after(refused)


def test_library_process_loads_no_http_stack():
    # A simulation, a streamed .ctrc sweep and the paper experiments
    # never talk HTTP, so none of them may pay for its import; the
    # .ctrc writer's fingerprint hashes without OpenSSL.
    code = """
import tempfile
from pathlib import Path
from repro.engine import Engine, ExecutionPlan
from repro.report.experiments import PaperExperiments
from repro.store import ChunkedTrace, write_stream
from repro.workloads.registry import make_trace, stream_trace

trace = make_trace("pops", length=2000)
assert Engine().run(ExecutionPlan(traces=[trace], schemes=["dir0b"])).ok
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "thor.ctrc"
    write_stream(stream_trace("thor", length=2000), path, "thor")
    with ChunkedTrace(path) as chunked:
        assert Engine().run(ExecutionPlan(traces=[chunked], schemes=["dir0b", "wti"])).ok
"""
    assert http_transport_after(code) == set()
    assert not loaded_after(code, *OPENSSL_HASH)


def test_service_server_loads_no_http_stack_or_openssl():
    # The server parses its HTTP/1.0 subset itself, on ``socketserver``,
    # draws job ids from ``os.urandom`` and hashes traces, cache keys and
    # specs with the built-in SHA-256: no request, job or reply loads an
    # HTTP library, a MIME table, ``uuid`` or OpenSSL.
    code = """
import json, socket, time
from repro.service.api import ServiceServer
from repro.service.scheduler import Scheduler

def exchange(server, data):
    with socket.create_connection((server.host, server.port), timeout=15.0) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\\r\\n\\r\\n")
    assert head.split()[1] in (b"200", b"202"), head
    return json.loads(body)

server = ServiceServer(Scheduler(workers=1, sim_jobs=1), port=0)
server.start()
assert exchange(server, b"GET /healthz HTTP/1.0\\r\\n\\r\\n")["status"] == "ok"
spec = json.dumps({"schemes": ["dir0b"], "traces": [{"workload": "pops", "length": 300}]})
job = exchange(server, b"POST /jobs HTTP/1.0\\r\\nContent-Length: %d\\r\\n\\r\\n%s"
               % (len(spec), spec.encode()))
status = b"GET /jobs/%s HTTP/1.0\\r\\n\\r\\n" % job["id"].encode()
deadline = time.monotonic() + 30.0
while exchange(server, status)["state"] != "done":
    assert time.monotonic() < deadline, "the job never finished"
    time.sleep(0.02)
server.stop()
"""
    stack = ("http.server", "http.client", "email", "ssl", "uuid", "mimetypes", "html")
    loaded = loaded_after(
        code, "http", "email", "ssl", "uuid", "mimetypes", "html", *OPENSSL_HASH
    )
    assert not {name for name in loaded if name.startswith(stack + OPENSSL_HASH)}, sorted(
        loaded
    )


def test_serial_repro_run_loads_no_openssl(tmp_path):
    # ``python -m repro run`` with a result cache fingerprints each trace
    # and keys each cell, both without OpenSSL.
    code = f"""
import runpy, sys
sys.argv = ["repro", "run", "--workloads", "pops", "--length", "2000",
            "--schemes", "dir0b", "wti", "--result-cache", {str(tmp_path / "cache")!r}]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert not stop.code, stop.code
"""
    assert not loaded_after(code, *OPENSSL_HASH)
    assert any((tmp_path / "cache").rglob("*.json"))
