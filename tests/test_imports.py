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


def loaded_after(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after running *code*."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
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
