"""The CI wrapper that fails a run leaking shared-memory segments."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_shm_leaks.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_shm_leaks", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clean_command_keeps_its_status(tool):
    assert tool.main([sys.executable, "-c", "pass"]) == 0
    assert tool.main([sys.executable, "-c", "raise SystemExit(3)"]) == 3


def test_tracker_warning_fails_the_run(tool, capsys):
    line = (
        "UserWarning: resource_tracker: There appear to be 1 leaked "
        "shared_memory objects to clean up at shutdown"
    )
    assert tool.main([sys.executable, "-c", f"print({line!r})"]) == 1
    assert "reported leaked" in capsys.readouterr().err


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm")
def test_orphaned_segment_fails_the_run(tool, capsys):
    # A segment nobody owns: the tracker never hears of it, so only the
    # /dev/shm comparison can see it.
    orphan = (
        "from multiprocessing import resource_tracker, shared_memory\n"
        "shm = shared_memory.SharedMemory(create=True, size=64)\n"
        "resource_tracker.unregister(shm._name, 'shared_memory')\n"
        "print(shm.name)\n"
    )
    before = tool.shm_names()
    try:
        assert tool.main([sys.executable, "-c", orphan]) == 1
        assert "left in /dev/shm" in capsys.readouterr().err
    finally:
        for name in tool.shm_names() - before:
            (Path("/dev/shm") / name).unlink(missing_ok=True)
