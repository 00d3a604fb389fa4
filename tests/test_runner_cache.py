"""ResultCache corruption handling: quarantine, never raise (ISSUE satellite)."""

import json
import os
import threading

import pytest

from repro.core.simulator import Simulator
from repro.engine import Engine, ExecutionPlan
from repro.runner.cache import CACHE_VERSION, ResultCache, cache_key, trace_fingerprint
from repro.runner.checkpoint import result_to_json
from repro.workloads.registry import make_trace


@pytest.fixture
def trace():
    return make_trace("pops", length=1200, seed=4)


@pytest.fixture
def simulator():
    return Simulator()


def run_cell(simulator, trace, scheme="dir0b"):
    result = simulator.run(trace, scheme, trace_name=trace.name)
    result.scheme = scheme
    return result


@pytest.mark.parametrize(
    "garbage",
    [
        b"this is not json at all {{{",
        b"",                                    # truncated to nothing
        b'{"version": 1, "result": ',           # truncated mid-object
        b'{"version": 999, "result": {}}',      # future version
        b'{"no_result_key": true}',             # wrong shape
        b'{"version": 1, "result": {"scheme": "x"}}',  # result missing fields
    ],
)
def test_corrupt_entry_is_quarantined_not_raised(tmp_path, simulator, trace, garbage):
    cache = ResultCache(tmp_path / "cache")
    key = cache_key("dir0b", simulator, trace_fingerprint(trace))
    path = cache._path_for(key)
    path.write_bytes(garbage)

    assert cache.get(key) is None  # a miss, never an exception
    assert cache.misses == 1 and cache.hits == 0
    assert cache.quarantined == 1
    assert not path.exists()
    quarantined = tmp_path / "cache" / ResultCache.QUARANTINE_DIR / path.name
    assert quarantined.exists()
    assert quarantined.read_bytes() == garbage  # preserved for inspection

    # The slot is immediately rewritable and serves hits again.
    result = run_cell(simulator, trace)
    cache.put(key, result)
    restored = cache.get(key)
    assert restored is not None
    assert result_to_json(restored) == result_to_json(result)


def test_quarantined_entries_not_counted_as_cache_entries(tmp_path, simulator, trace):
    cache = ResultCache(tmp_path / "cache")
    key = cache_key("dir0b", simulator, trace_fingerprint(trace))
    cache.put(key, run_cell(simulator, trace))
    assert len(cache) == 1
    cache._path_for(key).write_bytes(b"garbage")
    assert cache.get(key) is None
    assert len(cache) == 0  # quarantine/ files are out of the namespace


def test_sweep_resimulates_through_garbage_cache_entry(tmp_path, trace):
    """End to end: a sweep hitting a corrupt entry re-simulates silently."""
    cache_dir = tmp_path / "cache"
    plan = ExecutionPlan(traces=[trace], schemes=["dir0b"])
    outcome_first = Engine(result_cache=ResultCache(cache_dir)).run(plan)
    entries = list(cache_dir.glob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("garbage, not a cached result", "utf-8")

    second_cache = ResultCache(cache_dir)
    outcome_second = Engine(result_cache=second_cache).run(plan)
    assert outcome_second.ok
    assert second_cache.quarantined == 1
    assert result_to_json(outcome_second.results["dir0b"][trace.name]) == (
        result_to_json(outcome_first.results["dir0b"][trace.name])
    )
    # The recomputed result was written back over the freed slot.
    rewritten = json.loads(entries[0].read_text("utf-8"))
    assert rewritten["version"] == CACHE_VERSION


def test_concurrent_puts_of_one_key_use_separate_temp_files(
    tmp_path, simulator, trace, monkeypatch
):
    cache = ResultCache(tmp_path / "cache")
    key = cache_key("dir0b", simulator, trace_fingerprint(trace))
    payload = result_to_json(run_cell(simulator, trace))
    temp_paths = []
    both_written = threading.Barrier(2, timeout=10.0)
    replace = os.replace

    def replace_after_both_writes(src, dst):
        temp_paths.append(str(src))
        both_written.wait()
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_both_writes)
    writers = [
        threading.Thread(target=cache.put_json, args=(key, payload))
        for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=10.0)
    assert not any(writer.is_alive() for writer in writers)
    monkeypatch.undo()

    assert len(set(temp_paths)) == 2
    assert result_to_json(cache.get(key)) == payload
    assert cache.quarantined == 0
