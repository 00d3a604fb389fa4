"""Chunk-streamed simulation: bit-for-bit parity with the in-memory path.

The claims under test (docs/TRACESTORE.md):

* simulating a ``.ctrc`` chunk by chunk produces a result identical to
  simulating the same references in memory — for **every** registered
  protocol (the table-kernel protocols carry state across chunk
  boundaries in a resident session; the rest accumulate per chunk
  through a shared context);
* the parity survives pooled dispatch (chunk handles across the pickle
  boundary) and a checkpoint/resume cycle whose snapshot lands
  mid-chunk;
* streaming workload generation emits exactly the records the
  in-memory builder produces;
* writing and simulating a ``.ctrc`` hold one chunk: the heap peak
  stays within a small multiple of one chunk's raw size, whatever the
  trace length.
"""

import gc
import tracemalloc
from array import array
from itertools import islice

import pytest

from repro.core.simulator import Simulator
from repro.engine import Engine, ExecutionPlan
from repro.errors import CheckpointError
from repro.protocols.registry import available_protocols
from repro.runner.checkpoint import CheckpointManager, result_to_json
from repro.runner.faults import KillPoint, SaboteurProtocol
from repro.store import ChunkedTrace, pack_trace, write_stream
from repro.store.format import chunk_raw_size
from repro.trace.columnar import ColumnarTrace
from repro.trace.io import load_trace
from repro.workloads.registry import make_trace, stream_trace

LENGTH = 4000
CHUNK_RECORDS = 997  # prime: every chunk boundary is "awkward"


@pytest.fixture(scope="module")
def trace():
    return make_trace("pops", length=LENGTH, seed=7)


@pytest.fixture(scope="module")
def chunked(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "pops.ctrc"
    pack_trace(trace, path, chunk_records=CHUNK_RECORDS)
    with ChunkedTrace(path) as opened:
        yield opened


# ----------------------------------------------------------------------
# Serial parity, every protocol
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", available_protocols())
def test_chunked_equals_columnar_per_protocol(trace, chunked, scheme):
    simulator = Simulator()
    columnar = ColumnarTrace.from_trace(trace)
    streamed = simulator.run(chunked, scheme)
    in_memory = simulator.run(columnar, scheme)
    assert result_to_json(streamed) == result_to_json(in_memory)


def test_chunked_repeat_runs_are_stable(chunked):
    """madvise page release must not disturb a second pass."""
    simulator = Simulator()
    first = simulator.run(chunked, "dir0b")
    second = simulator.run(chunked, "dir0b")
    assert result_to_json(first) == result_to_json(second)


def test_resolve_protocol_sizes_from_index(chunked):
    """Machine sizing comes from the index, not a full scan."""
    simulator = Simulator()
    result = simulator.run(chunked, "dir1nb")
    assert result.total_refs == LENGTH
    assert chunked.pids == sorted(chunked.meta["pids"])


# ----------------------------------------------------------------------
# Pooled dispatch: handles across the pickle boundary
# ----------------------------------------------------------------------

def test_pooled_sweep_parity(trace, chunked):
    outcome = Engine(jobs=2).run(
        ExecutionPlan(traces=[chunked], schemes=["dir0b", "dragon"])
    )
    assert outcome.ok
    simulator = Simulator()
    columnar = ColumnarTrace.from_trace(trace)
    for scheme in ("dir0b", "dragon"):
        pooled = outcome.result(scheme, chunked.name)
        serial = simulator.run(columnar, scheme)
        serial.scheme = scheme
        assert result_to_json(pooled) == result_to_json(serial)


# ----------------------------------------------------------------------
# Mid-chunk checkpoint/resume
# ----------------------------------------------------------------------

def _killer(scheme: str, trigger_after: int):
    from repro.protocols.registry import make_protocol

    def factory(num_caches):
        return SaboteurProtocol(
            make_protocol(scheme, num_caches),
            trigger_after=trigger_after,
            mode="kill",
        )

    factory.scheme_key = scheme
    return factory


def test_midchunk_kill_and_resume_parity(trace, chunked, tmp_path):
    ckpt = tmp_path / "ckpt"
    checkpoint_every = 600  # never a multiple of the 997-record chunks
    plan = ExecutionPlan(traces=[chunked], schemes=[_killer("dir1nb", 900)])

    KillPoint.arm()
    try:
        with pytest.raises(KeyboardInterrupt):
            Engine(
                checkpoint=CheckpointManager(ckpt), checkpoint_every=checkpoint_every
            ).run(plan)
    finally:
        KillPoint.disarm()

    state = CheckpointManager(ckpt).load_cell_state()
    assert state is not None
    chunk_index, offset = state["chunk_position"]
    assert offset != 0, "snapshot must land mid-chunk"
    assert state["records_done"] == chunk_index * CHUNK_RECORDS + offset

    resumed = Engine(
        checkpoint=CheckpointManager(ckpt),
        checkpoint_every=checkpoint_every,
        resume=True,
    ).run(plan)
    assert resumed.ok
    plain = Simulator().run(ColumnarTrace.from_trace(trace), "dir1nb")
    plain.scheme = "dir1nb"
    assert result_to_json(resumed.result("dir1nb", chunked.name)) == \
        result_to_json(plain)


# Never a multiple of the 997-record chunks; 2,500-record windows span
# three chunks.
@pytest.mark.parametrize("checkpoint_every", [600, 2500])
def test_checkpointed_run_decodes_each_chunk_once(
    trace, chunked, tmp_path, monkeypatch, checkpoint_every
):
    decoded = []
    real_chunk = ChunkedTrace.chunk

    def counting(self, index):
        decoded.append(index)
        return real_chunk(self, index)

    snapshots = []
    real_save = CheckpointManager.save_cell_state

    def recording(self, state):
        snapshots.append((state["records_done"], state["chunk_position"]))
        return real_save(self, state)

    monkeypatch.setattr(ChunkedTrace, "chunk", counting)
    monkeypatch.setattr(CheckpointManager, "save_cell_state", recording)
    outcome = Engine(
        checkpoint=CheckpointManager(tmp_path / "ckpt"),
        checkpoint_every=checkpoint_every,
    ).run(ExecutionPlan(traces=[chunked], schemes=["dir0b"]))
    assert outcome.ok
    assert chunked.meta["chunks"][0]["codec"] == "zlib"
    assert decoded == list(range(chunked.num_chunks))
    # Windows end at multiples of checkpoint_every, then at the end.
    positions = [*range(checkpoint_every, LENGTH, checkpoint_every), LENGTH]
    assert snapshots == [
        (position, chunked.position_of(position)) for position in positions
    ]
    assert snapshots[-1][1] == (chunked.num_chunks, 0)

    plain = Simulator().run(ColumnarTrace.from_trace(trace), "dir0b")
    plain.scheme = "dir0b"
    assert result_to_json(outcome.result("dir0b", chunked.name)) == result_to_json(plain)


def test_resume_rejects_rechunked_file(trace, chunked, tmp_path):
    """A snapshot must not resume against a re-chunked store."""
    ckpt = tmp_path / "ckpt"
    factory = _killer("dir0b", 900)
    KillPoint.arm()
    try:
        with pytest.raises(KeyboardInterrupt):
            Engine(checkpoint=CheckpointManager(ckpt), checkpoint_every=600).run(
                ExecutionPlan(traces=[chunked], schemes=[factory])
            )
    finally:
        KillPoint.disarm()

    # Same records, different chunk geometry -> same fingerprint but a
    # different (chunk, offset) mapping for the snapshot position.
    repacked_path = tmp_path / "repacked.ctrc"
    pack_trace(trace, repacked_path, chunk_records=CHUNK_RECORDS - 100)
    with ChunkedTrace(repacked_path) as repacked:
        outcome = Engine(
            checkpoint=CheckpointManager(ckpt),
            checkpoint_every=600,
            resume=True,
            strict=False,
        ).run(ExecutionPlan(traces=[repacked], schemes=[factory]))
    failures = outcome.all_failures()
    assert failures and any(
        "chunk position" in failure.message or "snapshot" in failure.message
        for failure in failures
    )


# ----------------------------------------------------------------------
# Streaming generation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["pops", "thor", "pero"])
def test_stream_trace_matches_build(workload):
    streamed = list(stream_trace(workload, length=3000))
    built = make_trace(workload, length=3000).records
    assert streamed == built


def test_load_trace_sniffs_ctrc(trace, tmp_path):
    path = tmp_path / "sniff.ctrc"
    pack_trace(trace, path, chunk_records=512)
    loaded = load_trace(path)
    assert isinstance(loaded, ChunkedTrace)
    assert len(loaded) == len(trace)
    assert list(islice(loaded, 10)) == trace.records[:10]
    loaded.close()


# ----------------------------------------------------------------------
# Bounded heap: one chunk at a time
# ----------------------------------------------------------------------

HEAP_CHUNK_RECORDS = 32_768
#: Heap peak allowed, in raw chunk sizes.  One chunk's columns are 1x;
#: the writer adds the zlib stream state, the simulator the data-only
#: columns and the protocol's state.  A second live chunk breaks it.
HEAP_BOUND = 2.5


def heap_peak(action) -> float:
    """Peak traced heap while *action* runs, in raw chunk sizes."""
    gc.collect()
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1] / chunk_raw_size(HEAP_CHUNK_RECORDS)
    finally:
        tracemalloc.stop()


class SmallIntStream:
    """A trace served in 4,096-record column rounds, as a workload
    stream serves it.

    Two in three references are data references, on 16 blocks from 4
    processes.  The protocol's state therefore stays tiny, which
    leaves the chunk buffers as the only heap that can scale, and the
    columns build in a fraction of the time the generator takes.
    """

    ROUND = 4096

    def __init__(self, records: int) -> None:
        self.cpu = array("Q", (i % 4 for i in range(records)))
        self.type_code = bytes(i % 3 for i in range(records))
        self.address = array("Q", ((i * 48) & 0xF0 for i in range(records)))
        self.flags = bytes(records)

    def iter_columns(self):
        for start in range(0, len(self.cpu), self.ROUND):
            stop = start + self.ROUND
            cpu = self.cpu[start:stop]
            yield (
                cpu, cpu, self.type_code[start:stop], self.address[start:stop],
                self.flags[start:stop],
            )


@pytest.fixture(scope="module")
def heap_peaks(tmp_path_factory):
    """``{chunks: (write peak, simulate peak)}`` for 4- and 12-chunk zlib traces."""
    workdir = tmp_path_factory.mktemp("heap")
    # Warm every import and lazy table outside the measured calls.
    write_stream(SmallIntStream(100), workdir / "warm.ctrc")
    with ChunkedTrace(workdir / "warm.ctrc") as warm:
        Simulator().run(warm, "dir0b")
    peaks = {}
    for chunks in (4, 12):
        path = workdir / f"{chunks}.ctrc"
        stream = SmallIntStream(chunks * HEAP_CHUNK_RECORDS)
        write = heap_peak(
            lambda: write_stream(stream, path, chunk_records=HEAP_CHUNK_RECORDS)
        )
        with ChunkedTrace(path) as trace:
            assert trace.num_chunks == chunks
            simulate = heap_peak(lambda: Simulator().run(trace, "dir0b"))
        peaks[chunks] = (write, simulate)
    return peaks


def test_write_stream_holds_one_chunk(heap_peaks):
    for chunks, (write, _) in heap_peaks.items():
        assert write < HEAP_BOUND, f"{chunks} chunks: write peak {write:.2f}x"


def test_chunked_simulation_holds_one_chunk(heap_peaks):
    for chunks, (_, simulate) in heap_peaks.items():
        assert simulate < HEAP_BOUND, f"{chunks} chunks: simulate peak {simulate:.2f}x"


def test_heap_peak_does_not_grow_with_trace_length(heap_peaks):
    # Anything kept per chunk would add a whole chunk per chunk.
    (write4, simulate4), (write12, simulate12) = heap_peaks[4], heap_peaks[12]
    assert write12 - write4 < 0.25
    assert simulate12 - simulate4 < 0.25
