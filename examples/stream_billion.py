"""Stream an arbitrarily long trace to disk and simulate it at bounded memory.

The paper's traces are ~3.2M references; the in-memory reproduction
scales them down to fit comfortably in RAM.  The chunked trace store
(``docs/TRACESTORE.md``) removes that constraint: the workload
generator emits one scheduling round at a time, the ``.ctrc`` writer holds one
chunk of columns, and the simulator replays one decoded chunk at a
time — so the only resource that scales with trace length is disk.

This example streams a configurable number of references (default ten
million; pass a count to go higher — a billion works, given ~25 GB of
disk and a few hours) and demonstrates:

* streaming generation (``stream_trace`` -> ``write_stream``),
* index inspection without touching the chunk data,
* bounded-memory simulation bit-identical to the in-memory path,
* mid-chunk checkpoint/resume over the same file.

Run:  python examples/stream_billion.py [references]
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.core.simulator import Simulator
from repro.engine import Engine, ExecutionPlan
from repro.runner.checkpoint import CheckpointManager
from repro.store import ChunkedTrace, write_stream
from repro.workloads.registry import stream_trace

LENGTH = 10_000_000
WORKLOAD = "pops"
SCHEMES = ["dir0b", "dragon"]


def human(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024:
            return f"{n:,.1f} {unit}"
        n /= 1024
    return f"{n:,.1f} TB"


def main() -> None:
    length = int(sys.argv[1]) if len(sys.argv) > 1 else LENGTH

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{WORKLOAD}-{length}.ctrc"

        # 1. Stream the workload to disk, one scheduling round's
        # columns at a time.  The writer never holds more than one
        # chunk (262,144 references) of column buffers, so this runs at
        # the same memory footprint whether length is ten thousand or
        # ten billion.
        print(f"streaming {length:,} references of '{WORKLOAD}' ...")
        start = time.perf_counter()
        meta = write_stream(stream_trace(WORKLOAD, length=length), path, WORKLOAD)
        elapsed = time.perf_counter() - start
        print(
            f"  {meta['records']:,} records -> {len(meta['chunks'])} chunks, "
            f"{human(path.stat().st_size)} on disk "
            f"({length / elapsed:,.0f} rec/s)"
        )

        # 2. Open cost is O(index): the header, footer, and JSON index
        # are validated; no chunk is decoded until simulation asks.
        with ChunkedTrace(path) as trace:
            print(
                f"  index: {trace.num_chunks} chunks, "
                f"{len(trace.cpus)} cpus, {len(trace.pids)} pids, "
                f"fingerprint {meta['fingerprint'][:16]}..."
            )

            # 3. Simulate chunk by chunk.  The transition tables
            # carry their state across chunk boundaries, so the result
            # is bit-identical to a whole-trace in-memory run.
            simulator = Simulator()
            results = {}
            for scheme in SCHEMES:
                start = time.perf_counter()
                results[scheme] = simulator.run(trace, scheme)
                rate = len(trace) / (time.perf_counter() - start)
                miss = results[scheme].frequencies().data_miss_rate()
                print(
                    f"  {scheme:>7s}: data miss {miss:7.4%}  "
                    f"({rate:,.0f} refs/s, memory stays flat)"
                )

            # 4. Checkpoint/resume works mid-chunk: the snapshot
            # records (chunk index, intra-chunk offset), and a resumed
            # run picks up from that exact reference.
            engine = Engine(
                checkpoint=CheckpointManager(Path(tmp) / "ckpt"),
                checkpoint_every=100_000,
            )
            outcome = engine.run(ExecutionPlan(traces=[trace], schemes=SCHEMES[:1]))
            checkpointed = outcome.result(SCHEMES[0], trace.name)
            assert checkpointed == results[SCHEMES[0]]
            print("  windowed checkpoint run matches the streamed run exactly")


if __name__ == "__main__":
    main()
