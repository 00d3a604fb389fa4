"""Protocol work per reference must not grow with the trace footprint.

Each protocol handles the same reference sequence over a few hot blocks
twice: once alone and once after thousands of other blocks were cached.
Work is counted as executed Python lines (a scan over per-block state
executes its loop line once per visited key), never as wall time.
"""

import random
import sys

import pytest

from repro.protocols.registry import available_protocols, make_protocol

CACHES = 4
HOT_BLOCKS = 32


def lines_per_reference(scheme: str, background_blocks: int, refs: int = 400) -> float:
    protocol = make_protocol(scheme, CACHES)
    seen: set[int] = set()

    def reference(cache: int, write: bool, block: int) -> None:
        first = block not in seen
        seen.add(block)
        (protocol.on_write if write else protocol.on_read)(cache, block, first)

    rng = random.Random(1)
    for block in range(HOT_BLOCKS, HOT_BLOCKS + background_blocks):
        reference(rng.randrange(CACHES), rng.random() < 0.3, block)
    rng = random.Random(2)
    sequence = [
        (rng.randrange(CACHES), rng.random() < 0.3, rng.randrange(HOT_BLOCKS))
        for _ in range(refs)
    ]
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for item in sequence:
            reference(*item)
    finally:
        sys.settrace(previous)
    return lines / refs


@pytest.mark.parametrize("scheme", available_protocols())
def test_work_per_reference_is_independent_of_footprint(scheme):
    small = lines_per_reference(scheme, background_blocks=0)
    large = lines_per_reference(scheme, background_blocks=2_000)
    assert large <= 1.05 * small, (scheme, small, large)
