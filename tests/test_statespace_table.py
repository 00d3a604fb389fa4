"""The state-space search walks the transition table: counts and rows."""

import random

import pytest

from repro.cli import main
from repro.core.statespace import enumerate_transitions
from repro.errors import ProtocolError
from repro.protocols import registry
from repro.protocols.registry import available_protocols, make_protocol

#: ``repro verify`` with no flags: (caches, states, transitions) per scheme.
VERIFY_COUNTS = {
    "adaptive": (3, 83, 498),
    "berkeley": (3, 11, 66),
    "coarse-vector": (4, 20, 160),
    "dir0b": (3, 11, 66),
    "dir1nb": (3, 7, 42),
    "dirib": (3, 11, 66),
    "dirinb": (3, 13, 78),
    "dirnnb": (3, 11, 66),
    "dragon": (3, 20, 120),
    "illinois": (3, 11, 66),
    "write-once": (3, 14, 84),
    "wti": (3, 8, 48),
    "yenfu": (3, 11, 66),
}


def test_verify_counts_are_pinned_for_every_protocol(capsys):
    assert sorted(VERIFY_COUNTS) == sorted(available_protocols())
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"{scheme:14s} caches={caches} states={states:5d} "
        f"transitions={transitions:6d} ok"
        for scheme, (caches, states, transitions) in sorted(VERIFY_COUNTS.items())
    ]


def _outcomes(rows, mine, others, operation):
    return {
        (row.requester_after, row.ops)
        for row in rows
        if (row.requester_state, row.others, row.operation, row.first_ref)
        == (mine, others, operation, False)
    }


def test_a_situation_with_two_outcomes_lists_both():
    """Hidden per-block state can send one situation two ways."""
    adaptive = enumerate_transitions("adaptive", num_caches=3)
    assert len(adaptive) == 28
    word = (("write-word", 1),)
    # The dead-update count decides whether the writer takes the block.
    for others in (("shared-clean",), ("shared-clean", "shared-clean")):
        assert _outcomes(adaptive, "shared-dirty", others, "w") == {
            ("shared-dirty", word),
            ("dirty", word),
        }

    coarse = enumerate_transitions("coarse-vector", num_caches=4)
    assert len(coarse) == 22
    # The vector's groups decide how many caches are sent invalidates.
    miss = (("dir-check-overlapped", 1), ("mem-access", 1))
    assert _outcomes(coarse, None, ("clean", "clean"), "w") == {
        ("dirty", miss + (("invalidate", 2),)),
        ("dirty", miss + (("invalidate", 3),)),
    }
    assert _outcomes(coarse, "clean", ("clean",), "w") == {
        ("dirty", (("dir-check", 1), ("invalidate", 1))),
        ("dirty", (("dir-check", 1), ("invalidate", 3))),
    }


@pytest.mark.parametrize("scheme", available_protocols())
def test_every_transition_a_random_walk_takes_is_listed(scheme):
    """Drive the object model directly; each step must be a listed row."""
    caches = 4 if scheme == "coarse-vector" else 3
    listed = {
        (r.requester_state, r.others, r.operation, r.first_ref, r.event, r.ops,
         r.requester_after)
        for r in enumerate_transitions(scheme, num_caches=caches)
    }
    rng = random.Random(scheme)
    for _ in range(20):
        protocol = make_protocol(scheme, caches)
        for step in range(30):
            cache = rng.randrange(caches)
            operation = rng.choice("rw")
            holders = protocol.holders(0)
            handler = protocol.on_read if operation == "r" else protocol.on_write
            outcome = handler(cache, 0, step == 0)
            after = protocol.holders(0)
            row = (
                holders[cache].value if cache in holders else None,
                tuple(sorted(s.value for c, s in holders.items() if c != cache)),
                operation,
                step == 0,
                outcome.event.value,
                tuple((op.kind.value, op.count) for op in outcome.ops),
                after[cache].value if cache in after else None,
            )
            assert row in listed, row


def test_a_protocol_that_fails_the_search_has_no_table(monkeypatch):
    """Its violating moves would otherwise just be missing from the rows."""
    from repro.memory.line import LineState
    from repro.protocols.directory.dir0b import Dir0BProtocol

    class Resurrecting(Dir0BProtocol):
        def on_write(self, cache, block, first_ref):
            result = super().on_write(cache, block, first_ref)
            if not first_ref:
                self._caches[(cache + 1) % self.num_caches].put(block, LineState.CLEAN)
            return result

    monkeypatch.setitem(registry._REGISTRY, "dir0b", Resurrecting)
    with pytest.raises(ProtocolError, match="dir0b: .* violation"):
        enumerate_transitions("dir0b", num_caches=3)
