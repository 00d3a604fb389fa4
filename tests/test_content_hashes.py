"""Content hashes: one SHA-256 for the package, with pinned digests.

Trace fingerprints, result-cache keys and job-spec hashes name results
on disk and across processes, so their bytes must never move.  The
literal pins below were computed with ``hashlib.sha256``.
"""

import hashlib

import pytest

from repro.core.simulator import Simulator
from repro.runner.cache import cache_key, trace_fingerprint
from repro.service.spec import parse_job_spec
from repro.trace.fingerprint import sha256
from repro.workloads.registry import make_trace


@pytest.mark.parametrize(
    "data", [b"", b"abc", bytes(range(256)) * 4096], ids=["empty", "3B", "1MiB"]
)
def test_sha256_equals_hashlib(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    split = sha256(data[:7])
    split.update(data[7:])
    assert split.hexdigest() == hashlib.sha256(data).hexdigest()


def test_cache_key_is_pinned():
    fp = trace_fingerprint(make_trace("pops", length=1500, seed=1))
    assert fp == "2a5f55e3dad20565cf97e23cb80bb4168707d390ca186c87ae804be505c7cfe7"
    assert cache_key("dir0b", Simulator(), fp) == (
        "90e53dd6726194511106cc5ec5394258160aa86eaec040e214e4d22107d7e661"
    )


def test_spec_hash_is_pinned():
    spec = parse_job_spec(
        {
            "schemes": ["dir0b", {"name": "dirinb", "options": {"num_pointers": 3}}],
            "traces": [{"workload": "pops", "length": 500}],
            "priority": 5,
            "dedup": True,
            "tags": {"k": "v"},
        }
    )
    assert spec.spec_hash() == (
        "769eaee3071dc94124eee4c55996836ed6fd14999d1437e1700865251b2e00f8"
    )
