"""Incremental, representation-independent trace fingerprinting.

The result cache, the fabric's fleet-wide dedup, and the service's
cell coalescing all key on a SHA-256 of the trace *content*: one
canonical ``cpu pid type address flags`` ASCII line per record, after
a fixed header.  Historically that hash was computed by a single
function over a materialized trace; the chunked on-disk store
(:mod:`repro.store`) needs to fingerprint traces far larger than RAM,
so the hash is now built around :class:`TraceHasher` — an incremental
hasher that any representation (record lists, columnar arrays, on-disk
chunks) can feed piece by piece.

The byte stream hashed is identical for every representation — and
identical to the pre-refactor digests — so existing ResultCache
entries and fabric dedup keys remain valid
(``tests/test_store_roundtrip.py`` holds the three-way agreement).
"""

from __future__ import annotations

from typing import Any, Iterable

# CPython's built-in SHA-256 rather than OpenSSL's: the standard hash
# module maps libcrypto, about 4 MB of peak RSS, while the built-in one
# costs almost nothing and gives the same digests.  ``random`` imports
# its ``_sha512`` the same way.  This is the one SHA-256 of the package;
# every content hash imports it from here.
try:
    from _sha256 import sha256  # Python 3.10, 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

from repro.trace.record import RefType, TraceRecord

#: Domain-separation header; bump the suffix if the line format changes.
FP_HEADER = b"repro-trace-fp-v1\n"

_REF_CODES = {RefType.INSTR: 0, RefType.READ: 1, RefType.WRITE: 2}

#: Records per hashed batch when feeding columns.  Each batch is one
#: ``%``-format of a repeated line template over the batch's values, so
#: the per-record work runs in C; 4,096 records keep the batch's value
#: list and text under 1 MB while the per-batch Python overhead stays
#: amortized.
_BATCH = 4096

#: One canonical record line; the batch template repeats it.  A bytes
#: template formats straight to the hashed bytes, with no encode step.
_LINE = b"%d %d %d %d %d\n"
_BATCH_TEMPLATE = _LINE * _BATCH


class TraceHasher:
    """Streaming builder of the canonical trace content digest.

    Feed records or column batches in trace order — mixing the two is
    fine, the hashed byte stream depends only on the record values —
    then read :meth:`hexdigest`.
    """

    __slots__ = ("_digest",)

    def __init__(self) -> None:
        self._digest = sha256(FP_HEADER)

    def update_records(self, records: Iterable[TraceRecord]) -> None:
        """Hash a run of :class:`TraceRecord` objects in order."""
        update = self._digest.update
        codes = _REF_CODES
        for record in records:
            flags = (
                (1 if record.system else 0)
                | (2 if record.lock else 0)
                | (4 if record.spin else 0)
            )
            update(
                f"{record.cpu} {record.pid} {codes[record.ref_type]} "
                f"{record.address} {flags}\n".encode("ascii")
            )

    def update_columns(
        self,
        cpu: Any,
        pid: Any,
        type_code: Any,
        address: Any,
        flags: Any,
    ) -> None:
        """Hash one run of parallel columns (the columnar layouts).

        Accepts any sliceable int sequences (arrays of any width, ``bytes``,
        ``memoryview`` casts); produces exactly the bytes
        :meth:`update_records` would for the equivalent records.
        """
        update = self._digest.update
        total = len(type_code)
        # One value list per call, reused by every full batch: each
        # column lands in its record field by one extended-slice
        # assignment, so no per-record tuple is built.
        values: list[int] = []
        for start in range(0, total, _BATCH):
            stop = min(start + _BATCH, total)
            count = stop - start
            if len(values) != 5 * count:
                values = [0] * (5 * count)
            values[0::5] = cpu[start:stop]
            values[1::5] = pid[start:stop]
            values[2::5] = type_code[start:stop]
            values[3::5] = address[start:stop]
            values[4::5] = flags[start:stop]
            template = _BATCH_TEMPLATE if count == _BATCH else _LINE * count
            update(template % tuple(values))

    def hexdigest(self) -> str:
        """The digest over everything fed so far (non-destructive)."""
        return self._digest.hexdigest()


def fingerprint_trace(trace: Any) -> str:
    """Content hash of a trace, independent of its representation.

    Hashes one canonical ``cpu pid type address flags`` line per record
    in order.  The trace's name and description are deliberately
    excluded: two differently-named traces with identical records are
    the same workload.  The columns come a chunk at a time from
    :func:`~repro.trace.columnar.columnar_chunks`, so a chunked store is
    hashed over its decoded (crc-verified) content, not the index's
    advisory copy, and a record stream is packed before it is hashed.
    """
    from repro.trace.columnar import columnar_chunks

    hasher = TraceHasher()
    for chunk in columnar_chunks(trace):
        hasher.update_columns(
            chunk.cpu, chunk.pid, chunk.type_code, chunk.address, chunk.flags
        )
        del chunk  # drop it before the next one decodes
    return hasher.hexdigest()
