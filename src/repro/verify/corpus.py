"""The golden regression corpus: minimized reproducers kept forever.

Every fuzz failure, once shrunk, becomes a permanent regression test: a
tiny text-format trace plus a JSON sidecar recording where it came from
(seed, pattern, failing scheme, failure kind).  The corpus lives under
``tests/corpus/`` and is replayed by the tier-1 CI job, so a protocol
bug fixed once can never silently return.

Entries are content-addressed — the file stem embeds a short hash of
the records — so saving the same reproducer twice is a no-op and two
fuzz campaigns that find the same minimal trace converge on one file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.trace.fingerprint import sha256
from repro.trace.io import format_record, load_trace, write_trace_file
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace

_TRACE_SUFFIX = ".trace"
_META_SUFFIX = ".json"


def _content_key(records: Sequence[TraceRecord]) -> str:
    """Short content hash of a record list (the dedup key)."""
    text = "\n".join(format_record(record) for record in records)
    return sha256(text.encode("ascii")).hexdigest()[:12]


@dataclass(frozen=True)
class CorpusEntry:
    """One golden reproducer: the minimized trace plus its provenance."""

    name: str
    trace_path: Path
    meta: dict[str, Any]

    def load(self) -> Trace:
        """The reproducer as a live trace (records read eagerly)."""
        return load_trace(self.trace_path, name=self.name)


class Corpus:
    """A directory of minimized reproducer traces with JSON provenance.

    Args:
        root: the corpus directory (created on first save).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------

    def save(self, trace: Trace, meta: dict[str, Any] | None = None) -> Path | None:
        """Persist a reproducer; returns its path, or None when already present.

        The stored name is ``<trace name>-<content hash>`` so distinct
        failures from one campaign never collide while byte-identical
        reproducers deduplicate regardless of which run found them.
        """
        records = list(trace.records)
        key = _content_key(records)
        if any(key == entry.meta.get("content_key") for entry in self.entries()):
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        stem = f"{trace.name}-{key}"
        trace_path = self.root / f"{stem}{_TRACE_SUFFIX}"
        payload = dict(meta or {})
        payload.setdefault("name", trace.name)
        payload["content_key"] = key
        payload["refs"] = len(records)
        if trace.description:
            payload.setdefault("description", trace.description)
        write_trace_file(
            records,
            trace_path,
            header=[
                f"golden reproducer {stem}",
                json.dumps(payload, sort_keys=True),
            ],
        )
        meta_path = self.root / f"{stem}{_META_SUFFIX}"
        meta_path.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="ascii"
        )
        return trace_path

    # ------------------------------------------------------------------

    def entries(self) -> list[CorpusEntry]:
        """Every corpus entry, sorted by name (deterministic replay order)."""
        if not self.root.is_dir():
            return []
        found = []
        for trace_path in sorted(self.root.glob(f"*{_TRACE_SUFFIX}")):
            meta_path = trace_path.with_suffix(_META_SUFFIX)
            meta: dict[str, Any] = {}
            if meta_path.is_file():
                try:
                    meta = json.loads(meta_path.read_text(encoding="ascii"))
                except (ValueError, OSError):
                    meta = {}
            found.append(
                CorpusEntry(name=trace_path.stem, trace_path=trace_path, meta=meta)
            )
        return found

    def traces(self) -> Iterator[Trace]:
        """The corpus as live traces, in replay order."""
        for entry in self.entries():
            yield entry.load()

    def __len__(self) -> int:
        return len(self.entries())

    # ------------------------------------------------------------------

    def replay(self, checker) -> "ConformanceReport":
        """Run every corpus trace through *checker*; all must pass clean.

        Corpus traces are *minimized reproducers of fixed bugs*: the
        checker must now find nothing on them.  Entries whose metadata
        carries a ``geometry`` replay as finite-capacity cells (every
        scheme simulates the trace under that cache geometry, with the
        oracle's eviction audit engaged).  Returns one merged
        :class:`~repro.verify.checker.ConformanceReport` covering every
        geometry group.
        """
        from repro.verify.checker import ConformanceReport

        groups: dict[str | None, list[Trace]] = {}
        for entry in self.entries():
            geometry = entry.meta.get("geometry")
            groups.setdefault(geometry, []).append(entry.load())

        merged = ConformanceReport()
        # Infinite entries first, then finite groups in geometry order,
        # so replay order (and the report digest) is deterministic.
        for geometry in sorted(groups, key=lambda g: (g is not None, g or "")):
            specs = None
            if geometry is not None:
                specs = checker.specs_for((geometry,))
            report = checker.check(groups[geometry], specs=specs)
            for scheme in report.schemes:
                if scheme not in merged.schemes:
                    merged.schemes.append(scheme)
            merged.trace_names.extend(report.trace_names)
            merged.cells += report.cells
            merged.findings.extend(report.findings)
            merged.summaries.update(report.summaries)
        return merged
