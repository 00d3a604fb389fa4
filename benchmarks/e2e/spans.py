"""In-memory spans around calls into the program's public entry points.

The harness measures each layer from outside: :meth:`Tracer.wrap`
replaces a public function or method at the name its callers look up
(``repro.engine.plan.trace_fingerprint``, not only the defining
module) with a wrapper that records one span per call.  Spans stay in
memory and are written as JSON Lines once, when the run ends.

A span's *self time* is its duration minus the part covered by its
direct children; the self time of a workload's root span is the wall
time no layer span accounts for.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    workload: str = ""
    iteration: Any = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one workload run.

    Args:
        workload: the workload name stamped on every span.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self.iteration: Any = None
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs: Any) -> Iterator[Span]:
        """Record a span around the ``with`` body (nested spans get a parent)."""
        record = Span(
            id=len(self.spans),
            name=name,
            layer=layer,
            start=time.perf_counter(),
            parent=self._stack[-1].id if self._stack else None,
            workload=self.workload,
            iteration=self.iteration,
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        describe: Callable[..., dict[str, Any]] | None = None,
    ) -> None:
        """Record a span per call of ``owner.attr`` until :meth:`unwrap`.

        *describe*, called as ``describe(result, *args, **kwargs)`` after
        the call returns, gives attributes for the span (for example the
        number of references it covered).  A generator function gets one
        span per item it produces, so the consumer's work between items
        is not counted against it.
        """
        raw = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        if inspect.isgeneratorfunction(getattr(target, "__func__", target)):

            @functools.wraps(target)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = target(*args, **kwargs)
                while True:
                    with tracer.span(name, layer):
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    yield item

        else:

            @functools.wraps(target)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name, layer) as record:
                    result = target(*args, **kwargs)
                if describe is not None:
                    record.attrs.update(describe(result, *args, **kwargs))
                return result

        if isinstance(raw, (classmethod, staticmethod)):
            # ``target`` is already bound to the class.
            setattr(owner, attr, staticmethod(wrapper))
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- queries -------------------------------------------------------

    def named(self, suffix: str, within: Span | None = None) -> list[Span]:
        """Spans whose name ends with *suffix* (optionally under *within*)."""
        found = [span for span in self.spans if span.name.endswith(suffix)]
        if within is not None:
            found = [span for span in found if self.is_under(span, within)]
        return found

    def is_under(self, span: Span, ancestor: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if parent == ancestor.id:
                return True
            parent = self.spans[parent].parent
        return False

    def total(self, suffix: str, within: Span | None = None) -> float:
        """Summed duration of the spans :meth:`named` returns."""
        return sum(span.duration for span in self.named(suffix, within))

    def self_time(self, span: Span) -> float:
        """*span*'s duration minus its direct children's."""
        children = sum(
            child.duration for child in self.spans if child.parent == span.id
        )
        return span.duration - children

    def dump(self, path: Any) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")
