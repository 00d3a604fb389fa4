"""Workload registry: build the paper's three traces by name."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.errors import UnknownSchemeError
from repro.trace.stream import Trace
from repro.workloads.base import SyntheticWorkload, WorkloadConfig, WorkloadStream
from repro.workloads.pero import pero_config
from repro.workloads.pops import pops_config
from repro.workloads.thor import thor_config

_CONFIGS: dict[str, Callable[..., WorkloadConfig]] = {
    "pops": pops_config,
    "thor": thor_config,
    "pero": pero_config,
}

DEFAULT_LENGTH = 200_000
"""Default trace length; the paper's traces are ~3.2M references, which
a pure-Python study scales down while keeping the reference mix."""


def available_workloads() -> list[str]:
    """Sorted names of the built-in workload analogues."""
    return sorted(_CONFIGS)


def workload_config(name: str, length: int = DEFAULT_LENGTH, **kwargs) -> WorkloadConfig:
    """The configuration of a named workload analogue."""
    try:
        factory = _CONFIGS[name.lower()]
    except KeyError:
        raise UnknownSchemeError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        ) from None
    return factory(length=length, **kwargs)


def make_trace(name: str, length: int = DEFAULT_LENGTH, **kwargs) -> Trace:
    """Generate a named workload's trace."""
    return SyntheticWorkload(workload_config(name, length=length, **kwargs)).build()


def stream_trace(name: str, length: int = DEFAULT_LENGTH, **kwargs) -> WorkloadStream:
    """Stream a named workload without materializing the trace.

    The returned :class:`~repro.workloads.base.WorkloadStream` iterates
    exactly the records :func:`make_trace` would produce (the generator
    is the same code path) and also hands out each scheduling round's
    columns, which :func:`repro.store.write_stream` packs straight into
    a ``.ctrc`` file whose fingerprint matches the in-memory trace — at
    bounded memory for any length.
    """
    return WorkloadStream(workload_config(name, length=length, **kwargs))


@lru_cache(maxsize=8)
def _cached_standard(length: int) -> tuple[Trace, ...]:
    return tuple(make_trace(name, length=length) for name in ("pops", "thor", "pero"))


def standard_traces(length: int = DEFAULT_LENGTH) -> list[Trace]:
    """The three-trace suite used throughout the evaluation.

    Cached per length: generating traces is the most expensive step of
    an experiment and every table/figure reuses the same three.
    """
    return list(_cached_standard(length))
