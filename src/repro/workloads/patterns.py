"""Reusable access-pattern building blocks for workload generators."""

from __future__ import annotations

import random
from dataclasses import dataclass


class LocalityPicker:
    """Index picker with a hot working set.

    With probability *p_hot* the pick comes from the first
    ``hot_fraction`` of the index range (the hot set); otherwise it is
    uniform over the whole range.  This yields the high re-reference
    rates real data regions show while still eventually touching every
    block (producing a realistic first-reference-miss tail).
    """

    def __init__(
        self, size: int, hot_fraction: float = 0.15, p_hot: float = 0.85
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= p_hot <= 1.0:
            raise ValueError("p_hot must be in [0, 1]")
        self._size = size
        self._hot_size = max(1, int(size * hot_fraction))
        self._p_hot = p_hot

    @property
    def draw_parameters(self) -> tuple[float, int, int]:
        """``(p_hot, hot_size, size)``: :meth:`pick` draws
        ``randrange(hot_size)`` when ``rng.random() < p_hot``, else
        ``randrange(size)``."""
        return self._p_hot, self._hot_size, self._size

    def pick(self, rng: random.Random) -> int:
        """Draw one index with hot-set locality."""
        if rng.random() < self._p_hot:
            return rng.randrange(self._hot_size)
        return rng.randrange(self._size)


@dataclass
class ProducerConsumerBuffers:
    """A set of single-producer, multi-consumer shared buffers.

    Buffer *b* is produced (written) by process ``b % num_processes``
    and consumed (read) by every other process — the classic
    one-writer/many-readers pattern that makes broadcast invalidation
    look attractive and sequential invalidation slightly costlier.
    """

    num_buffers: int
    blocks_per_buffer: int
    num_processes: int

    def __post_init__(self) -> None:
        if self.num_buffers < 1 or self.blocks_per_buffer < 1:
            raise ValueError("buffer dimensions must be >= 1")
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")

    def producer_of(self, buffer: int) -> int:
        """The pid that produces (writes) this buffer."""
        return buffer % self.num_processes

    def buffers_produced_by(self, pid: int) -> list[int]:
        """Buffers assigned to *pid* as producer."""
        return [
            buffer
            for buffer in range(self.num_buffers)
            if self.producer_of(buffer) == pid
        ]

    def block_index(self, buffer: int, slot: int) -> int:
        """Global block index within the buffer region."""
        return (buffer * self.blocks_per_buffer + slot % self.blocks_per_buffer)

    def random_slot(self, rng: random.Random) -> int:
        """Draw a uniform slot index within a buffer."""
        return rng.randrange(self.blocks_per_buffer)

    def random_buffer(self, rng: random.Random) -> int:
        """Draw a uniform buffer index."""
        return rng.randrange(self.num_buffers)
