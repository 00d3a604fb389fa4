"""Address-space layout for synthetic workloads.

Carves a 32-bit-style address space into disjoint regions: per-process
code and private data, the shared data structures (read-mostly tables,
migratory objects, producer-consumer buffers), lock words with their
protected data, and kernel text/data for the OS-activity component.
All region bases are block-aligned and far enough apart that regions
never overlap for up to :data:`MAX_PROCESSES` processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.address import DEFAULT_BLOCK_BYTES

_INSTR_BASE = 0x0100_0000
_PRIVATE_BASE = 0x2000_0000
_SHARED_READ_BASE = 0x4000_0000
_MIGRATORY_BASE = 0x5000_0000
_BUFFER_BASE = 0x6000_0000
_LOCK_BASE = 0x7000_0000
_PROTECTED_BASE = 0x7100_0000
_KERNEL_TEXT_BASE = 0x8000_0000
_KERNEL_DATA_BASE = 0x9000_0000
_KERNEL_PRIVATE_BASE = _KERNEL_DATA_BASE + 0x0008_0000
_ADDRESS_SPACE_END = 0x1_0000_0000
_PER_PROCESS_STRIDE = 0x0010_0000

#: Processes whose per-process regions (code, private data, kernel
#: private data) fit below the next region up.  Each process's slice is
#: ``_PER_PROCESS_STRIDE`` bytes, so the tightest gap sets the limit:
#: the code region, which has 496 slices before private data begins.
MAX_PROCESSES = min(
    (_PRIVATE_BASE - _INSTR_BASE) // _PER_PROCESS_STRIDE,
    (_SHARED_READ_BASE - _PRIVATE_BASE) // _PER_PROCESS_STRIDE,
    (_ADDRESS_SPACE_END - _KERNEL_PRIVATE_BASE) // _PER_PROCESS_STRIDE,
)


@dataclass(frozen=True)
class AddressSpaceLayout:
    """Block-aligned region map for one synthetic workload.

    All ``*_blocks`` attributes size their region in cache blocks; the
    per-process regions are replicated at a fixed stride per pid.
    """

    block_bytes: int = DEFAULT_BLOCK_BYTES
    private_blocks: int = 128
    shared_read_blocks: int = 64
    migratory_blocks: int = 32
    buffer_blocks: int = 32
    protected_blocks_per_lock: int = 4
    kernel_shared_blocks: int = 48
    kernel_private_blocks: int = 32

    def __post_init__(self) -> None:
        for name in (
            "private_blocks",
            "shared_read_blocks",
            "migratory_blocks",
            "buffer_blocks",
            "protected_blocks_per_lock",
            "kernel_shared_blocks",
            "kernel_private_blocks",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < MAX_PROCESSES:
            raise ValueError(f"pid {pid} outside supported range [0, {MAX_PROCESSES})")

    def instr_address(self, pid: int, offset_words: int) -> int:
        """Instruction-fetch address for a process's code region."""
        self._check_pid(pid)
        return _INSTR_BASE + pid * _PER_PROCESS_STRIDE + 4 * offset_words

    def private_address(self, pid: int, block_index: int) -> int:
        """A block in one process's private data region."""
        self._check_pid(pid)
        index = block_index % self.private_blocks
        return _PRIVATE_BASE + pid * _PER_PROCESS_STRIDE + index * self.block_bytes

    def shared_read_address(self, block_index: int) -> int:
        """A block in the shared read-mostly region."""
        return _SHARED_READ_BASE + (block_index % self.shared_read_blocks) * self.block_bytes

    def migratory_address(self, block_index: int) -> int:
        """A block in the migratory shared-object region."""
        return _MIGRATORY_BASE + (block_index % self.migratory_blocks) * self.block_bytes

    def buffer_address(self, block_index: int) -> int:
        """A block in the producer-consumer buffer region."""
        return _BUFFER_BASE + (block_index % self.buffer_blocks) * self.block_bytes

    def lock_address(self, lock_index: int) -> int:
        """The lock word for lock *lock_index* (one block per lock)."""
        if lock_index < 0:
            raise ValueError("lock_index must be non-negative")
        return _LOCK_BASE + lock_index * self.block_bytes

    def protected_address(self, lock_index: int, block_index: int) -> int:
        """Data protected by lock *lock_index*."""
        if lock_index < 0:
            raise ValueError("lock_index must be non-negative")
        base = _PROTECTED_BASE + lock_index * self.protected_blocks_per_lock * self.block_bytes
        return base + (block_index % self.protected_blocks_per_lock) * self.block_bytes

    def kernel_text_address(self, offset_words: int) -> int:
        """Kernel instruction fetch address (shared text)."""
        return _KERNEL_TEXT_BASE + 4 * offset_words

    def kernel_shared_address(self, block_index: int) -> int:
        """Kernel data shared across processes (run queues, etc.)."""
        return _KERNEL_DATA_BASE + (block_index % self.kernel_shared_blocks) * self.block_bytes

    def kernel_private_address(self, pid: int, block_index: int) -> int:
        """Kernel data private to one process (u-area analogue)."""
        self._check_pid(pid)
        base = _KERNEL_PRIVATE_BASE + pid * _PER_PROCESS_STRIDE
        return base + (block_index % self.kernel_private_blocks) * self.block_bytes
