"""Memory-system substrate: blocks, caches, and directory organizations."""

from repro import lazy_exports

_EXPORTS = {
    "BlockMapper": "repro.memory.address",
    "WORD_BYTES": "repro.memory.address",
    "DEFAULT_BLOCK_BYTES": "repro.memory.address",
    "LineState": "repro.memory.line",
    "DragonLineState": "repro.memory.line",
    "CacheModel": "repro.memory.cache",
    "InfiniteCache": "repro.memory.cache",
    "FiniteCache": "repro.memory.cache",
    "CacheGeometry": "repro.memory.geometry",
    "parse_geometry": "repro.memory.geometry",
    "DirectoryEntry": "repro.memory.directory",
    "DirectoryOrganization": "repro.memory.directory",
    "FullMapDirectory": "repro.memory.directory",
    "TwoBitDirectory": "repro.memory.directory",
    "TwoBitState": "repro.memory.directory",
    "LimitedPointerDirectory": "repro.memory.directory",
    "TangDirectory": "repro.memory.directory",
    "CoarseVectorDirectory": "repro.memory.directory",
    "directory_bits_per_block": "repro.memory.directory",
    "CoarseVector": "repro.memory.coding",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
