"""Directory-based coherence protocols (the paper's Dir_iX family)."""

from repro import lazy_exports

_EXPORTS = {
    "Dir1NBProtocol": "repro.protocols.directory.dir1nb",
    "MultiCopyDirectoryProtocol": "repro.protocols.directory.multicopy",
    "Dir0BProtocol": "repro.protocols.directory.dir0b",
    "DirNNBProtocol": "repro.protocols.directory.dirnnb",
    "DirIBProtocol": "repro.protocols.directory.diri",
    "DirINBProtocol": "repro.protocols.directory.diri",
    "CoarseVectorProtocol": "repro.protocols.directory.coarse",
    "YenFuProtocol": "repro.protocols.directory.yenfu",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
