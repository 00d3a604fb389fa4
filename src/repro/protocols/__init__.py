"""Cache-coherence protocol state machines.

Each protocol consumes one data reference at a time and returns a
:class:`~repro.protocols.events.ProtocolResult`: the paper's Table-4
event classification for that reference plus the abstract bus
operations the transaction performs.  Event counting is thereby fully
decoupled from bus-cycle costs, exactly as in the paper's methodology
(Section 4.1).
"""

from repro import lazy_exports

_EXPORTS = {
    "EventType": "repro.protocols.events",
    "OpKind": "repro.protocols.events",
    "BusOp": "repro.protocols.events",
    "ProtocolResult": "repro.protocols.events",
    "mem_access": "repro.protocols.events",
    "cache_access": "repro.protocols.events",
    "write_back": "repro.protocols.events",
    "write_word": "repro.protocols.events",
    "dir_check": "repro.protocols.events",
    "dir_check_overlapped": "repro.protocols.events",
    "invalidate": "repro.protocols.events",
    "broadcast_invalidate": "repro.protocols.events",
    "CoherenceProtocol": "repro.protocols.base",
    "SnoopyProtocol": "repro.protocols.base",
    "DirectoryProtocol": "repro.protocols.base",
    "available_protocols": "repro.protocols.registry",
    "make_protocol": "repro.protocols.registry",
    "protocol_class": "repro.protocols.registry",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
