"""Snoopy (bus-based) coherence protocols used as comparison points."""

from repro import lazy_exports

_EXPORTS = {
    "WTIProtocol": "repro.protocols.snoopy.wti",
    "DragonProtocol": "repro.protocols.snoopy.dragon",
    "BerkeleyProtocol": "repro.protocols.snoopy.berkeley",
    "WriteOnceProtocol": "repro.protocols.snoopy.writeonce",
    "WriteOnceState": "repro.protocols.snoopy.writeonce",
    "IllinoisProtocol": "repro.protocols.snoopy.illinois",
    "MESIState": "repro.protocols.snoopy.illinois",
    "AdaptiveProtocol": "repro.protocols.snoopy.adaptive",
}

__all__ = list(_EXPORTS)

lazy_exports(__name__, _EXPORTS)
