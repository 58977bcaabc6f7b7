"""Server storage substrate: the versioned item store.

Every commit installs its updates as new versions here. The paper assumes
(§1) "the standard protocol adopted by the s-2PL protocol where each site
uses WAL and garbage collects its log once the data are made permanent at
the server", and defers recovery to its companion paper [18]. That log
charges no simulated time, and no server crash is modelled, so it is not
simulated: a crashed client is recovered from this store (s-2PL's lock
sweep, g-2PL's chain repair), never from a log.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DataItem",
    "VersionedStore",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.storage.store": ("DataItem", "VersionedStore"),
})
