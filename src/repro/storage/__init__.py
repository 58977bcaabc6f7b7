"""Server storage substrate: the versioned item store and the write-ahead log.

The paper assumes (§1) "the standard protocol adopted by the s-2PL protocol
where each site uses WAL and garbage collects its log once the data are made
permanent at the server". Recovery itself is out of the paper's scope (it
cites [18] for that), but the logging/installation path is on the hot path of
both protocols — every commit installs new versions at the server — so it is
implemented and exercised here.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DataItem",
    "LogRecord",
    "LogRecordType",
    "VersionedStore",
    "WriteAheadLog",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.storage.store": ("DataItem", "VersionedStore"),
    "repro.storage.wal": ("LogRecord", "LogRecordType", "WriteAheadLog"),
})
