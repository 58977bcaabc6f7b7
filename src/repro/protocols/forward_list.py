"""The forward list (FL): g-2PL's per-item dispatch schedule (§3.2).

An FL is a sequence of entries, each either a *read group* (one or more
transactions that may hold the item in shared mode simultaneously) or a
single *writer*. Consecutive read entries are always merged, so entries
alternate between read groups and writers. The list travels with the data:
each client receives the tail starting at its own entry, so it knows its
co-readers and its successor.
"""

from dataclasses import dataclass

from repro.locking.modes import LockMode


@dataclass(slots=True, unsafe_hash=True)
class TxnRef:
    """Enough identity to route messages to a transaction (hashed inside
    :meth:`FLEntry.__hash__`, hence ``unsafe_hash``)."""

    txn_id: int
    client_id: int


class FLEntry:
    """One forward-list entry: a read group or a single writer."""

    __slots__ = ("mode", "txns")

    def __init__(self, mode, txns):
        txns = tuple(txns)
        if not txns:
            raise ValueError("empty forward-list entry")
        if mode is LockMode.WRITE and len(txns) != 1:
            raise ValueError("a write entry holds exactly one transaction")
        self.mode = mode
        self.txns = txns

    @property
    def is_read_group(self):
        return self.mode is LockMode.READ

    @property
    def writer(self):
        if self.mode is not LockMode.WRITE:
            raise ValueError("not a write entry")
        return self.txns[0]

    def txn_ids(self):
        return tuple(ref.txn_id for ref in self.txns)

    def __eq__(self, other):
        return (isinstance(other, FLEntry)
                and self.mode is other.mode and self.txns == other.txns)

    def __hash__(self):
        return hash((self.mode, self.txns))

    def __repr__(self):
        kind = "R" if self.is_read_group else "W"
        ids = ",".join(str(ref.txn_id) for ref in self.txns)
        return f"{kind}[{ids}]"


class ForwardList:
    """An immutable-in-spirit sequence of :class:`FLEntry`."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        self.entries = tuple(entries)

    @classmethod
    def from_requests(cls, requests):
        """Build an FL from an ordered list of (TxnRef, mode) pairs,
        merging maximal runs of readers into read groups."""
        entries = []
        run = []
        for ref, mode in requests:
            if mode is LockMode.READ:
                run.append(ref)
                continue
            if run:
                entries.append(FLEntry(LockMode.READ, run))
                run = []
            entries.append(FLEntry(LockMode.WRITE, (ref,)))
        if run:
            entries.append(FLEntry(LockMode.READ, run))
        return cls(entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __eq__(self, other):
        return isinstance(other, ForwardList) and self.entries == other.entries

    @property
    def head(self):
        return self.entries[0]

    def tail(self, start=1):
        """The FL from entry ``start`` onward."""
        return ForwardList(self.entries[start:])

    def all_txns(self):
        """Every TxnRef on the list, in entry order."""
        return [ref for entry in self.entries for ref in entry.txns]

    def requests(self):
        """The ordered (TxnRef, mode) pairs this FL represents — the
        inverse of :meth:`from_requests`, used by chain repair to rebuild
        a surviving suffix with the original order preserved."""
        return [(ref, entry.mode)
                for entry in self.entries for ref in entry.txns]

    def txn_count(self):
        return sum(len(entry.txns) for entry in self.entries)

    def transfer_size(self):
        """Wire-size contribution of piggybacking this FL on a message."""
        from repro.protocols.messages import FL_ENTRY_SIZE

        return FL_ENTRY_SIZE * self.txn_count()

    def __repr__(self):
        return "FL(" + " -> ".join(repr(entry) for entry in self.entries) + ")"
