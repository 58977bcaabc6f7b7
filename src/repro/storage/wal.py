"""A write-ahead log with commit records and garbage collection."""

import enum
from dataclasses import dataclass


class LogRecordType(enum.Enum):
    UPDATE = "update"
    COMMIT = "commit"
    ABORT = "abort"


@dataclass(slots=True)
class LogRecord:
    """One WAL entry."""

    lsn: int
    record_type: LogRecordType
    txn: object
    item_id: object = None
    version: int = None
    timestamp: float = 0.0


class WriteAheadLog:
    """Append-only log; the server appends UPDATE records before installing
    new versions and a COMMIT record after, then garbage collects the prefix
    made permanent (the paper's §1 assumption).

    ``durable_lsn`` tracks the last forced record; installs must not precede
    the force of their UPDATE records (asserted by tests).
    """

    def __init__(self):
        self._records = []
        self._next_lsn = 1
        self._truncated_before = 1
        self.durable_lsn = 0
        self.forces = 0

    def __len__(self):
        return len(self._records)

    def append(self, record_type, txn, item_id=None, version=None, now=0.0):
        """Append a record; returns its LSN."""
        record = LogRecord(lsn=self._next_lsn, record_type=record_type,
                           txn=txn, item_id=item_id, version=version,
                           timestamp=now)
        self._records.append(record)
        self._next_lsn += 1
        return record.lsn

    def force(self, up_to_lsn=None):
        """Make the log durable up to ``up_to_lsn`` (default: everything)."""
        target = self._next_lsn - 1 if up_to_lsn is None else up_to_lsn
        if target > self._next_lsn - 1:
            raise ValueError(f"cannot force beyond the log end ({target})")
        if target > self.durable_lsn:
            self.durable_lsn = target
            self.forces += 1
        return self.durable_lsn

    def is_durable(self, lsn):
        return lsn <= self.durable_lsn

    def garbage_collect(self, up_to_lsn):
        """Discard records with lsn <= ``up_to_lsn``; they must be durable.

        Returns the number of records discarded.
        """
        if up_to_lsn > self.durable_lsn:
            raise ValueError(
                f"cannot garbage collect past durable_lsn={self.durable_lsn}")
        keep_from = 0
        for keep_from, record in enumerate(self._records):
            if record.lsn > up_to_lsn:
                break
        else:
            keep_from = len(self._records)
        discarded = keep_from
        if discarded:
            self._records = self._records[keep_from:]
            self._truncated_before = up_to_lsn + 1
        return discarded

    def records(self, record_type=None):
        """Live records, optionally filtered by type."""
        if record_type is None:
            return list(self._records)
        return [r for r in self._records if r.record_type is record_type]

    def tail_lsn(self):
        """LSN of the last appended record (0 when empty since start)."""
        return self._next_lsn - 1
