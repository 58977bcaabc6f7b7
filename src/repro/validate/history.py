"""Recording what every transaction actually read and wrote."""

from dataclasses import dataclass


@dataclass(frozen=True)
class AccessRecord:
    """One data access: which version a transaction read or produced.

    For a READ, ``version`` is the committed version observed. For a WRITE,
    ``version`` is the new version the transaction produced (observed
    version + 1 within the item's forwarding chain).
    """

    txn_id: int
    item_id: int
    mode: object  # repro.locking.modes.LockMode
    version: int
    time: float


class HistoryRecorder:
    """Collects access records and transaction outcomes for one run."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.accesses = []
        self.committed = set()
        self.aborted = set()
        self.commit_times = {}

    def record_access(self, txn_id, item_id, mode, version, time):
        if self.enabled:
            self.accesses.append(
                AccessRecord(txn_id, item_id, mode, version, time))

    def record_commit(self, txn_id, time=None):
        if self.enabled:
            if txn_id in self.aborted:
                raise ValueError(f"txn {txn_id} committed after abort")
            self.committed.add(txn_id)
            if time is not None:
                self.commit_times[txn_id] = time

    def record_abort(self, txn_id, time=None):
        if self.enabled:
            if txn_id in self.committed:
                raise ValueError(f"txn {txn_id} aborted after commit")
            self.aborted.add(txn_id)

