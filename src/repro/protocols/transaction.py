"""Transaction runtime state shared by all protocols."""

import enum
from dataclasses import dataclass


class TxnStatus(enum.Enum):
    RUNNING = "running"
    COMMITTED = "committed"
    ABORTED = "aborted"


RUNNING, COMMITTED, ABORTED = (
    TxnStatus.RUNNING, TxnStatus.COMMITTED, TxnStatus.ABORTED)


class Transaction:
    """A live transaction executing at a client.

    Wraps the immutable workload spec with runtime status.
    """

    __slots__ = ("txn_id", "client_id", "spec", "status", "ops_done",
                 "abort_reason")

    def __init__(self, txn_id, client_id, spec):
        self.txn_id = txn_id
        self.client_id = client_id
        self.spec = spec
        self.status = RUNNING
        self.ops_done = 0
        self.abort_reason = None

    @property
    def running(self):
        return self.status is RUNNING

    def commit(self):
        if self.status is not RUNNING:
            raise RuntimeError(f"commit on {self.status.value} txn {self.txn_id}")
        self.status = COMMITTED

    def abort(self, reason):
        if self.status is COMMITTED:
            raise RuntimeError(f"abort after commit of txn {self.txn_id}")
        self.status = ABORTED
        if self.abort_reason is None:
            self.abort_reason = reason

    def __repr__(self):
        return (f"<Txn {self.txn_id}@c{self.client_id} {self.status.value} "
                f"{self.ops_done}/{len(self.spec.operations)} ops>")


@dataclass(slots=True)
class TxnOutcome:
    """What the client driver reports to the metrics collector."""

    txn_id: int
    client_id: int
    committed: bool
    start_time: float
    end_time: float
    n_ops: int
    n_writes: int
    abort_reason: str = None

    @property
    def response_time(self):
        return self.end_time - self.start_time
