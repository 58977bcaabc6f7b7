"""Protocol message payloads.

Message sizes are in abstract data units: control messages cost
``CONTROL_SIZE``, every shipped copy of a data item adds ``DATA_ITEM_SIZE``,
and a piggybacked forward list adds ``FL_ENTRY_SIZE`` per entry. With
the paper's infinite-bandwidth assumption sizes only feed the traffic
statistics; the A2 ablation gives them teeth.
"""

from dataclasses import dataclass
from typing import Optional

CONTROL_SIZE = 1.0
DATA_ITEM_SIZE = 8.0
FL_ENTRY_SIZE = 0.25


@dataclass(slots=True)
class LockRequest:
    """Client → server: request ``item_id`` in ``mode`` for ``txn_id``."""

    txn_id: int
    item_id: int
    mode: object  # LockMode
    client_id: int = None
    # Sharded "2pc-opt" commit: True on the transaction's last request at
    # this home server — the grant should carry the shard's prepare vote.
    vote_request: bool = False


@dataclass(slots=True)
class DataShip:
    """Server → client (s-2PL/c-2PL): lock granted, data attached.

    ``vote`` (sharded "2pc-opt" commit): the grant doubles as this home
    server's PREPARED vote — granting the transaction's last lock at the
    shard is consenting to commit it.
    """

    txn_id: int
    item_id: int
    version: int
    value: object
    mode: object
    vote: bool = False


@dataclass(slots=True)
class CommitRelease:
    """Client → server (s-2PL): transaction commit; carries all updates.

    ``commit_time`` is set under fault injection: the server then records
    the history commit on receipt (the commit only *counts* once the server
    has durably seen it), stamped with the client's decision time so
    strictness checks still measure against the client-side commit point.
    """

    txn_id: int
    updates: dict  # item_id -> new value
    read_items: tuple = ()
    commit_time: float = None


@dataclass(slots=True)
class AbortRelease:
    """Client → server (s-2PL): client-initiated abort; locks to release."""

    txn_id: int


@dataclass(slots=True)
class AbortNotice:
    """Server → client: ``txn_id`` was aborted.

    ``expect_items`` (g-2PL) lists items frozen into dispatched forward
    lists that will still arrive at this client and must be forwarded
    onward on behalf of the dead transaction.
    """

    txn_id: int
    reason: str
    expect_items: tuple = ()


@dataclass(slots=True)
class GShip:
    """g-2PL data dispatch (server → client or client → client).

    Delivers ``item_id`` to ``txn_id`` together with the remaining forward
    list ``fl_tail`` (the entries *after* the recipient's own entry).

    ``group`` is the recipient's read-group membership (txn ids),
    used by the next writer to count releases. ``await_releases_from`` is
    non-empty for a writer shipped concurrently with its preceding read
    group under MR1W.

    ``epoch`` is the item's chain-repair epoch (fault injection): each
    server-side repair of a stalled chain bumps it, and a re-shipped copy
    with a higher epoch replaces a hold's forward list and awaiting set
    without touching already-received data.
    """

    txn_id: int
    item_id: int
    version: int
    value: object
    mode: object
    fl_tail: object  # ForwardList
    group: tuple = ()
    # Read by no handler and left None by every sender; the perf ledger's
    # codec cell still builds a GShip with it.
    release_to: Optional[tuple] = None
    await_releases_from: tuple = ()
    epoch: int = 0


@dataclass(slots=True)
class ReaderRelease:
    """g-2PL reader → next writer: read lock released.

    Under basic g-2PL (no MR1W) the writer has not yet received the data,
    so the release carries the unchanged value and the forward list from
    the writer's entry onward.
    """

    item_id: int
    from_txn: int
    to_txn: int
    version: int
    value: object = None
    fl_from_writer: object = None  # ForwardList, basic mode only
    group: tuple = ()              # the releasing reader's group (txn ids)
    carries_data: bool = False


@dataclass(slots=True)
class ReturnToServer:
    """g-2PL last-entry client → server: item comes home."""

    item_id: int
    version: int
    value: object
    from_txn: int


@dataclass(slots=True)
class TxnDone:
    """g-2PL client → server: transaction outcome notification.

    Carried for transactions whose items all went to *other clients*
    rather than back to the server, so the server can retire them from the
    precedence graph. Piggybacks on the network like any control message.
    """

    txn_id: int


@dataclass(slots=True)
class ChainCommit:
    """g-2PL client → server, fault mode only: commit registration.

    Under fault injection a g-2PL client may die between deciding to commit
    and its writes reaching the server via the chain, and chain repair
    would then re-dispatch a stale version — a lost committed write. So in
    fault mode the commit point moves to the server: the client sends its
    writes (item -> (new_version, value)) and *waits for the ack* before
    marking itself committed and forwarding its holds. The server installs
    the writes immediately (guarded by version, so the later chain return
    is a no-op) and records the history commit stamped with the client's
    decision time.
    """

    txn_id: int
    client_id: int
    writes: dict          # item_id -> (version, value)
    commit_time: float


@dataclass(slots=True)
class ChainCommitAck:
    """Server → client, fault mode: the commit is registered; forward away."""

    txn_id: int


@dataclass(slots=True)
class HandoffNote:
    """g-2PL client → server, fault mode: progress beacon.

    Sent when a hold is forwarded to a *successor client* (returns to the
    server speak for themselves), so the stalled-chain watchdog knows which
    members already passed the item on and repairs only the suffix that
    never saw it.
    """

    item_id: int
    from_txn: int


@dataclass(slots=True)
class ReleaseWaiver:
    """g-2PL server → MR1W writer, fault mode: stop waiting for a reader.

    ``from_txn`` crashed (or was repaired away); the writer's awaiting set
    must drop it or the writer would gate on a release that can never come.
    """

    item_id: int
    from_txn: int
    to_txn: int


@dataclass(slots=True)
class CommitAck:
    """Server → client (2V-2PL): the commit certified and installed."""

    txn_id: int


@dataclass(slots=True)
class CacheRecall:
    """c-2PL server → caching client: give back your cached read lock."""

    item_id: int


@dataclass(slots=True)
class CacheRecallAck:
    """c-2PL client → server.

    ``final=True`` means the cached copy is dropped. ``final=False`` is a
    busy notification: the copy is in use by local transaction ``busy_txn``
    and will be dropped (with a final ack) when that transaction ends — the
    server uses ``busy_txn`` to extend the wait-for graph.
    """

    item_id: int
    client_id: int
    final: bool = True
    busy_txn: int = None


# -- cross-shard atomic commit (sharded deployments) -------------------------

@dataclass(slots=True)
class PrepareRequest:
    """Coordinator (client) → participant home server: 2PC phase one.

    ``updates`` carries what this participant must install on commit —
    for s-2PL its own shard's item -> value map; for g-2PL the
    transaction's full item -> (version, value) writes map (every
    participant stages it, so any single surviving participant can answer
    a termination query authoritatively). ``participants`` names every
    home server of the transaction, enabling the cooperative termination
    protocol when the coordinator crashes after prepare.
    ``charge`` marks the one participant that accounts the sequential
    "vote" round (the other votes travel concurrently).
    """

    txn_id: int
    client_id: int
    updates: dict
    read_items: tuple = ()
    participants: tuple = ()
    charge: bool = False


@dataclass(slots=True)
class PrepareVote:
    """Participant home server → coordinator: PREPARED (or refused)."""

    txn_id: int
    vote: bool
    charge: bool = False


@dataclass(slots=True)
class CommitDecision:
    """Coordinator → participant: 2PC phase two.

    ``updates`` is None for classic 2PC (staged at prepare) and carries
    the participant's item -> value map under "2pc-opt", where votes
    piggybacked on lock grants and nothing was staged. ``commit_time``
    is set in fault mode (participants record the history commit on
    receipt, stamped with the coordinator's decision time). ``ack``
    requests a DecisionAck (fault mode: the coordinator only counts as
    committed once every participant has durably decided).
    """

    txn_id: int
    commit: bool
    updates: dict = None
    commit_time: float = None
    ack: bool = False
    charge: bool = False


@dataclass(slots=True)
class DecisionAck:
    """Participant → coordinator, fault mode: decision applied."""

    txn_id: int
    charge: bool = False


@dataclass(slots=True)
class OutcomeQuery:
    """Participant → participant, cooperative termination.

    Sent by a home server stuck with a PREPARED transaction whose
    coordinator crashed: ask the other participants what they know.
    """

    txn_id: int
    from_shard: int


@dataclass(slots=True)
class OutcomeReply:
    """Termination answer: this shard's view of the transaction.

    ``status`` is one of "committed", "aborted", "prepared", "unknown".
    Status alone suffices — every prepared participant already staged the
    writes it would need to commit.
    """

    txn_id: int
    shard: int
    status: str

