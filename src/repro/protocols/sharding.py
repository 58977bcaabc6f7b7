"""Shard maps, geo-placement, and cross-shard coordination helpers.

The sharded deployment partitions the item space across N *home servers*
(shards). Clients route every item-scoped message to the owning server
via the :class:`ShardMap`; the map also fixes the geo-placement used by
:class:`~repro.network.topology.RegionTopology` (shard k lives in region
``k % n_regions``, client c in region ``(c - 1) % n_regions``), so a
client is co-located with its home shard and pays the WAN latency only
for remote items.

Site-id scheme: shard 0 keeps ``SERVER_SITE_ID`` (0) for backward
compatibility with every single-server code path; shard k (k >= 1) lives
at site ``-k``. Client site ids stay 1..n_clients, so the two id spaces
can never collide.

Cross-shard coordination state shared between shard servers:

* :class:`SharedPrecedence` — one precedence DAG for all g-2PL shards,
  reference-counted so a transaction leaves the graph only when *every*
  shard that registered it has retired it.
* :class:`GlobalDeadlockDetector` — the s-2PL union-of-wait-for-graphs
  detector: per-shard detection cannot see a cycle whose edges span
  shards, so a periodic sweep unions the local graphs and aborts victims.
"""

from repro.locking.waitfor import find_any_cycle, name_cycle
from repro.protocols.base import SERVER_SITE_ID
from repro.protocols.precedence import PrecedenceGraph


def partition_items(n_items, n_shards):
    """Contiguous, near-equal partition of ``range(n_items)``.

    Returns a tuple of ``n_shards`` tuples. The first ``n_items %
    n_shards`` shards get one extra item. Shared by the shard map and the
    workload generator so "the client's home shard items" means the same
    set in both layers.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > n_items:
        raise ValueError(
            f"n_shards {n_shards} exceeds the {n_items}-item pool")
    base, extra = divmod(n_items, n_shards)
    partitions = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        partitions.append(tuple(range(start, start + size)))
        start += size
    return tuple(partitions)


def shard_site_id(shard):
    """Site id of shard ``shard``: 0 for shard 0, -k for shard k."""
    return SERVER_SITE_ID if shard == 0 else -shard


class ShardMap:
    """Item -> shard -> home-server routing table.

    ``assignments`` (optional) overrides the default contiguous
    partition with an explicit item -> shard map covering every item in
    ``range(n_items)`` — the correctness battery uses this to exercise
    random shard maps.
    """

    def __init__(self, n_shards, n_items, assignments=None):
        if assignments is None:
            partitions = partition_items(n_items, n_shards)
            self._shard_of = {}
            for shard, items in enumerate(partitions):
                for item_id in items:
                    self._shard_of[item_id] = shard
        else:
            if set(assignments) != set(range(n_items)):
                raise ValueError(
                    "assignments must cover exactly range(n_items)")
            bad = {s for s in assignments.values()
                   if not 0 <= s < n_shards}
            if bad:
                raise ValueError(f"assignments name unknown shards {bad}")
            self._shard_of = dict(assignments)
        self.n_shards = n_shards
        self.n_items = n_items
        self._items_of = {shard: [] for shard in range(n_shards)}
        for item_id in range(n_items):
            self._items_of[self._shard_of[item_id]].append(item_id)
        self._items_of = {shard: tuple(items)
                          for shard, items in self._items_of.items()}
        # every client consults this once per operation
        self._server_of = {item_id: shard_site_id(shard)
                           for item_id, shard in self._shard_of.items()}

    def server_of(self, item_id):
        """Site id of the home server owning ``item_id``."""
        return self._server_of[item_id]

    def items_of(self, shard):
        return self._items_of[shard]

    @property
    def server_ids(self):
        """All home-server site ids, shard order (0, -1, -2, ...)."""
        return tuple(shard_site_id(s) for s in range(self.n_shards))

    def region_assignments(self, n_clients, n_regions):
        """Site -> region placement for a :class:`RegionTopology`.

        Shard k lives in region ``k % n_regions``; client c in region
        ``(c - 1) % n_regions`` — co-located with its home shard (the
        workload generator uses the same formula), so local transactions
        stay intra-region.
        """
        region_of = {}
        for shard in range(self.n_shards):
            region_of[shard_site_id(shard)] = shard % n_regions
        for client_id in range(1, n_clients + 1):
            region_of[client_id] = (client_id - 1) % n_regions
        return region_of

    def __repr__(self):
        return f"ShardMap(shards={self.n_shards}, items={self.n_items})"


class SharedPrecedence(PrecedenceGraph):
    """One precedence DAG shared by every g-2PL shard server.

    Cross-shard deadlock avoidance needs cross-shard visibility: a
    transaction's chain position at shard A must order it against
    requests at shard B. All shard servers therefore point at one graph —
    but each server retires a transaction independently (TxnDone fans out
    to every touched shard), so node removal is reference-counted: the
    node (and its edges) really disappears only when the last registered
    shard lets go.
    """

    def __init__(self):
        super().__init__()
        self._refs = {}

    def acquire(self, txn_id):
        """One shard registered ``txn_id``; pin its node."""
        self._refs[txn_id] = self._refs.get(txn_id, 0) + 1
        self.add_node(txn_id)

    def remove_node(self, txn_id):
        refs = self._refs.get(txn_id, 0)
        if refs > 1:
            self._refs[txn_id] = refs - 1
            return
        self._refs.pop(txn_id, None)
        super().remove_node(txn_id)


class GlobalDeadlockDetector:
    """Periodic union-of-wait-for-graphs detection for sharded s-2PL.

    Each shard server detects cycles among its own lock queues, but a
    distributed deadlock (T1 waits at shard A for T2, which waits at
    shard B for T1) has no local cycle anywhere. This detector
    periodically unions every shard's wait-for edges, finds cycles, and
    aborts one victim per cycle (the first node in ``repr`` order that
    lies on one) through the shard where the victim is waiting (a waiting
    transaction has a queued request at exactly the shards it is blocked
    at; aborting it there triggers the normal AbortNotice -> client
    abort -> AbortRelease fan-out that releases its locks everywhere).

    Deterministic: driven by a simulation timer, iterating servers in
    shard order and cycles in detection order.

    A sweep costs what changed since the last one: the union is built from
    each queued item's cached wait-edge map
    (:meth:`~repro.locking.lock_table.LockTable.wait_edges`), most
    sweeps end when the trim finds nothing that can reach a cycle, and
    where a victim is waiting is looked up only once a cycle exists.
    ``sweeps`` / ``cyclic_sweeps`` count both kinds.
    """

    def __init__(self, sim, servers, interval, stop_when=None):
        self.sim = sim
        self.servers = list(servers)
        self.interval = interval
        self.stop_when = stop_when
        self.distributed_deadlocks = 0
        self.sweeps = 0
        self.cyclic_sweeps = 0

    def start(self):
        self.sim.call_later(self.interval, self._tick)
        return self

    def _tick(self):
        self._sweep()
        if self.stop_when is None or not self.stop_when():
            self.sim.call_later(self.interval, self._tick)

    def _collect(self):
        """The union wait-for graph, ``waiter -> frozenset(blockers)``. The
        sets are the lock tables' cached ones, shared and never mutated
        (a transaction queued at two places gets a new union), so the
        result is a snapshot no later abort can reach into."""
        out = {}
        for server in self.servers:
            for edges in server.lock_table.wait_edges():
                if out.keys().isdisjoint(edges):
                    out.update(edges)
                else:
                    for txn, blockers in edges.items():
                        out[txn] = out.get(txn, blockers) | blockers
        return out

    def _sweep(self):
        """Abort one victim per cycle of the union graph as it stands now.

        Everything is decided on the snapshot taken here: aborting a
        victim regrants locks and so changes the live queues, but later
        victims of the same sweep come from the same ``out`` and
        ``waiting_at``. A victim is a waiter of the snapshot, hence queued
        at ``waiting_at[victim]``, hence registered there and not yet
        aborted there (``_abort`` and ``_finish`` drop a transaction's
        queued requests, and a dead one is never queued again), and the
        sweep's own aborts kill nobody but victims already out of
        ``alive`` — no cycle found here is stale.
        """
        self.sweeps += 1
        out = self._collect()
        alive = set(out)
        waiting_at = None
        while True:
            cycle = find_any_cycle(out, alive)
            if cycle is None:
                return
            if waiting_at is None:
                self.cyclic_sweeps += 1
                # txn -> first server in shard order it is queued at
                waiting_at = {txn: server
                              for server in reversed(self.servers)
                              for txn in server.lock_table.waiting()}
            victim = cycle[0]
            server = waiting_at[victim]
            self.distributed_deadlocks += 1
            tracer = self.sim.tracer
            if tracer is not None:
                # the pinned-order cycle through the victim, on the graph
                # the search saw
                named = name_cycle(victim, lambda txn: out[txn] & alive)
                tracer.row("lock.deadlock.distributed", victim,
                           len(set(named)), server.site_id)
            server._abort(victim, reason="distributed-deadlock")
            alive.discard(victim)
