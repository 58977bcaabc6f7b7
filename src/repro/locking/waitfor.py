"""Wait-for graph with on-demand cycle detection.

The paper (§4): "deadlocks are detected by computing wait-for-graphs and
aborting the transactions necessary to remove the deadlocks ... deadlock
detection is initiated when a lock cannot be granted."
"""


class WaitForGraph:
    """Directed graph: edge waiter → holder means "waiter waits for holder"."""

    def __init__(self):
        self._out = {}

    def add_edge(self, waiter, holder):
        """Record that ``waiter`` waits for ``holder`` (self-edges ignored)."""
        if waiter == holder:
            return
        self._out.setdefault(waiter, set()).add(holder)

    def add_edges(self, waiter, holders):
        for holder in holders:
            self.add_edge(waiter, holder)

    def remove_edge(self, waiter, holder):
        edges = self._out.get(waiter)
        if edges is not None:
            edges.discard(holder)
            if not edges:
                del self._out[waiter]

    def remove_node(self, txn):
        """Drop ``txn`` and every edge touching it (commit/abort cleanup)."""
        self._out.pop(txn, None)
        empty = []
        for waiter, holders in self._out.items():
            holders.discard(txn)
            if not holders:
                empty.append(waiter)
        for waiter in empty:
            del self._out[waiter]

    def successors(self, txn):
        return set(self._out.get(txn, ()))

    @property
    def edge_count(self):
        return sum(len(holders) for holders in self._out.values())

    def find_cycle_from(self, start):
        """Return a cycle (list of txns, first == last) through ``start``,
        or None."""
        out = self._out
        return find_cycle_through(
            start, lambda txn: expansion_order(out.get(txn, ())))

    def find_any_cycle(self):
        """Return any cycle in the graph, or None (for validation sweeps)."""
        return find_any_cycle(self._out, set(self._out))

    def __repr__(self):
        return f"<WaitForGraph {len(self._out)} waiters, {self.edge_count} edges>"


def find_any_cycle(out, alive):
    """Return the first cycle among the nodes ``alive`` of the digraph
    ``out`` (waiter -> blockers; every alive node is a key), or None.

    ``alive`` is trimmed in place to the nodes that can still reach a
    cycle — those with a successor in ``alive``, to a fixpoint: nothing
    left means acyclic, and only what is left is worth a search. Nodes are
    tried in ``out``'s order and discarded on the spot, so where that is
    lock-queue order (each waiter behind the ones it waits for) a whole
    queue unwinds in one pass. A trimmed node reaches trimmed nodes only,
    so skipping it cannot change the path a search finds, and a node on a
    cycle is never trimmed, so the first cycle in sorted order is the one
    a search of the whole graph returns. A caller that breaks the cycle
    by discarding a node from ``alive`` calls again, and the trim resumes
    where it stopped.
    """
    pending = list(filter(alive.__contains__, out))
    while pending:
        kept = []
        for node in pending:
            if out[node].isdisjoint(alive):
                alive.discard(node)
            else:
                kept.append(node)
        if len(kept) == len(pending):
            break
        pending = kept
    def successors(node):
        return expansion_order(out[node] & alive)

    for node in sorted(alive, key=repr):
        cycle = find_cycle_through(node, successors)
        if cycle:
            return cycle
    return None


def expansion_order(nodes):
    """``nodes`` as a list in the pinned order the cycle search expands
    successors in: ``repr`` descending. Where several cycles run through
    the start, which one comes back depends on exactly this order (txn 9
    sorts before txn 10: the order is textual, not numeric). The victim
    is the start whichever cycle it is, in s-2PL's per-request search and
    in the union sweep alike, so the order shows only in the cycle length
    a deadlock event traces."""
    return sorted(nodes, key=repr, reverse=True)


def find_cycle_through(start, successors):
    """Return a cycle (first == last) through ``start`` in the digraph
    given by ``successors(node) -> sequence``, or None.

    A cycle through ``start`` exists iff ``start`` is reachable from one
    of its successors; a visited-set DFS makes this O(V+E) (a naive
    all-simple-paths search is exponential on dense wait graphs). The
    path is reconstructed from parent pointers. Successors are expanded
    in the order ``successors`` returns them, and every caller returns
    them in :func:`expansion_order`: the graph methods here and the c-2PL
    search sort where they build a node's successors, and s-2PL's search
    reads them presorted from the lock table, which caches each waiter's
    blockers in that order beside its wait edges
    (:meth:`~repro.locking.lock_table.LockTable.waits_for_ordered`), so
    a search sorts nothing the lock state has not changed since.
    """
    parent = {}
    stack = [start]
    visited = {start}
    while stack:
        node = stack.pop()
        for nxt in successors(node):
            if nxt == start:
                path = [start, node]
                cursor = node
                while cursor != start:
                    cursor = parent[cursor]
                    path.append(cursor)
                path.reverse()
                return path
            if nxt not in visited:
                visited.add(nxt)
                parent[nxt] = node
                stack.append(nxt)
    return None
