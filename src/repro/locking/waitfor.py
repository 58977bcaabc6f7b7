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
        return find_cycle_through(start,
                                  lambda txn: self._out.get(txn, ()))

    def find_any_cycle(self):
        """Return any cycle in the graph, or None (for validation sweeps).

        Deleting sinks until none is left keeps exactly the nodes that can
        still reach a cycle, in O(V+E): nothing left means acyclic, and
        only what is left is worth a search (a node on a cycle is never
        deleted, so the first cycle found in sorted order is unchanged).
        """
        out_degree = {node: len(holders)
                      for node, holders in self._out.items()}
        waiters_of = {}
        for waiter, holders in self._out.items():
            for holder in holders:
                waiters_of.setdefault(holder, []).append(waiter)
        sinks = [node for node in waiters_of if node not in out_degree]
        while sinks:
            for waiter in waiters_of.get(sinks.pop(), ()):
                out_degree[waiter] -= 1
                if not out_degree[waiter]:
                    sinks.append(waiter)
        for node in sorted(out_degree, key=repr):
            if out_degree[node]:
                cycle = self.find_cycle_from(node)
                if cycle:
                    return cycle
        return None

    def __repr__(self):
        return f"<WaitForGraph {len(self._out)} waiters, {self.edge_count} edges>"


def find_cycle_through(start, successors):
    """Return a cycle (first == last) through ``start`` in the digraph
    given by ``successors(node) -> iterable``, or None.

    A cycle through ``start`` exists iff ``start`` is reachable from one
    of its successors; a visited-set DFS makes this O(V+E) (a naive
    all-simple-paths search is exponential on dense wait graphs). The
    path is reconstructed from parent pointers. Successors are expanded
    in ``sorted(..., key=repr, reverse=True)`` order: which cycle comes
    back, hence which victim dies, hence every golden fingerprint,
    depends on exactly this order.
    """
    parent = {}
    stack = [start]
    visited = {start}
    while stack:
        node = stack.pop()
        for nxt in sorted(successors(node), key=repr, reverse=True):
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
