"""Wait-for cycle search over a successor function, built on demand.

The paper (§4): "deadlocks are detected by computing wait-for-graphs and
aborting the transactions necessary to remove the deadlocks ... deadlock
detection is initiated when a lock cannot be granted."

Deciding whether a node lies on a cycle needs no order: it is a
reachability question. No detector needs the cycle's path to choose its
victim either (s-2PL, c-2PL and 2V-2PL abort the requester, the sharded
sweep the first node in ``repr`` order that lies on a cycle), so every
decision walks blocker sets as they come. Only a traced deadlock names
a cycle, and it expands successors in :func:`expansion_order` so that
the trace names the same cycle on every run.
"""


def find_any_cycle(out, alive):
    """Return a cycle through the first node in ``repr`` order that lies
    on one, among the nodes ``alive`` of the digraph ``out`` (waiter ->
    blockers; every alive node is a key), or None.

    ``alive`` is trimmed in place to the nodes that can still reach a
    cycle — those with a successor in ``alive``, to a fixpoint: nothing
    left means acyclic, and only what is left is worth a search. Nodes are
    tried in ``out``'s order and discarded on the spot, so where that is
    lock-queue order (each waiter behind the ones it waits for) a whole
    queue unwinds in one pass. A trimmed node reaches trimmed nodes only,
    so skipping it cannot change which node lies on a cycle, and a node on
    a cycle is never trimmed. Candidates are tried in ``sorted(alive,
    key=repr)`` order; each walk expands ``out[t] & alive`` unsorted, so
    the first node is order-independent and the path back to it is not
    (:func:`name_cycle` gives the pinned one). A caller that breaks the
    cycle by discarding its first node from ``alive`` calls again, and the
    trim resumes where it stopped.
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
        return out[node] & alive

    for node in sorted(alive, key=repr):
        cycle = find_cycle_through(node, successors)
        if cycle:
            return cycle
    return None


def name_cycle(start, successors):
    """The cycle through ``start`` a trace names: :func:`find_cycle_through`
    with each node's ``successors(node)`` expanded in
    :func:`expansion_order`, or None."""
    return find_cycle_through(
        start, lambda node: expansion_order(successors(node)))


def expansion_order(nodes):
    """``nodes`` as a list in the pinned order a traced cycle is named in:
    ``repr`` descending. Where several cycles run through the start,
    which one comes back depends on exactly this order (txn 9 sorts
    before txn 10: the order is textual, not numeric). The victim is the
    start whichever cycle it is, so the order shows only in the cycle
    length a deadlock event traces."""
    return sorted(nodes, key=repr, reverse=True)


def find_cycle_through(start, successors):
    """Return a cycle (first == last) through ``start`` in the digraph
    given by ``successors(node) -> iterable``, or None.

    A cycle through ``start`` exists iff ``start`` is reachable from one
    of its successors; a visited-set DFS makes this O(V+E) (a naive
    all-simple-paths search is exponential on dense wait graphs). The
    path is reconstructed from parent pointers. Successors are expanded
    in the order ``successors`` returns them: any order gives the same
    yes or no, and :func:`name_cycle` pins the order that names the path.
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
