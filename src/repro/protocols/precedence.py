"""The transaction precedence graph (§3.3).

A DAG over live transactions: an edge ``a -> b`` means "a accesses every
shared item before b", i.e. a precedes b on some forward list (or a is on a
dispatched chain that b's pending request must follow). Deadlock avoidance
reduces to keeping this graph acyclic:

* **Fixed edges** (dispatched chain member -> new request) cannot be
  reordered; if such an edge would close a cycle the conflicting order is
  already frozen and the offending transaction must abort.
* **Window edges** are chosen at freeze time: the window's requests are
  ordered by a linear extension of the reachability relation the graph
  already imposes on them, so freezing never creates a cycle.
"""


class PrecedenceGraph:
    """Directed acyclic graph of live transactions.

    The graph does not check insertions itself: its caller asks
    :meth:`reaches_any` whether an edge would close a cycle and inserts
    with :meth:`add_edge_unchecked` only when it would not.
    """

    def __init__(self):
        self._out = {}
        self._in = {}

    def add_node(self, node):
        self._out.setdefault(node, set())
        self._in.setdefault(node, set())

    def reaches_any(self, src, targets):
        """Is any member of ``targets`` reachable from ``src``?

        One DFS for the whole target set. ``src`` itself does not count
        as reached (a DAG has no path from a node back to itself), so an
        edge ``a -> b`` closes a cycle iff ``a == b or
        reaches_any(b, {a})``. Every node named in an edge set is a key
        of ``_out`` (:meth:`add_edge_unchecked` registers both endpoints,
        :meth:`remove_node` scrubs edge sets), so the walk indexes the
        adjacency dict directly.
        """
        out = self._out
        edges = out.get(src)
        if not edges:
            return False
        targets = set(targets)
        targets.discard(src)
        if not targets:
            return False
        if not targets.isdisjoint(edges):
            return True
        stack = list(edges)
        seen = set(edges)
        while stack:
            for nxt in out[stack.pop()]:
                if nxt in targets:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def add_edge_unchecked(self, src, dst):
        """Insert ``src -> dst`` (idempotent), registering both endpoints.

        Nothing here checks for a cycle: callers prove acyclicity from
        context — edges chained along a :meth:`linear_extension` order,
        or edges into a node already known (via :meth:`reaches_any`) not
        to reach any of the sources. :meth:`find_any_cycle` remains the
        safety net.
        """
        out = self._out
        edges = out.get(src)
        if edges is None:
            edges = out[src] = set()
            self._in[src] = set()
        elif dst in edges:
            return
        if dst in out:
            self._in[dst].add(src)
        else:
            out[dst] = set()
            self._in[dst] = {src}
        edges.add(dst)

    def remove_node(self, node):
        """Drop a terminated transaction and all its edges."""
        for nxt in self._out.pop(node, ()):
            self._in[nxt].discard(node)
        for prev in self._in.pop(node, ()):
            self._out[prev].discard(node)

    def linear_extension(self, nodes, key=None):
        """Order ``nodes`` consistently with reachability between them.

        Builds the induced partial order (u before v iff v is reachable
        from u) and returns a linear extension; among unconstrained nodes,
        ``key`` (default: input order) decides — so FIFO arrival order is
        preserved wherever the DAG does not force otherwise. Chaining
        edges along the returned order can never create a cycle.
        """
        nodes = list(nodes)
        if len(nodes) <= 1:
            return nodes  # nothing to order (the common light-load window)
        if key is None:
            rank = {node: i for i, node in enumerate(nodes)}
            key = rank.__getitem__
        # One DFS per node instead of one per ordered pair: the subset of
        # ``nodes`` reachable from each node induces exactly the partial
        # order pairwise reachability queries would (reachability is a
        # property of the graph, not of the query order).
        out = self._out
        node_set = set(nodes)
        reach = {}
        for u in nodes:
            found = reach[u] = set()
            edges = out.get(u)
            if not edges:
                continue
            stack = list(edges)
            seen = set(edges)
            while stack:
                node = stack.pop()
                if node in node_set:
                    found.add(node)
                for nxt in out[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        # Induced edges among the subset (transitive reachability).
        out_edges = {node: set() for node in nodes}
        in_degree = {node: 0 for node in nodes}
        for i, u in enumerate(nodes):
            reach_u = reach[u]
            for v in nodes[i + 1:]:
                if v in reach_u:
                    out_edges[u].add(v)
                    in_degree[v] += 1
                elif u in reach[v]:
                    out_edges[v].add(u)
                    in_degree[u] += 1
        ready = sorted((n for n in nodes if in_degree[n] == 0), key=key)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            changed = False
            for nxt in out_edges[node]:
                in_degree[nxt] -= 1
                if in_degree[nxt] == 0:
                    ready.append(nxt)
                    changed = True
            if changed:
                ready.sort(key=key)
        if len(order) != len(nodes):  # pragma: no cover - DAG invariant
            raise AssertionError("induced subgraph of a DAG cannot cycle")
        return order

    def find_any_cycle(self):
        """Return a cycle if one exists (the invariant says it must not)."""
        color = {}
        parent = {}
        for root in self._out:
            if root in color:
                continue
            stack = [(root, iter(self._out[root]))]
            color[root] = "grey"
            while stack:
                node, iterator = stack[-1]
                advanced = False
                for nxt in iterator:
                    if color.get(nxt) == "grey":
                        cycle = [nxt, node]
                        cursor = node
                        while cursor != nxt:
                            cursor = parent[cursor]
                            cycle.append(cursor)
                        cycle.reverse()
                        return cycle
                    if nxt not in color:
                        color[nxt] = "grey"
                        parent[nxt] = node
                        stack.append((nxt, iter(self._out[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = "black"
                    stack.pop()
        return None

    def __repr__(self):
        edges = sum(map(len, self._out.values()))
        return f"<PrecedenceGraph {len(self._out)} nodes, {edges} edges>"
