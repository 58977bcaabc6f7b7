"""Differential tests: s-2PL's pruned, index-driven cycle search against
``WaitForGraph.find_cycle_from`` on the fully materialised graph."""

from hypothesis import given, settings, strategies as st

from helpers import Harness, R, W
from repro.locking import WaitForGraph

TXNS = range(7)

# (txn, op, item): acquire in a mode (a held READ asking for WRITE is an
# upgrade and queues at the head), release everything, or drop the queued
# requests only, as for a deadlock victim.
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(TXNS),
        st.sampled_from(["read", "read", "write", "write", "release",
                         "drop"]),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=60,
)
BUSY_EDGES = st.sets(
    st.tuples(st.sampled_from(TXNS), st.sampled_from(TXNS)), max_size=6)


def drive(table, actions):
    for txn, op, item in actions:
        if op == "release":
            table.release_all(txn)
        elif op == "drop":
            table.drop_queued(txn)
        elif not any(t == txn for t, _ in table.waiters(item)):
            table.acquire(txn, item, R if op == "read" else W)


def materialise(table, busy_edges=()):
    """The whole wait-for graph, from the table's public queue view only
    (not from ``blockers_of``, which the search under test also uses)."""
    wfg = WaitForGraph()
    for item in list(table._items):
        holders = table.holders(item)
        ahead = []
        for txn, mode in table.waiters(item):
            wfg.add_edges(txn, [holder for holder, held in holders.items()
                                if not mode.compatible_with(held)])
            wfg.add_edges(txn, [earlier for earlier, earlier_mode in ahead
                                if not mode.compatible_with(earlier_mode)])
            ahead.append((txn, mode))
    for writer, busy in busy_edges:
        wfg.add_edge(writer, busy)
    return wfg


def assert_same_cycles(server, wfg):
    for requester in TXNS:
        expected = wfg.find_cycle_from(requester)
        assert server._find_cycle_from(requester) == expected
        if not (server.lock_table.can_be_waited_on(requester)
                or any(requester in blockers for blockers
                       in server._extra_wait_edges().values())):
            # The prune fired; it must be exact, not merely cycle-free.
            assert not any(requester in holders
                           for holders in wfg._out.values())


@given(ACTIONS)
@settings(max_examples=300, deadline=None)
def test_s2pl_search_matches_materialised_graph(actions):
    server = Harness("s2pl").server
    drive(server.lock_table, actions)
    assert_same_cycles(server, materialise(server.lock_table))


@given(ACTIONS, BUSY_EDGES)
@settings(max_examples=300, deadline=None)
def test_c2pl_search_with_busy_edges_matches_materialised_graph(
        actions, busy_edges):
    server = Harness("c2pl").server
    drive(server.lock_table, actions)
    for edge in busy_edges:
        server._busy_edges[edge] = 0
    assert_same_cycles(server, materialise(server.lock_table, busy_edges))


@given(ACTIONS, st.sampled_from(TXNS), st.sampled_from(TXNS))
@settings(max_examples=200, deadline=None)
def test_search_with_an_upgrade_at_a_queue_head(actions, first, second):
    """Two readers of one item, one (or both) upgrading: the upgrade sits
    at the head of the queue and waits for the *other* holders only."""
    server = Harness("s2pl").server
    table = server.lock_table
    table.acquire(first, "hot", R)
    table.acquire(second, "hot", R)
    table.acquire("tail", "hot", W)
    table.acquire(first, "hot", W)
    drive(table, actions)
    if second != first and table.holds(second, "hot", R):
        table.acquire(second, "hot", W)
    assert_same_cycles(server, materialise(table))
