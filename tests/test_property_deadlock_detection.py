"""Differential tests: s-2PL's pruned, index-driven deadlock decision and
the cycle a trace names, against ``WaitForGraph.find_cycle_from`` on the
fully materialised graph, and the lock table's cached wait edges against
a brute-force reading of its queues."""

from hypothesis import given, settings, strategies as st

from helpers import (
    Harness,
    R,
    W,
    WaitForGraph,
    blockers_of,
    brute_force_blockers,
    brute_force_wait_edges,
    waiters,
)
from repro.locking import LockTable

# Half the ids on each side of a digit boundary, so ``repr`` order (the
# pinned order a traced cycle is named in: "9" > "12") differs from
# numeric order often enough that a search expanding successors
# numerically picks a different cycle in some drawn history.
TXNS = range(7, 13)

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


def drive(table, actions, after_each=None):
    for txn, op, item in actions:
        if op == "release":
            table.release_all(txn)
        elif op == "drop":
            table.drop_queued(txn)
        elif not any(t == txn for t, _ in waiters(table, item)):
            table.acquire(txn, item, R if op == "read" else W)
        if after_each is not None:
            after_each()


def materialise(table, busy_edges=()):
    """The whole wait-for graph, from the table's public queue view only
    (not from its cached wait edges, which the search under test reads)."""
    wfg = WaitForGraph()
    for txn, blockers in brute_force_wait_edges(table).items():
        wfg.add_edges(txn, blockers)
    for writer, busy in busy_edges:
        wfg.add_edge(writer, busy)
    return wfg


def assert_same_cycles(server, wfg):
    for requester in TXNS:
        expected = wfg.find_cycle_from(requester)
        named = server._find_cycle_from(requester)
        assert named == expected
        # decide and describe agree: the unordered walk says yes exactly
        # when the pinned one names a cycle
        assert server._closes_cycle(requester) == (named is not None)
        if not server._can_be_waited_on(requester):
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


def assert_cache_coherent(table):
    """Every cached wait edge equals the brute-force one, right now."""
    union = brute_force_wait_edges(table)
    per_item = {item: brute_force_blockers(table, item)
                for item in list(table._items) + ["absent"]}
    for txn in list(TXNS) + ["tail"]:
        assert table.waits_for(txn) == union.get(txn, set())
        for item, edges in per_item.items():
            assert blockers_of(table, txn, item) == edges.get(txn, set())
    assert set(table.waiting()) == set(union)
    assert [dict(edges) for edges in table.wait_edges()] == [
        edges for edges in per_item.values() if edges]


@given(ACTIONS, st.sampled_from(TXNS), st.sampled_from(TXNS))
@settings(max_examples=300, deadline=None)
def test_cached_wait_edges_match_brute_force_after_every_step(
        actions, first, second):
    """A stale cache is a wrong victim: after *every* acquire, upgrade,
    drop and release of a random history — transactions queued on several
    items and upgrades queued at a head included — the cached edges are
    the ones a fresh scan of holders and queues gives."""
    table = LockTable()
    for prefix in ([(first, "read", 0), (second, "read", 0),
                    ("tail", "write", 0), (first, "write", 0)], actions,
                   [(second, "write", 0)]):
        drive(table, prefix, after_each=lambda: assert_cache_coherent(table))
