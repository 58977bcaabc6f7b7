"""Unit tests for the wait-for graph."""

import graphlib

from hypothesis import given, settings, strategies as st

from repro.locking import LockMode, LockTable, WaitForGraph
from repro.locking.waitfor import expansion_order, find_cycle_through


def test_no_cycle_in_chain():
    wfg = WaitForGraph()
    wfg.add_edge("a", "b")
    wfg.add_edge("b", "c")
    assert wfg.find_cycle_from("a") is None
    assert wfg.find_any_cycle() is None


def test_two_cycle():
    wfg = WaitForGraph()
    wfg.add_edge("a", "b")
    wfg.add_edge("b", "a")
    cycle = wfg.find_cycle_from("a")
    assert cycle == ["a", "b", "a"]


def test_three_cycle_found_from_any_member():
    wfg = WaitForGraph()
    wfg.add_edges("a", ["b"])
    wfg.add_edges("b", ["c"])
    wfg.add_edges("c", ["a"])
    for start in "abc":
        cycle = wfg.find_cycle_from(start)
        assert cycle is not None
        assert cycle[0] == cycle[-1] == start
        assert set(cycle) == {"a", "b", "c"}


def test_cycle_not_through_start_is_ignored_by_probe():
    wfg = WaitForGraph()
    wfg.add_edge("x", "a")
    wfg.add_edge("a", "b")
    wfg.add_edge("b", "a")
    assert wfg.find_cycle_from("x") is None
    assert wfg.find_any_cycle() is not None


def test_self_edges_ignored():
    wfg = WaitForGraph()
    wfg.add_edge("a", "a")
    assert wfg.edge_count == 0
    assert wfg.find_any_cycle() is None


def test_remove_node_breaks_cycle():
    wfg = WaitForGraph()
    wfg.add_edge("a", "b")
    wfg.add_edge("b", "c")
    wfg.add_edge("c", "a")
    wfg.remove_node("b")
    assert wfg.find_any_cycle() is None
    assert wfg.successors("a") == set()
    assert wfg.successors("c") == {"a"}


def test_remove_edge():
    wfg = WaitForGraph()
    wfg.add_edge("a", "b")
    wfg.add_edge("a", "c")
    wfg.remove_edge("a", "b")
    assert wfg.successors("a") == {"c"}
    wfg.remove_edge("a", "c")
    assert wfg.successors("a") == set()
    wfg.remove_edge("a", "zzz")  # no-op


def test_diamond_is_acyclic():
    wfg = WaitForGraph()
    wfg.add_edges("a", ["b", "c"])
    wfg.add_edges("b", ["d"])
    wfg.add_edges("c", ["d"])
    assert wfg.find_any_cycle() is None


def test_edge_count():
    wfg = WaitForGraph()
    wfg.add_edges("a", ["b", "c"])
    wfg.add_edge("b", "c")
    assert wfg.edge_count == 3


def test_long_cycle_detected():
    wfg = WaitForGraph()
    nodes = [f"t{i}" for i in range(50)]
    for left, right in zip(nodes, nodes[1:]):
        wfg.add_edge(left, right)
    wfg.add_edge(nodes[-1], nodes[0])
    cycle = wfg.find_cycle_from("t0")
    assert cycle is not None
    assert len(cycle) == 51


def test_blockers_9_and_10_pick_the_cycle_by_textual_order():
    """Txn 0 waits for 9 and 10, and each waits for 0: two cycles, and the
    expansion order picks one. ``repr`` descending puts "9" before "10",
    so 10 is pushed last and searched first; a numeric order would find
    the cycle through 9. The lock table's cached order must agree."""
    wfg = WaitForGraph()
    wfg.add_edges(0, [9, 10])
    wfg.add_edges(9, [0])
    wfg.add_edges(10, [0])
    assert expansion_order({9, 10}) == [9, 10]
    assert wfg.find_cycle_from(0) == [0, 10, 0]
    numeric = find_cycle_through(
        0, lambda txn: sorted(wfg._out.get(txn, ()), reverse=True))
    assert numeric == [0, 9, 0]

    table = LockTable()
    table.acquire(9, "x", LockMode.READ)
    table.acquire(10, "x", LockMode.READ)
    table.acquire(0, "x", LockMode.WRITE)  # 0 waits for 9 and 10
    table.acquire(0, "y", LockMode.WRITE)
    table.acquire(0, "z", LockMode.WRITE)
    table.acquire(9, "y", LockMode.WRITE)  # 9 waits for 0
    table.acquire(10, "z", LockMode.WRITE)  # 10 waits for 0
    assert table.waits_for_ordered(0) == [9, 10]
    assert find_cycle_through(0, table.waits_for_ordered) == [0, 10, 0]


@given(st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)),
               max_size=30))
@settings(max_examples=500, deadline=None)
def test_find_any_cycle_matches_the_per_node_loop(edges):
    """The sink-peeling fast path changes neither which cycle comes back
    nor when one does: the oracle is the loop it replaced."""
    wfg = WaitForGraph()
    for waiter, holder in edges:
        wfg.add_edge(waiter, holder)
    expected = None
    for node in sorted(wfg._out, key=repr):
        expected = wfg.find_cycle_from(node)
        if expected:
            break
    assert wfg.find_any_cycle() == expected
    sorter = graphlib.TopologicalSorter()
    for waiter, holder in edges:
        if waiter != holder:
            sorter.add(waiter, holder)
    try:
        sorter.prepare()
        acyclic = True
    except graphlib.CycleError:
        acyclic = False
    assert (expected is None) == acyclic
