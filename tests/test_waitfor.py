"""Unit tests for the wait-for cycle search, on the test-only
materialised graph and on the lock table."""

import graphlib

from hypothesis import given, settings, strategies as st

from helpers import WaitForGraph
from repro.locking import LockMode, LockTable
from repro.locking.waitfor import (
    expansion_order,
    find_any_cycle,
    find_cycle_through,
    name_cycle,
)


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
    the cycle through 9. Named over the lock table's edges, it is the
    same cycle; the unordered walk finds one of the two."""
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
    assert name_cycle(0, table.waits_for) == [0, 10, 0]
    assert find_cycle_through(0, table.waits_for) in ([0, 9, 0], [0, 10, 0])


@given(st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)),
               max_size=30))
@settings(max_examples=500, deadline=None)
def test_find_any_cycle_matches_the_per_node_loop(edges):
    """The trim changes neither which node's cycle comes back nor when
    one does: the oracle is the pinned-order loop it replaced, and the
    cycle that loop found is the one the victim's name gives."""
    wfg = WaitForGraph()
    for waiter, holder in edges:
        wfg.add_edge(waiter, holder)
    expected = None
    for node in sorted(wfg._out, key=repr):
        expected = wfg.find_cycle_from(node)
        if expected:
            break
    found = wfg.find_any_cycle()
    assert (found is None) == (expected is None)
    if found is not None:
        assert found[0] == found[-1] == expected[0]
        assert all(holder in wfg._out[waiter]
                   for waiter, holder in zip(found, found[1:]))
        assert wfg.find_cycle_from(found[0]) == expected
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


def pinned_find_any_cycle(out, alive):
    """``find_any_cycle`` as it was: the same trim, then every walk
    expands successors in the pinned order. The oracle for the victim
    sequence of the unordered walk."""
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
    for node in sorted(alive, key=repr):
        cycle = find_cycle_through(
            node, lambda txn: expansion_order(out[txn] & alive))
        if cycle:
            return cycle
    return None


def on_a_cycle(out, nodes):
    """Every node of ``nodes`` that reaches itself through ``nodes``
    alone, by brute-force reachability."""
    cyclic = set()
    for start in nodes:
        seen, frontier = set(), [start]
        while frontier:
            for nxt in out.get(frontier.pop(), ()):
                if nxt in nodes and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if start in seen:
            cyclic.add(start)
    return cyclic


def victims(search, out):
    """Discard each cycle's first node and search again, as the sweep
    does: the victims in order."""
    alive, found = set(out), []
    while (cycle := search(out, alive)) is not None:
        found.append(cycle[0])
        alive.discard(cycle[0])
    return found


@given(st.sets(st.tuples(st.integers(0, 14), st.integers(0, 14)),
               max_size=40))
@settings(max_examples=400, deadline=None)
def test_the_sweeps_victims_do_not_depend_on_the_walk_order(edges):
    """Ids 0-14 straddle a digit boundary, so ``repr`` order is not
    numeric order. Every victim is the smallest-``repr`` node still on a
    cycle, and the sequence is the pinned-order search's."""
    out = {}
    for waiter, holder in edges:
        if waiter != holder:
            out.setdefault(waiter, set()).add(holder)
    out = {txn: frozenset(blockers) for txn, blockers in out.items()}
    found = victims(find_any_cycle, out)
    assert found == victims(pinned_find_any_cycle, out)
    remaining = set(out)
    for victim in found:
        assert victim == min(on_a_cycle(out, remaining), key=repr)
        remaining.discard(victim)
    assert not on_a_cycle(out, remaining)
