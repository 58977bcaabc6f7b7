"""Property-based tests for the precedence graph and forward lists."""

import pytest
from helpers import dfs_reaches
from hypothesis import given, settings, strategies as st

from repro.locking.modes import LockMode
from repro.protocols.forward_list import FLEntry, ForwardList, TxnRef
from repro.protocols.precedence import PrecedenceGraph

R, W = LockMode.READ, LockMode.WRITE

EDGES = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
        lambda e: e[0] != e[1]),
    max_size=40,
)


def refuses(graph, src, dst):
    """g-2PL's check before it inserts ``src -> dst``: would it cycle?"""
    return src == dst or graph.reaches_any(dst, {src})


def build_graph(edges):
    """Insert ``edges`` in order as g-2PL does: refuse an edge that would
    close a cycle, insert the rest unchecked. Every answer is checked
    against the DFS oracle."""
    graph = PrecedenceGraph()
    accepted = []
    for src, dst in edges:
        refused = refuses(graph, src, dst)
        assert refused == (src == dst or dfs_reaches(graph, dst, src))
        if not refused:
            graph.add_edge_unchecked(src, dst)
            accepted.append((src, dst))
    return graph, accepted


@given(EDGES)
@settings(max_examples=300, deadline=None)
def test_graph_never_cycles(edges):
    graph, _ = build_graph(edges)
    assert graph.find_any_cycle() is None


@given(EDGES)
@settings(max_examples=300, deadline=None)
def test_rejected_edges_would_have_cycled(edges):
    graph = PrecedenceGraph()
    for src, dst in edges:
        if refuses(graph, src, dst):
            assert dfs_reaches(graph, dst, src)
        else:
            assert not dfs_reaches(graph, dst, src)
            graph.add_edge_unchecked(src, dst)
            assert dfs_reaches(graph, src, dst)
            assert graph.reaches_any(src, {dst})


@given(EDGES, st.lists(st.integers(0, 9), min_size=1, max_size=9,
                       unique=True))
@settings(max_examples=300, deadline=None)
def test_linear_extension_respects_reachability(edges, nodes):
    graph, _ = build_graph(edges)
    order = graph.linear_extension(nodes)
    assert sorted(order) == sorted(nodes)
    position = {node: i for i, node in enumerate(order)}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            forward, backward = (dfs_reaches(graph, u, v),
                                 dfs_reaches(graph, v, u))
            if forward and not backward:
                assert position[u] < position[v]
            elif backward and not forward:
                assert position[v] < position[u]


@given(EDGES, st.lists(st.integers(0, 9), min_size=2, max_size=9,
                       unique=True))
@settings(max_examples=200, deadline=None)
def test_chaining_extension_order_never_cycles(edges, nodes):
    """Adding chain edges along a linear extension keeps the DAG acyclic —
    the property window freezing relies on."""
    graph, _ = build_graph(edges)
    order = graph.linear_extension(nodes)
    for left, right in zip(order, order[1:]):
        assert not refuses(graph, left, right)
        graph.add_edge_unchecked(left, right)
    assert graph.find_any_cycle() is None


@given(EDGES)
@settings(max_examples=200, deadline=None)
def test_remove_node_keeps_graph_consistent(edges):
    graph, accepted = build_graph(edges)
    for node in range(0, 10, 2):
        graph.remove_node(node)
    assert graph.find_any_cycle() is None
    for node in range(0, 10, 2):
        assert not graph._out.get(node)
        assert not graph._in.get(node)
    for src, dst in accepted:
        if src % 2 and dst % 2:
            assert dst in graph._out[src]


REQUESTS = st.lists(
    st.tuples(st.integers(0, 20), st.sampled_from([R, W])),
    min_size=1, max_size=15,
    unique_by=lambda r: r[0],
)


@given(REQUESTS)
@settings(max_examples=300, deadline=None)
def test_forward_list_structure(requests):
    refs = [(TxnRef(txn_id=t, client_id=t % 5), mode)
            for t, mode in requests]
    fl = ForwardList.from_requests(refs)
    # 1. Entry modes alternate: never two adjacent read groups, and write
    #    entries hold exactly one transaction.
    for left, right in zip(fl.entries, fl.entries[1:]):
        assert not (left.is_read_group and right.is_read_group)
    for entry in fl:
        if not entry.is_read_group:
            assert len(entry.txns) == 1
    # 2. The flattened order equals the request order.
    assert [ref.txn_id for ref in fl.all_txns()] == [
        t for t, _ in requests]
    assert fl.txn_count() == len(requests)


@given(REQUESTS, st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_forward_list_tail(requests, start):
    refs = [(TxnRef(txn_id=t, client_id=1), mode) for t, mode in requests]
    fl = ForwardList.from_requests(refs)
    tail = fl.tail(start)
    assert tail.entries == fl.entries[start:]


def test_fl_entry_validation():
    with pytest.raises(ValueError):
        FLEntry(R, ())
    with pytest.raises(ValueError):
        FLEntry(W, (TxnRef(1, 1), TxnRef(2, 2)))
    entry = FLEntry(R, (TxnRef(1, 1),))
    with pytest.raises(ValueError):
        _ = entry.writer
