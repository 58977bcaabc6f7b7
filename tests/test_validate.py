"""Unit tests for the history recorder and the serializability checker."""

import pytest

from repro.locking.modes import LockMode
from repro.validate.history import HistoryRecorder
from repro.validate.serializability import build_conflict_graph, check_history

R, W = LockMode.READ, LockMode.WRITE


def history(*events, committed=(), aborted=()):
    """events: (txn, item, mode, version) tuples in time order."""
    h = HistoryRecorder()
    for time, (txn, item, mode, version) in enumerate(events):
        h.record_access(txn, item, mode, version, float(time))
    for txn in committed:
        h.record_commit(txn)
    for txn in aborted:
        h.record_abort(txn)
    return h


def test_empty_history_is_serializable():
    report = check_history(HistoryRecorder())
    assert report.ok
    assert report.n_txns == 0


def test_serial_writes_are_serializable():
    h = history(("a", 0, W, 1), ("b", 0, W, 2), committed=("a", "b"))
    report = check_history(h)
    assert report.ok
    assert report.n_edges == 1  # ww: a -> b


def test_write_read_edge():
    h = history(("a", 0, W, 1), ("b", 0, R, 1), committed=("a", "b"))
    edges, anomalies = build_conflict_graph(h)
    assert not anomalies
    assert edges == {"a": {"b"}}


def test_read_write_edge():
    h = history(("a", 0, R, 0), ("b", 0, W, 1), committed=("a", "b"))
    edges, _ = build_conflict_graph(h)
    assert edges == {"a": {"b"}}


def test_classic_nonserializable_cycle_detected():
    # a reads 0 before b writes it; b reads 1 before... a writes 1 after b
    # read it: a -> b (rw on item 0), b -> a (rw on item 1).
    h = history(
        ("a", 0, R, 0), ("b", 1, R, 0),
        ("b", 0, W, 1), ("a", 1, W, 1),
        committed=("a", "b"))
    report = check_history(h)
    assert not report.serializable
    assert set(report.cycle) == {"a", "b"}


def test_aborted_transactions_ignored():
    h = history(
        ("a", 0, R, 0), ("b", 1, R, 0),
        ("b", 0, W, 1), ("a", 1, W, 1),
        committed=("a",), aborted=("b",))
    assert check_history(h).ok


def test_version_gap_is_an_anomaly():
    h = history(("a", 0, W, 1), ("b", 0, W, 3), committed=("a", "b"))
    report = check_history(h)
    assert not report.ok
    assert any("gaps" in a for a in report.anomalies)


def test_duplicate_version_is_an_anomaly():
    h = history(("a", 0, W, 1), ("b", 0, W, 1), committed=("a", "b"))
    report = check_history(h)
    assert any("written by both" in a for a in report.anomalies)


def test_read_of_unwritten_version_is_an_anomaly():
    h = history(("a", 0, R, 7), committed=("a",))
    report = check_history(h)
    assert any("read version" in a for a in report.anomalies)


def test_own_write_read_does_not_self_edge():
    h = history(("a", 0, W, 1), ("a", 0, R, 1), committed=("a",))
    edges, anomalies = build_conflict_graph(h)
    assert not anomalies
    assert edges == {}


def test_commit_after_abort_rejected():
    h = HistoryRecorder()
    h.record_abort("t")
    with pytest.raises(ValueError):
        h.record_commit("t")
    h2 = HistoryRecorder()
    h2.record_commit("u")
    with pytest.raises(ValueError):
        h2.record_abort("u")


def test_disabled_recorder_records_nothing():
    h = HistoryRecorder(enabled=False)
    h.record_access("t", 0, W, 1, 0.0)
    h.record_commit("t")
    assert h.accesses == []
    assert not h.committed


def test_long_chain_serializable():
    events = []
    for i in range(50):
        events.append((f"t{i}", 0, W, i + 1))
    h = history(*events, committed=[f"t{i}" for i in range(50)])
    report = check_history(h)
    assert report.ok
    assert report.n_edges == 49


def test_report_str():
    good = check_history(history(("a", 0, W, 1), committed=("a",)))
    assert "serializable" in str(good)
    bad = check_history(history(("a", 0, R, 9), committed=("a",)))
    assert "NOT OK" in str(bad)
