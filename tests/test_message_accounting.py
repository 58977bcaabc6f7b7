"""Message and round accounting: the paper's §3.2 arithmetic.

For m clients exclusively accessing one item in a single collection
window, s-2PL needs 3m messages and 3m rounds (request, grant, release
per client, all sequential once the item is contended), while g-2PL needs
2m+1 messages on the critical path (m requests happen in parallel; then
grant, m-1 forwards, final return) — the release of one client rides the
grant of the next.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.locking.modes import LockMode
from repro.network.topology import UniformTopology
from repro.network.transport import Network
from repro.obs.rounds import run_worked_example
from repro.protocols.registry import make_protocol
from repro.protocols.transaction import Transaction
from repro.sim.engine import Simulator
from repro.storage.store import VersionedStore
from repro.validate.history import HistoryRecorder
from repro.workload.spec import Operation, TransactionSpec


def run_contended_chain(protocol, m=3, latency=2.0):
    """m clients, one exclusive item, all requests in one window/queue.
    Returns the network's per-message-type counters."""
    config = SimulationConfig(
        protocol=protocol, n_clients=m, n_items=1, network_latency=latency,
        read_probability=0.0, total_transactions=10,
        warmup_transactions=0)
    sim = Simulator()
    store = VersionedStore(range(1))
    network = Network(sim, UniformTopology(latency))
    spec = TransactionSpec(operations=(
        Operation(item_id=0, mode=LockMode.WRITE, think_time=1.0),))
    server, clients = make_protocol(
        protocol, sim, config, store, HistoryRecorder(),
        list(range(1, m + 1)))
    network.add_site(server)
    for client in clients.values():
        network.add_site(client)

    def launch(client_id, txn_id):
        def body():
            txn = Transaction(txn_id, client_id, spec)
            outcome = yield sim.spawn(clients[client_id].execute(txn))
            return outcome
        sim.spawn(body())

    for index in range(m):
        launch(index + 1, index + 1)
    sim.run()
    return network.stats


def test_s2pl_message_count_is_3m():
    for m in (2, 3, 5):
        stats = run_contended_chain("s2pl", m)
        per_type = stats.per_type
        assert per_type["LockRequest"] == m
        assert per_type["DataShip"] == m
        assert per_type["CommitRelease"] == m
        assert stats.messages_sent == 3 * m


def test_g2pl_data_moves_are_m_plus_2():
    """The data moves once per handoff instead of twice: here the first
    simultaneous request wins a solo window (ship + return) and the other
    m-1 share one chained window (ship + m-2 forwards + return), so the
    item moves m+2 times versus 2m under s-2PL (m grants + m releases)."""
    for m in (2, 3, 5):
        stats = run_contended_chain("g2pl", m)
        per_type = stats.per_type
        assert per_type["LockRequest"] == m
        data_moves = per_type.get("GShip", 0) + per_type.get(
            "ReturnToServer", 0)
        assert data_moves == m + 2
        # TxnDone notifications are off the critical path but on the wire.
        assert per_type.get("TxnDone", 0) == m


def test_g2pl_ships_less_data_than_s2pl():
    """Data units on the wire: s-2PL ships each version twice (grant +
    release), g-2PL once per hop."""
    for m in (3, 5):
        s_stats = run_contended_chain("s2pl", m)
        g_stats = run_contended_chain("g2pl", m)
        assert g_stats.data_units_sent < s_stats.data_units_sent


def _uncontended_sharded_run(protocol, commit_protocol="2pc", txns=10):
    """One client, four single-item shards, every transaction touching
    all four items: each commit is a 4-op, 4-home transaction, so the
    per-commit rounds are exactly the closed form."""
    from repro.core.runner import run_simulation

    config = SimulationConfig(
        protocol=protocol, n_clients=1, n_items=4, n_shards=4,
        cross_shard_probability=1.0, commit_protocol=commit_protocol,
        min_ops=4, max_ops=4, read_probability=0.0, network_latency=5.0,
        total_transactions=txns, warmup_transactions=0, trace=True,
        seed=3)
    result = run_simulation(config)
    summary = result.trace.summary
    assert summary.committed == txns
    return summary


def test_sharded_s2pl_classic_2pc_rounds_match_closed_form():
    """Classic 2PC: request + grant per op, then prepare, vote, decide —
    2m+3 sequential rounds (the m=4-op transaction pays 11)."""
    from repro.obs.rounds import expected_txn_rounds

    summary = _uncontended_sharded_run("s2pl", "2pc")
    expected = expected_txn_rounds("s2pl", 4, n_homes=4)
    assert summary.rounds_total == summary.committed * expected
    # message counts: one PrepareRequest / PrepareVote / CommitDecision
    # per participant shard per transaction
    per_kind = summary.msgs_by_kind
    assert per_kind["PrepareRequest"] == 4 * summary.committed
    assert per_kind["PrepareVote"] == 4 * summary.committed
    assert per_kind["CommitDecision"] == 4 * summary.committed


def test_sharded_s2pl_opt_commit_rounds_match_closed_form():
    """2pc-opt: votes ride the last grants and the decision doubles as
    the release — back to 2m+1, two rounds saved per commit."""
    from repro.obs.rounds import expected_txn_rounds

    classic = _uncontended_sharded_run("s2pl", "2pc")
    opt = _uncontended_sharded_run("s2pl", "2pc-opt")
    expected = expected_txn_rounds("s2pl", 4, n_homes=4,
                                   commit_protocol="2pc-opt")
    assert opt.rounds_total == opt.committed * expected
    assert (classic.rounds_total - opt.rounds_total
            == 2 * opt.committed)
    # no separate prepare phase on the wire
    assert "PrepareRequest" not in opt.msgs_by_kind
    assert "PrepareVote" not in opt.msgs_by_kind
    assert opt.msgs_by_kind["CommitDecision"] == 4 * opt.committed


def test_sharded_g2pl_commits_without_commit_messages():
    """Non-fault sharded g-2PL: the client commits locally and TxnDone
    retires the chains — zero 2PC messages, 3m rounds (request + ship +
    return per op)."""
    from repro.obs.rounds import expected_txn_rounds

    summary = _uncontended_sharded_run("g2pl")
    expected = expected_txn_rounds("g2pl", 4, n_homes=4)
    assert summary.rounds_total == summary.committed * expected
    for kind in ("PrepareRequest", "PrepareVote", "CommitDecision",
                 "ChainCommit"):
        assert kind not in summary.msgs_by_kind


def test_completion_time_gap_matches_round_arithmetic():
    """End-to-end: the last transaction completes (m-1) x latency earlier
    under g-2PL — one saved round per handoff."""
    for m in (3, 5):
        result = run_worked_example(n_clients=m, latency=2.0,
                                    processing=1.0)
        saved = result.s2pl_span - result.g2pl_span
        assert saved == pytest.approx((m - 1) * 2.0)
