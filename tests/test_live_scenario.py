"""Scenario layer: sim-side reference runs and result merging."""

import pytest

from repro.live.results import MergedRun
from repro.live.scenario import (
    ScenarioSpec,
    TXN_ID_STRIDE,
    run_reference,
    txn_id_for,
)
from repro.obs.rounds import expected_rounds


def test_spec_round_trips_through_dict():
    spec = ScenarioSpec(protocol="g2pl", mode="workload", n_clients=6,
                        latency=3.0, seed=9, duration=77.0)
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_spec_rejects_bad_modes_and_sizes():
    with pytest.raises(ValueError):
        ScenarioSpec(mode="nope")
    with pytest.raises(ValueError):
        ScenarioSpec(mode="calibrate", n_clients=1)
    with pytest.raises(ValueError):
        ScenarioSpec(repeats=0)


@pytest.mark.parametrize("n_clients", [10, 12, 16])
def test_spec_rejects_a_calibrate_window_that_would_split(n_clients):
    """At the default spacing 0.5, latency 2 and think 1, a contender
    requesting at 1 + (m-1)*0.5 >= 5 reaches the server after the
    primer's release: the epoch would read one round more than 2m+1."""
    with pytest.raises(ValueError, match="window splits"):
        ScenarioSpec(protocol="g2pl", mode="calibrate", n_clients=n_clients)


def test_spec_rejects_a_negative_spacing():
    with pytest.raises(ValueError, match="spacing"):
        ScenarioSpec(spacing=-0.5)


def test_txn_ids_are_disjoint_per_client():
    assert txn_id_for(3, 7) == 3 * TXN_ID_STRIDE + 7
    with pytest.raises(ValueError):
        txn_id_for(1, TXN_ID_STRIDE)


@pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
def test_calibrate_reference_matches_paper_arithmetic(protocol):
    """The staggered contended scenario must still produce the paper's
    closed forms (3m / 2m+1 per epoch) — the stagger fixes arrival order
    without changing the window composition."""
    spec = ScenarioSpec(protocol=protocol, mode="calibrate", n_clients=5,
                        latency=2.0, think=1.0, repeats=3)
    ref = run_reference(spec)
    m = spec.n_clients - 1
    measured = [r for r in ref.trace.txns
                if r["measured"] and r["committed"]]
    assert len(measured) == m * spec.repeats
    total = sum(r["rounds_sequential"] for r in measured)
    assert total == expected_rounds(protocol, m) * spec.repeats
    # calibrate histories are single-item write chains: always clean
    assert len(ref.history.aborted) == 0
    assert len(ref.history.committed) == (m + 1) * spec.repeats
    # the widest window the spec accepts at these settings (its last
    # contender requests at 4.5 < 2*latency + think) still adds up
    widest = run_reference(spec.with_(n_clients=9))
    assert widest.trace.summary.rounds_total \
        == expected_rounds(protocol, 8) * spec.repeats


def test_calibrate_reference_is_deterministic():
    spec = ScenarioSpec(protocol="g2pl", mode="calibrate", n_clients=4,
                        repeats=2)
    a, b = run_reference(spec), run_reference(spec)
    assert {r["txn"]: r["rounds"] for r in a.trace.txns} \
        == {r["txn"]: r["rounds"] for r in b.trace.txns}
    assert [o.response_time for o, _ in a.outcomes] \
        == [o.response_time for o, _ in b.outcomes]


def test_workload_reference_runs_and_validates():
    spec = ScenarioSpec(protocol="s2pl", mode="workload", n_clients=3,
                        latency=2.0, duration=80.0, seed=5)
    ref = run_reference(spec)
    assert len(ref.history.committed) > 0
    # every committed outcome was measured and recorded
    committed = {o.txn_id for o, _ in ref.outcomes if o.committed}
    assert committed == ref.history.committed


def _payload(site, role, records=(), partials=(), outcomes=(),
             history=None, net=None):
    history = history or {"accesses": [], "committed": [], "aborted": [],
                          "commit_times": {}}
    net = net or {"messages_sent": 0, "data_units_sent": 0.0,
                  "per_type": {}}
    return {"role": role, "site": site, "protocol": "s2pl",
            "mode": "calibrate", "outcomes": list(outcomes),
            "txn_records": list(records), "partial_records": list(partials),
            "history": history, "net": net,
            "engine": {"processed_events": 0, "peak_heap_depth": 0,
                       "cancelled_events": 0, "end_time": 0.0}}


def _record(txn, rounds, response=10.0):
    return {"txn": txn, "client": 1, "rounds": rounds,
            "rounds_sequential": sum(rounds.values()), "propagation": 4.0,
            "transmission": 0.0, "slack": 0.0, "server_queue": 0.0,
            "client_think": 1.0, "committed": True, "measured": True,
            "start": 0.0, "end": response, "response": response,
            "n_ops": 1, "abort_reason": None}


def test_merge_folds_partial_charges_into_owner_record():
    owner = _payload(1, "client",
                     records=[_record(1_000_001, {"request": 1})])
    server = _payload(0, "server", partials=[
        {"txn": 1_000_001, "client": 1, "rounds": {"grant": 1},
         "propagation": 2.0, "transmission": 0.0, "slack": 0.5,
         "server_queue": 0.0, "client_think": 0.0}])
    merged = MergedRun([server, owner])
    record = merged.records[1_000_001]
    assert record["rounds"] == {"request": 1, "grant": 1}
    assert record["rounds_sequential"] == 2
    assert record["propagation"] == 6.0
    # lock_wait recomputed from the merged components
    assert record["lock_wait"] == pytest.approx(10.0 - (6.0 + 0.5 + 1.0))
    assert merged.orphans == []


def test_merge_reports_orphan_partials():
    server = _payload(0, "server", partials=[
        {"txn": 42, "client": None, "rounds": {"grant": 1},
         "propagation": 0.0, "transmission": 0.0, "slack": 0.0,
         "server_queue": 0.0, "client_think": 0.0}])
    merged = MergedRun([server])
    assert len(merged.orphans) == 1
    assert merged.orphans[0]["txn"] == 42
    assert merged.orphans[0]["site"] == 0


def test_merge_rejects_double_finish():
    a = _payload(1, "client", records=[_record(7, {"request": 1})])
    b = _payload(2, "client", records=[_record(7, {"request": 1})])
    with pytest.raises(ValueError, match="two endpoints"):
        MergedRun([a, b])


def test_merge_rebuilds_history_in_time_order():
    a = _payload(1, "client", history={
        "accesses": [[1_000_001, 0, "WRITE", 1, 5.0]],
        "committed": [1_000_001], "aborted": [],
        "commit_times": {"1000001": 6.0}})
    b = _payload(2, "client", history={
        "accesses": [[2_000_001, 0, "WRITE", 2, 3.0]],
        "committed": [2_000_001], "aborted": [],
        "commit_times": {"2000001": 4.0}})
    merged = MergedRun([a, b])
    times = [access.time for access in merged.history.accesses]
    assert times == sorted(times)
    assert merged.history.committed == {1_000_001, 2_000_001}
    assert merged.history.commit_times[2_000_001] == 4.0
