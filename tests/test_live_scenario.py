"""Scenario layer: specs, schedules, sim-side reference runs, merging."""

import dataclasses
import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.runner import assemble, run_simulation
from repro.live.results import MergedRun
from repro.live.scenario import (
    ScenarioSpec,
    replay_schedule,
    run_reference,
    schedule_from_json,
    schedule_to_json,
)
from repro.obs.rounds import expected_rounds
from repro.perf.fingerprint import result_fingerprint

from helpers import account_record, partial_record
from helpers import endpoint_payload as _payload

#: a short Table 1 run at loopback latency (workload mode)
WORKLOAD = SimulationConfig(protocol="s2pl", n_clients=3, network_latency=2.0,
                            total_transactions=40, warmup_transactions=5,
                            seed=5)


def calibrate_spec(protocol="g2pl", n_clients=4, **spec_fields):
    return ScenarioSpec(SimulationConfig(
        protocol=protocol, n_clients=n_clients, network_latency=2.0),
        **spec_fields)


def test_spec_round_trips_through_dict():
    spec = ScenarioSpec(WORKLOAD.replace(protocol="g2pl", n_clients=6,
                                         network_latency=3.0, seed=9),
                        mode="workload", trace_export=True)
    # a live run is traced and keeps its history, whatever it was given
    assert spec.config.trace and spec.config.record_history
    assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
        == spec


def test_spec_rejects_bad_modes_and_sizes():
    with pytest.raises(ValueError):
        ScenarioSpec(WORKLOAD, mode="nope")
    with pytest.raises(ValueError):
        calibrate_spec(n_clients=1)
    with pytest.raises(ValueError):
        calibrate_spec(repeats=0)


@pytest.mark.parametrize("n_clients", [10, 12, 16])
def test_spec_rejects_a_calibrate_window_that_would_split(n_clients):
    """At the default spacing 0.5, latency 2 and think 1, a contender
    requesting at 1 + (m-1)*0.5 >= 5 reaches the server after the
    primer's release: the epoch would read one round more than 2m+1."""
    with pytest.raises(ValueError, match="window splits"):
        calibrate_spec(n_clients=n_clients)


def test_spec_rejects_a_negative_spacing():
    with pytest.raises(ValueError, match="spacing"):
        calibrate_spec(spacing=-0.5)


@pytest.mark.parametrize("field, changes", [
    ("bandwidth", dict(bandwidth=10.0)),
    ("faults", dict(faults="loss=0.1")),
    ("n_shards", dict(n_shards=2)),
    ("n_regions", dict(n_shards=2, n_regions=2)),
    ("population", dict(population=100)),
])
def test_spec_rejects_a_field_live_mode_cannot_honour(field, changes):
    config = WORKLOAD.replace(**changes)
    with pytest.raises(ValueError, match=f"cannot honour .*{field}"):
        ScenarioSpec(config, mode="workload")


@pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
def test_calibrate_reference_matches_paper_arithmetic(protocol):
    """The staggered contended scenario must still produce the paper's
    closed forms (3m / 2m+1 per epoch) — the stagger fixes arrival order
    without changing the window composition."""
    spec = calibrate_spec(protocol, n_clients=5)
    ref, schedule = run_reference(spec)
    m = spec.config.n_clients - 1
    measured = [r for r in ref.trace.txns
                if r["measured"] and r["committed"]]
    assert len(measured) == m * spec.repeats
    total = sum(r["rounds_sequential"] for r in measured)
    assert total == expected_rounds(protocol, m) * spec.repeats
    # calibrate histories are single-item write chains: always clean,
    # and every scheduled transaction (primers too) commits
    assert ref.serializability.ok
    assert sorted(r["txn"] for r in ref.trace.txns if r["committed"]) \
        == sorted(entry[1] for entries in schedule.values()
                  for entry in entries)
    assert len(ref.trace.txns) == (m + 1) * spec.repeats
    # the widest window the spec accepts at these settings (its last
    # contender requests at 4.5 < 2*latency + think) still adds up
    widest, _ = run_reference(dataclasses.replace(
        spec, config=spec.config.replace(n_clients=9)))
    assert widest.trace.summary.rounds_total \
        == expected_rounds(protocol, 8) * spec.repeats


def test_calibrate_reference_is_deterministic():
    spec = calibrate_spec("g2pl", repeats=2)
    (a, _), (b, _) = run_reference(spec), run_reference(spec)
    assert {r["txn"]: (r["rounds"], r["response"]) for r in a.trace.txns} \
        == {r["txn"]: (r["rounds"], r["response"]) for r in b.trace.txns}


def test_the_workload_schedule_is_the_simulators_own_run():
    spec = ScenarioSpec(WORKLOAD, mode="workload")
    reference, schedule = run_reference(spec)
    source = run_simulation(spec.config)
    # the run the schedule is read off is run_simulation(config), traced
    # and with its history checked: turning both on moved nothing
    assert result_fingerprint(source) == result_fingerprint(
        run_simulation(WORKLOAD.replace(trace=True)))
    assert source.serializability.ok and source.metrics.committed > 0
    assert schedule == replay_schedule(spec.config, source.trace)
    # every transaction it began, finished or not, once
    assert any(record.get("unfinished") for record in source.trace.txns)
    assert sorted(entry[1] for entries in schedule.values()
                  for entry in entries) \
        == sorted(record["txn"] for record in source.trace.txns)
    # the reference is the replay: it finishes them all
    assert not any(record.get("unfinished")
                   for record in reference.trace.txns)
    assert reference.serializability.ok
    # and the schedule survives the trip to an endpoint's config file
    assert schedule_from_json(json.loads(json.dumps(
        schedule_to_json(schedule)))) == schedule


@pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
def test_replaying_a_reference_schedule_reproduces_it(protocol):
    """Every transaction the run finished is finished again by the replay
    with the same rounds and the same response, to the bit. The run is
    drained after its last counted transaction, as the replay is, so
    charges landing after that (g-2PL releases after a commit) are
    counted on both sides: at this seed, g-2PL's txn 77 would otherwise
    miss its three release rounds."""
    config = WORKLOAD.replace(protocol=protocol, n_clients=5, n_items=8,
                              network_latency=50.0, total_transactions=80,
                              seed=6, trace=True)
    run = assemble(config, config.seed)
    run.run(config)
    run.sim.run()
    run.tracer.close()
    trace = run.tracer.finish()
    replay = run_simulation(config,
                            schedule=replay_schedule(config, trace))
    replayed = {record["txn"]: record for record in replay.trace.txns}
    finished = [record for record in trace.txns
                if not record.get("unfinished")]
    assert len(finished) == config.total_transactions
    keys = ("rounds", "start", "response", "committed", "measured")
    for record in finished:
        assert [replayed[record["txn"]][key] for key in keys] \
            == [record[key] for key in keys]


def _record(txn, rounds, response=10.0):
    return account_record(txn, response, propagation=4.0, transmission=0.0,
                          slack=0.0, client_think=1.0, commit_coord=0.0,
                          rounds=rounds)


def test_merge_folds_partial_charges_into_owner_record():
    owner = _payload(1, "client",
                     records=[_record(1_000_001, {"request": 1})])
    server = _payload(0, "server", partials=[partial_record(
        1_000_001, {"grant": 1}, propagation=2.0, slack=0.5)])
    merged = MergedRun([server, owner])
    record = merged.records[1_000_001]
    assert record["rounds"] == {"request": 1, "grant": 1}
    assert record["rounds_sequential"] == 2
    assert record["propagation"] == 6.0
    # lock_wait recomputed from the merged components
    assert record["lock_wait"] == pytest.approx(10.0 - (6.0 + 0.5 + 1.0))
    assert merged.orphans == []


def test_merge_reports_orphan_partials():
    server = _payload(0, "server",
                      partials=[partial_record(42, {"grant": 1}, client=None)])
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
