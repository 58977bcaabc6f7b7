"""The closed loop's heap budget, and what a crash does to it.

One operation of a closed-loop client costs the messages it sends plus
*one* timer: the handler that satisfies a grant arms the waiting event to
fire ``think_time`` later (``Event.succeed_after``), and the driver runs
``execute`` inside its own loop coroutine. The first test derives the
heap-entry count of two golden cells from protocol counters, term by
term, so a re-introduced hop fails under its own name. The rest pin what
must *not* have moved: the traced goldens outside the two heap counters,
and the outcome of a site that fail-stops in each state the loop can be
in (values recorded at the commit before the hops were removed).
"""

import copy

import pytest

from helpers import TRACED_GOLDEN_CELLS
from repro.core.config import SimulationConfig
from repro.core.runner import assemble, run_simulation
from repro.perf.fingerprint import fingerprint_digest
from repro.perf.goldens import golden_config, load_golden


# -- hops pinned ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["g2pl_plain", "s2pl_plain"])
def test_heap_entries_derive_from_counters(name):
    config, seed = golden_config(name)
    built = assemble(config, seed)
    sim = built.sim
    wakeups = []  # abort notices that found their transaction waiting
    for client in built.clients.values():
        def counted(msg, client=client, handler=client.on_AbortNotice):
            if msg.txn_id in client._grant_events:
                wakeups.append(msg.txn_id)
            handler(msg)
        client.on_AbortNotice = counted
    built.run(config)

    pushed = {
        "loop starts": config.n_clients,
        "stagger timers": config.n_clients,
        "deliveries": built.network.stats.messages_sent,
        "grant+think timers": sum(len(client.op_waits)
                                  for client in built.clients.values()),
        "abort wake-ups": len(wakeups),
        "idle timers": built.control.finished,
        "done event": 1,
    }
    # every entry ever pushed was processed or is still pending
    assert sim.processed_events + sim.pending == sum(pushed.values()), pushed
    result = run_simulation(config, seed=seed)
    assert result.engine_stats["processed_events"] == sim.processed_events
    assert pushed["abort wake-ups"] > 0  # the kept hop is exercised


# -- what must not have moved --------------------------------------------------

#: sha-256 of each traced golden's fingerprint without the two heap
#: counters, taken at the commit before the hops were removed (the two
#: hybrid cells re-pinned when the server dropped its window-occupancy,
#: hold and speculation gauges: only their probe series moved;
#: hybrid_sharded_traced again when grafted grants gained their shard:
#: only its rounds_by_shard grant counts moved; g2pl_contention_traced
#: taken at the commit that made the kernel benchmark's cells goldens)
TRACED_DIGESTS_BEFORE = {
    "g2pl_contention_traced":
        "33f4282b7272e18d6b8c84922f9d3741766631003fcd259b52059567ac7cd9c4",
    "g2pl_sharded_traced":
        "407e5331e271cf8710d5daf1273c451767006fb65fedcda6e74a54e31405fdb2",
    "g2pl_traced":
        "e407d4fdef82acb08e09c4858390e93038f75b46aa7323a1d48411fc91a0a0bc",
    "hybrid_sharded_traced":
        "c5b9dddf51a5614fc1d5f7410ab8745f765bdf956ad9dfe4ac35cf07a140ce77",
    "hybrid_traced":
        "89c732b79eb5ace19e23ab2a8beecf9fc0e6bcf6dc0b0f0e3adb507bb1a514d6",
    "s2pl_faulted_traced":
        "7b72dbe296a62ee1ac80d3ff74eec6cfba3ccfc6ea62740b87be8e32652d1f16",
    "s2pl_sharded_traced":
        "95d53ce079d0178e742ec253ed30df5e430be4faa3314872ab89b0272303d61a",
}


def test_every_traced_golden_is_pinned():
    assert sorted(TRACED_DIGESTS_BEFORE) == TRACED_GOLDEN_CELLS


@pytest.mark.parametrize("name", sorted(TRACED_DIGESTS_BEFORE))
def test_traced_golden_moved_only_in_heap_counters(name):
    # test_fastpath_replay holds the run to the golden; this holds the
    # golden to what it was, the two heap counters aside and the retired
    # server_queue component back at the 0.0 it always summed to.
    fingerprint = copy.deepcopy(load_golden(name)["fingerprint"])
    for counter in ("processed_events", "peak_heap_depth"):
        del fingerprint["trace_summary"][counter]
    fingerprint["trace_summary"]["server_queue_sum"] = "0.0"
    assert fingerprint_digest(fingerprint) == TRACED_DIGESTS_BEFORE[name]


# -- crashes unchanged ---------------------------------------------------------

#: (protocol, state of site 2 when it fail-stops, fault spec) ->
#: (committed, aborted, abort_reasons, repr(end time), outcomes site 2
#: recorded, its failed transactions), as the spawning driver left them
CRASH_CASES = {
    ("g2pl", "commit-wait", "crash=2@410:3000"):
        (44, 11, {"precedence-cycle": 11}, "29140.93390840351", 16,
         [(2, "commit-limbo"), (23, "precedence-cycle")]),
    ("g2pl", "grant-wait", "crash=2@1000:3000"):
        (44, 11, {"precedence-cycle": 11}, "28334.09677902134", 16,
         [(4, "client-crash"), (23, "precedence-cycle")]),
    ("g2pl", "idle", "crash=2@610:3000"):
        (44, 11, {"precedence-cycle": 11}, "29140.93390840351", 16,
         [(23, "precedence-cycle")]),
    ("g2pl", "parked", "crash=2@1000:3000,crash=2@1500:3000"):
        (44, 11, {"precedence-cycle": 11}, "28334.09677902134", 16,
         [(4, "client-crash"), (23, "precedence-cycle")]),
    ("g2pl", "think", "crash=2@2222.5:4000"):
        (44, 11, {"precedence-cycle": 11}, "28334.09677902134", 16,
         [(4, "client-crash"), (23, "precedence-cycle")]),
    ("s2pl", "grant-wait", "crash=2@1000:3000"):
        (46, 9, {"deadlock": 9}, "21435.71366843262", 15,
         [(4, "client-crash"), (23, "deadlock"), (29, "deadlock"),
          (34, "deadlock"), (36, "deadlock")]),
    ("s2pl", "idle", "crash=2@411:3000"):
        (44, 11, {"deadlock": 11}, "22445.248193102063", 15,
         [(22, "deadlock"), (28, "deadlock"), (34, "deadlock"),
          (36, "deadlock")]),
    ("s2pl", "parked", "crash=2@1000:3000,crash=2@1500:3000"):
        (46, 9, {"deadlock": 9}, "21435.71366843262", 15,
         [(4, "client-crash"), (23, "deadlock"), (29, "deadlock"),
          (34, "deadlock"), (36, "deadlock")]),
    ("s2pl", "think", "crash=2@618.7:3000"):
        (46, 9, {"deadlock": 9}, "21435.71366843262", 15,
         [(4, "client-crash"), (23, "deadlock"), (29, "deadlock"),
          (34, "deadlock"), (36, "deadlock")]),
}


def _site_state(built, client_id):
    """What the site's loop is doing right now."""
    client = built.clients[client_id]
    driver = built.drivers[client_id]
    if driver._crashed:
        assert not driver._in_txn
        assert driver.process._waiting_on is driver._restart_event
        return "parked"
    [txn_id] = client._active or [None]
    assert (txn_id is not None) == driver._in_txn
    if txn_id is None:
        return "idle"
    if txn_id in client._grant_events:
        return "grant-wait"
    if txn_id in getattr(client, "_commit_events", ()):
        return "commit-wait"
    return "think"  # granted; the armed event is pending


# The ids keep the "mpl1" the cells were recorded under: a closed-loop
# site runs one transaction at a time (Table 1's multiprogramming level).
@pytest.mark.parametrize(
    "protocol,state,faults", sorted(CRASH_CASES),
    ids=[f"{p}-mpl1-{s}" for p, s, _ in sorted(CRASH_CASES)])
def test_fail_stop_in_each_loop_state(protocol, state, faults):
    config = SimulationConfig(
        protocol=protocol, n_clients=3, n_items=6, read_probability=0.5,
        network_latency=100.0, total_transactions=60, warmup_transactions=5,
        faults=faults, record_history=True)
    built = assemble(config, 5)
    seen = []
    record = built.collector.record_outcome

    def recording(outcome):
        if outcome.client_id == 2:
            seen.append(outcome)
        record(outcome)

    built.collector.record_outcome = recording
    found = []
    # just before the (last) crash: the state the case is named after
    built.sim.call_later(config.faults.crashes[-1].at - 1e-6,
                         lambda: found.append(_site_state(built, 2)))
    built.run(config)
    built.check(config, 5, True)

    assert found == [state]
    metrics = built.collector.metrics
    committed, aborted, reasons, end, recorded, failed = \
        CRASH_CASES[protocol, state, faults]
    assert (metrics.committed, metrics.aborted) == (committed, aborted)
    assert dict(metrics.abort_reasons) == reasons
    assert repr(built.sim.now) == end
    assert len(seen) == recorded
    assert sorted((outcome.txn_id, outcome.abort_reason)
                  for outcome in seen if not outcome.committed) == failed
