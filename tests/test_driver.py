"""Unit tests for the client driver and run control."""

import pytest

from repro.locking.modes import LockMode
from repro.sim import RandomStreams, Simulator
from repro.stats.collector import MetricsCollector
from repro.workload.driver import ClientDriver, RunControl
from repro.workload.generator import WorkloadGenerator, WorkloadParams


class InstantClient:
    """A protocol client stub: every transaction commits after one unit."""

    def __init__(self, sim):
        self.sim = sim
        self.executed = []

    def execute(self, txn):
        self.executed.append(txn.txn_id)
        yield self.sim.timeout(1.0)
        txn.commit()
        from repro.protocols.transaction import TxnOutcome

        return TxnOutcome(txn_id=txn.txn_id, client_id=txn.client_id,
                          committed=True, start_time=self.sim.now - 1.0,
                          end_time=self.sim.now, n_ops=txn.spec.n_ops,
                          n_writes=txn.spec.n_writes)


def build(sim, target=10, n_clients=2):
    control = RunControl(sim, target)
    collector = MetricsCollector(0)
    generator = WorkloadGenerator(
        WorkloadParams(n_items=5, min_ops=1, max_ops=2), RandomStreams(1))
    clients = {}
    for client_id in range(1, n_clients + 1):
        client = InstantClient(sim)
        clients[client_id] = client
        ClientDriver(sim, client_id, client, generator, control,
                     collector).start()
    return control, collector, clients


def test_run_stops_exactly_at_target():
    sim = Simulator()
    control, collector, _ = build(sim, target=10)
    sim.run(until=control.done_event)
    assert control.finished == 10
    assert collector.metrics.finished == 10


def test_txn_ids_unique_and_increasing():
    sim = Simulator()
    control, _, clients = build(sim, target=12)
    sim.run(until=control.done_event)
    all_ids = [txn_id for c in clients.values() for txn_id in c.executed]
    assert len(all_ids) == len(set(all_ids))


def test_run_control_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        RunControl(sim, 0)


def test_done_event_fires_once():
    sim = Simulator()
    control = RunControl(sim, 2)
    control.transaction_finished()
    control.transaction_finished()
    control.transaction_finished()  # past the target: must not re-trigger
    assert control.done
    sim.run()
    assert control.done_event.value == 2


class CrashableClient(InstantClient):
    """InstantClient that survives a crash interrupt mid-transaction."""

    def execute(self, txn):
        from repro.protocols.transaction import TxnOutcome
        from repro.sim.errors import Interrupt

        self.executed.append(txn.txn_id)
        start = self.sim.now
        try:
            yield self.sim.timeout(1.0)
        except Interrupt:
            txn.abort("client-crash")
            return TxnOutcome(txn_id=txn.txn_id, client_id=txn.client_id,
                              committed=False, start_time=start,
                              end_time=self.sim.now, n_ops=txn.spec.n_ops,
                              n_writes=txn.spec.n_writes,
                              abort_reason="client-crash")
        txn.commit()
        return TxnOutcome(txn_id=txn.txn_id, client_id=txn.client_id,
                          committed=True, start_time=start,
                          end_time=self.sim.now, n_ops=txn.spec.n_ops,
                          n_writes=txn.spec.n_writes)


def test_repeated_crash_keeps_restart_event():
    # Regression: a second crash() on a down site used to replace the
    # restart event, orphaning loops parked on the old one — restart()
    # would trigger only the replacement and the site slept forever.
    sim = Simulator()
    control = RunControl(sim, 4)
    collector = MetricsCollector(0)
    generator = WorkloadGenerator(WorkloadParams(), RandomStreams(1))
    driver = ClientDriver(sim, 1, CrashableClient(sim), generator, control,
                          collector)
    driver.crash()
    event = driver._restart_event
    driver.crash()  # idempotent: the live event must be kept
    assert driver._restart_event is event
    driver.restart()
    assert event.triggered


def test_double_crash_then_restart_resumes_the_loop():
    sim = Simulator()
    control = RunControl(sim, 8)
    collector = MetricsCollector(0)
    generator = WorkloadGenerator(WorkloadParams(), RandomStreams(1))
    client = CrashableClient(sim)
    driver = ClientDriver(sim, 1, client, generator, control, collector)
    driver.start()
    sim.call_later(15.0, driver.crash)
    sim.call_later(16.0, driver.crash)  # repeated crash on a down site
    sim.call_later(40.0, driver.restart)
    sim.run(until=control.done_event)
    assert control.finished == 8
    # The outage window is dead time: nothing starts between the crash
    # and the restart, and the run completes only after the restart.
    assert sim.now > 40.0


def test_clients_stagger_their_first_transaction():
    sim = Simulator()
    control, _, clients = build(sim, target=4, n_clients=2)
    starts = {}

    sim.run(until=control.done_event)
    # Different clients drew different staggers: their first transactions
    # were not issued in lockstep (probabilistic but deterministic per
    # seed; seed 1 gives distinct values).
    generator = WorkloadGenerator(WorkloadParams(), RandomStreams(1))
    assert generator.initial_stagger(1) != generator.initial_stagger(2)
