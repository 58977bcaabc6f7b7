"""Chaos smoke: every crash-capable protocol under loss, duplication,
jitter and a client crash, a site that never comes back, and four traced
runs whose traces are schema-validated and exported.

Run alone with ``python -m pytest -m chaos -q``. The crash runs are
generated from the registry, so a protocol that declares crash recovery
is crashed here the moment it does.
"""

import json

import pytest

from helpers import write_jsonl_per_row
from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.network.faults import FaultInjector, FaultSpec
from repro.network.reliable import ReliableLink
from repro.network.topology import Site, UniformTopology
from repro.network.transport import Network
from repro.obs.export import write_chrome_trace, write_jsonl, write_probes_csv
from repro.obs.schema import validate_trace
from repro.protocols import registry
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

pytestmark = pytest.mark.chaos

FAULTS = "loss=0.05,dup=0.01,jitter=25,crash=2@6000:12000"


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("protocol",
                         registry.protocols_with("crash_recovery"))
def test_faulted_smoke_run(protocol, seed):
    config = SimulationConfig(
        protocol=protocol, n_clients=4, n_items=6,
        total_transactions=60, warmup_transactions=10,
        faults=FAULTS, record_history=True)
    # run_simulation raises on any serializability or strictness
    # violation when record_history is on
    result = run_simulation(config, seed=seed)
    assert result.metrics.committed > 0


def test_a_site_down_for_good_is_retried_forever_at_the_capped_interval():
    # 1,100 retransmissions of one message on a bare link, under a
    # second: the 1,024th used to die computing 2.0 ** 1024
    sim = Simulator()
    injector = FaultInjector(FaultSpec.parse("crash=1@5"),
                             RandomStreams(1).spawn("faults"))
    net = Network(sim, UniformTopology(10.0), faults=injector)
    sender, _dead = net.add_site(Site(0)), net.add_site(Site(1))
    link = ReliableLink(sim, sender, rto=30.0)
    link.send(1, "x")
    sim.run(until=30.0 * 16 * 1100)
    assert link.retransmissions > 1100
    # every copy is severed, the first transmission included
    assert injector.stats.dropped_crash == link.retransmissions + 1


SMALL = dict(n_clients=4, n_items=6, total_transactions=60,
             warmup_transactions=10)
#: the two faulted static cells, plus one contention-adaptive and one
#: sharded-2PC run: their hybrid.* and twopc.* kinds were once missing
#: from the schema while only the faulted traces were validated
TRACED = {
    "s2pl-faulted": dict(SMALL, protocol="s2pl", faults=FAULTS),
    "g2pl-faulted": dict(SMALL, protocol="g2pl", faults=FAULTS),
    "hybrid": dict(
        protocol="hybrid", n_clients=10, n_items=8, read_probability=0.75,
        network_latency=200.0, total_transactions=150,
        warmup_transactions=20),
    "s2pl-sharded-2pc": dict(
        protocol="s2pl", n_clients=6, n_items=12, n_shards=4, n_regions=2,
        intra_region_latency=1.0, network_latency=100.0,
        cross_shard_probability=0.5, total_transactions=100,
        warmup_transactions=10),
}


@pytest.mark.parametrize("name", TRACED)
def test_traced_run_validates_and_exports(name, tmp_path):
    config = SimulationConfig(record_history=True, trace=True,
                              probe_interval=200.0, **TRACED[name])
    result = run_simulation(config)
    trace = result.trace
    assert validate_trace(trace) == []
    export = tmp_path / f"{name}.jsonl"
    write_jsonl(export, trace, config=config, seed=result.seed)
    with open(export, encoding="utf-8") as lines:
        rows = [json.loads(line) for line in lines]
    assert len(rows) == (1 + len(trace.events) + len(trace.txns)
                         + len(trace.probes))
    sends = sum(1 for row in rows
                if row["type"] == "event" and row["kind"] == "msg.send")
    assert sends == trace.summary.messages_sent
    # the compiled writer holds to the bytes of the per-row json.dumps one
    oracle = tmp_path / f"{name}.oracle.jsonl"
    write_jsonl_per_row(oracle, trace, config=config, seed=result.seed)
    assert export.read_bytes() == oracle.read_bytes()
    write_chrome_trace(tmp_path / f"{name}.chrome.json", trace)
    write_probes_csv(tmp_path / f"{name}.metrics.csv", trace)
