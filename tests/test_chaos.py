"""Chaos smoke: every crash-capable protocol under loss, duplication,
jitter and a client crash, and a site that never comes back.

Run alone with ``python -m pytest -m chaos -q``. The crash runs are
generated from the registry, so a protocol that declares crash recovery
is crashed here the moment it does.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.network.faults import FaultInjector, FaultSpec
from repro.network.reliable import ReliableLink
from repro.network.topology import Site, UniformTopology
from repro.network.transport import Network
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
