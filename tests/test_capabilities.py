"""The capability table is the contract: what it accepts runs correctly,
what it rejects fails when the ``SimulationConfig`` is constructed.

Three batteries, all generated from :mod:`repro.protocols.registry`:

1. **Rejections** — one case per :data:`REJECTIONS` row (plus the unknown
   protocol), each raising ``ValueError`` with the row's reason from
   ``SimulationConfig(...)`` itself, never from inside a run (where, in a
   ``--jobs`` sweep, it would be a worker-side failure after the pool
   started).
2. **Capabilities** — protocol x {1 shard, 3 shards with a mixed
   workload, 3 shards on local partitions} x {no faults, loss+dup,
   crash} x {2pc, 2pc-opt} x {closed-loop terminals, an open-arrival
   population}: every accepted cell runs ~50
   transactions through serializability, strictness, ``assert_invariants``
   (window ledger included) and the 2PC-atomicity check — all of which
   ``run_simulation`` raises on — and every rejected cell raises at
   construction with a reason from the table.
3. **Reporting** — for every golden cell the ``server_stats`` key set is
   exactly the recorded one: a counter a base class starts carrying must
   not leak into deployments where the thing it counts cannot happen.
"""

import itertools
import os

import pytest

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.perf.goldens import GOLDEN_CELLS, golden_config, load_golden
from repro.protocols import registry

# ---------------------------------------------------------------------------
# 1. every rejection, at construction, with its reason
# ---------------------------------------------------------------------------

#: rejection row -> (config keywords that trigger it, fragment of its reason)
REJECTED = {
    "regions-need-shards": (dict(n_regions=3), "needs n_shards > 1"),
    "single-server-protocol": (
        dict(protocol="c2pl", n_shards=2), "'c2pl' is single-server"),
    "crash-with-population": (
        dict(population=100, faults="crash=2@100:200"),
        "open-arrival populations"),
    "crash-without-recovery": (
        dict(protocol="2v2pl", faults="crash=2@100:200"),
        "'2v2pl' has no client-crash recovery"),
    "crash-with-2pc-opt": (
        dict(protocol="s2pl", n_shards=2, commit_protocol="2pc-opt",
             faults="crash=2@100:200"), "carry the updates"),
    "crash-of-unknown-client": (
        dict(n_clients=50, faults="crash=99@100"),
        r"unknown client sites \(this run has clients 1..50\)"),
}


def test_every_rejection_row_has_a_case():
    assert sorted(REJECTED) == sorted(rule.name
                                      for rule in registry.REJECTIONS)


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_at_construction_with_the_rows_reason(name):
    keywords, fragment = REJECTED[name]
    with pytest.raises(ValueError, match=fragment) as excinfo:
        SimulationConfig(**keywords)
    # the first row that applies is the one named: the message is the
    # row's own reason, not an earlier rule's
    rule = next(rule for rule in registry.REJECTIONS if rule.name == name)
    assert str(excinfo.value).startswith(rule.reason.split("{")[0])


def test_unknown_protocol_is_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown protocol 'zpl'"):
        SimulationConfig(protocol="zpl")


def test_replace_revalidates():
    config = SimulationConfig(protocol="s2pl", n_shards=2)
    with pytest.raises(ValueError, match="single-server"):
        config.replace(protocol="c2pl")


def test_lifted_rejections_construct():
    assert SimulationConfig(protocol="hybrid", n_shards=3).n_shards == 3
    assert registry.PROTOCOLS["hybrid"].shardable


def test_registered_protocol_without_capabilities_is_single_server():
    from repro.protocols.s2pl import S2PLClient, S2PLServer

    registry.register("plain2pl", S2PLServer, S2PLClient)
    try:
        assert SimulationConfig(protocol="plain2pl").protocol == "plain2pl"
        with pytest.raises(ValueError, match="single-server"):
            SimulationConfig(protocol="plain2pl", n_shards=2)
        with pytest.raises(ValueError, match="no client-crash recovery"):
            SimulationConfig(protocol="plain2pl", faults="crash=2@100")
    finally:
        del registry.PROTOCOLS["plain2pl"]


def test_readme_carries_the_registrys_table():
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        assert registry.capability_table() in handle.read()


# ---------------------------------------------------------------------------
# 2. the capability battery
# ---------------------------------------------------------------------------

FAULTS = {"clean": None, "lossy": "loss=0.05,dup=0.02",
          "crash": "loss=0.02,crash=2@300:900"}

#: (n_shards, cross_shard_probability, id suffix): one shard, three shards
#: mixing local and cross-shard transactions under the paper's rule, and
#: three shards on local partitions ("-lp": every transaction stays on one
#: shard, so 2PC only ever runs its single-participant path)
DEPLOYMENTS = ((1, None, ""), (3, 0.5, ""), (3, 0.0, "-lp"))

#: users per client site (id suffix "-popn"), or None for the paper's
#: closed-loop terminals (no suffix); the population's arrival rate keeps
#: several transactions in flight at a site
USERS_PER_SITE = (None, 4)

BATTERY = [
    pytest.param(protocol, n_shards, faults, commit, cross, users,
                 id=f"{protocol}-{n_shards}sh-{faults}-{commit}{suffix}"
                    f"{'' if users is None else '-popn'}")
    for protocol, (n_shards, cross, suffix), faults, commit, users
    in itertools.product(registry.available_protocols(), DEPLOYMENTS,
                         FAULTS, ("2pc", "2pc-opt"), USERS_PER_SITE)]


def _expected_rejection(protocol, n_shards, faults, commit, users):
    """The battery's own reading of the table: the name of a rule that
    must reject the cell, or None when it must run."""
    row = registry.PROTOCOLS[protocol]
    if n_shards > 1 and not row.shardable:
        return "single-server-protocol"
    if faults == "crash" and users is not None:
        return "crash-with-population"
    if faults == "crash" and not row.crash_recovery:
        return "crash-without-recovery"
    if faults == "crash" and n_shards > 1 and commit == "2pc-opt":
        return "crash-with-2pc-opt"
    return None


@pytest.mark.parametrize("protocol,n_shards,faults,commit,cross,users",
                         BATTERY)
def test_capability_battery(protocol, n_shards, faults, commit, cross,
                            users):
    keywords = dict(
        protocol=protocol, n_clients=6, n_items=12, n_shards=n_shards,
        n_regions=n_shards, commit_protocol=commit, faults=FAULTS[faults],
        network_latency=40.0, intra_region_latency=1.0,
        read_probability=0.5, total_transactions=48,
        warmup_transactions=0, record_history=True,
        cross_shard_probability=cross)
    if users is not None:
        # Admission capped at the site's users refuses nothing a busy
        # user would not skip anyway, but a site whose users all stall
        # then sleeps, so a stall fails the run instead of arriving
        # forever.
        keywords.update(population=6 * users, arrival_rate=0.01,
                        max_inflight_per_site=users)
    expected = _expected_rejection(protocol, n_shards, faults, commit,
                                   users)
    if expected is not None:
        rule = next(rule for rule in registry.REJECTIONS
                    if rule.name == expected)
        with pytest.raises(ValueError) as excinfo:
            SimulationConfig(**keywords)
        assert str(excinfo.value).startswith(rule.reason.split("{")[0])
        return
    config = SimulationConfig(**keywords)
    # raises on a non-serializable or non-strict history, a failed server
    # invariant (precedence cycle, window-ledger leak) or a transaction
    # committed at one shard and aborted at another
    result = run_simulation(config, seed=5)
    assert result.metrics.finished == 48
    assert result.metrics.committed > 0
    assert result.serializability.ok
    assert ("twopc_commits" in result.server_stats) == (n_shards > 1)
    if "window_enqueued" in result.server_stats:
        stats = result.server_stats
        assert stats["window_enqueued"] >= (stats["window_frozen"]
                                            + stats["window_purged"])


# ---------------------------------------------------------------------------
# 3. declared stats: the reported key set is the recorded one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_server_stats_keys_match_the_golden(name):
    config, seed = golden_config(name)
    # the key set depends on the deployment, not on how long it runs
    small = config.replace(total_transactions=30, warmup_transactions=5)
    result = run_simulation(small, seed=seed)
    recorded = load_golden(name)["fingerprint"]["server_stats"]
    assert sorted(result.server_stats) == sorted(recorded)
    if config.n_shards == 1:
        leaked = {"n_shards", "terminations_started", "presumed_aborts",
                  "distributed_deadlocks"} | {
                      key for key in result.server_stats
                      if key.startswith("twopc_")}
        assert not leaked & set(result.server_stats)
