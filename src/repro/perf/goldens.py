"""The fast-path replay golden cells (shared by tests and the refresh
script).

Each golden pins the canonical fingerprint (see
:mod:`repro.perf.fingerprint`) of one small but representative run:
plain, traced, faulted, sharded, hybrid and population cells, plus six
high-contention cells that were the kernel benchmark's macro cells
(their digests carried over unchanged). Every kernel optimization must
reproduce them byte for byte, serially and under the process pool,
which is what :mod:`tests.test_fastpath_replay` asserts.

Only regenerate them (``scripts/refresh_goldens.py``) when a change
*intentionally* alters trajectories — never to paper over an unexplained
diff from a "pure" performance change.
"""

import json
import os

from repro.core.config import SimulationConfig

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "tests", "golden")

FAULTS = "loss=0.05,dup=0.02,jitter=20,crash=2@2000:4000"

# 40 clients on 12 items at seed 73: the contention cells below keep
# the digests their runs had before they became goldens.
_CONTENTION = dict(
    n_clients=40, n_items=12, read_probability=0.6, network_latency=100.0,
    total_transactions=400, warmup_transactions=50, record_history=False)

#: name -> (config kwargs, seed).  Small cells: the whole set must stay
#: cheap enough to replay in the tier-1 suite at jobs=1 *and* jobs=4.
GOLDEN_CELLS = {
    "g2pl_plain": (dict(
        protocol="g2pl", n_clients=6, n_items=8, read_probability=0.6,
        network_latency=100.0, total_transactions=120,
        warmup_transactions=20, record_history=False), 11),
    "s2pl_plain": (dict(
        protocol="s2pl", n_clients=6, n_items=8, read_probability=0.6,
        network_latency=100.0, total_transactions=120,
        warmup_transactions=20, record_history=False), 11),
    "g2pl_faulted": (dict(
        protocol="g2pl", n_clients=5, n_items=6, read_probability=0.6,
        network_latency=100.0, total_transactions=100,
        warmup_transactions=15, faults=FAULTS,
        record_history=False), 7),
    "s2pl_faulted_traced": (dict(
        protocol="s2pl", n_clients=5, n_items=6, read_probability=0.6,
        network_latency=100.0, total_transactions=100,
        warmup_transactions=15, faults=FAULTS, trace=True,
        record_history=False), 7),
    "g2pl_traced": (dict(
        protocol="g2pl", n_clients=6, n_items=8, read_probability=0.6,
        network_latency=100.0, total_transactions=120,
        warmup_transactions=20, trace=True, probe_interval=150.0,
        record_history=False), 11),
    "s2pl_sharded_traced": (dict(
        protocol="s2pl", n_clients=6, n_items=8, read_probability=0.6,
        n_shards=4, n_regions=2, cross_shard_probability=0.5,
        network_latency=100.0, intra_region_latency=1.0,
        total_transactions=120, warmup_transactions=20, trace=True,
        record_history=False), 11),
    "s2pl_sharded_opt": (dict(
        protocol="s2pl", n_clients=6, n_items=8, read_probability=0.6,
        n_shards=4, n_regions=2, cross_shard_probability=0.5,
        commit_protocol="2pc-opt", network_latency=100.0,
        intra_region_latency=1.0, total_transactions=120,
        warmup_transactions=20, record_history=False), 11),
    "g2pl_sharded_traced": (dict(
        protocol="g2pl", n_clients=6, n_items=8, read_probability=0.6,
        n_shards=4, n_regions=2, cross_shard_probability=0.5,
        network_latency=100.0, intra_region_latency=1.0,
        total_transactions=120, warmup_transactions=20, trace=True,
        record_history=False), 11),
    # Shard-local cells (cross_shard_probability=0.0): every transaction
    # stays on its client's home shard, so no 2PC round ever runs.
    "g2pl_shard_local": (dict(
        protocol="g2pl", n_clients=8, n_items=16, read_probability=0.6,
        n_shards=4, n_regions=2, cross_shard_probability=0.0,
        network_latency=100.0, intra_region_latency=1.0,
        total_transactions=160, warmup_transactions=20,
        record_history=False), 11),
    "s2pl_shard_local": (dict(
        protocol="s2pl", n_clients=8, n_items=16, read_probability=0.6,
        n_shards=4, n_regions=2, cross_shard_probability=0.0,
        network_latency=100.0, intra_region_latency=1.0,
        total_transactions=160, warmup_transactions=20,
        record_history=False), 11),
    # The hybrid protocol (repro.adapt): the contention controller's mode
    # decisions, single-server traced, sharded traced and shard-local.
    "hybrid_traced": (dict(
        protocol="hybrid", n_clients=6, n_items=8, read_probability=0.6,
        network_latency=100.0, total_transactions=120,
        warmup_transactions=20, trace=True, probe_interval=150.0,
        record_history=False), 11),
    "hybrid_sharded_traced": (dict(
        protocol="hybrid", n_clients=6, n_items=8, read_probability=0.6,
        n_shards=4, n_regions=2, cross_shard_probability=0.5,
        network_latency=100.0, intra_region_latency=1.0,
        total_transactions=120, warmup_transactions=20, trace=True,
        probe_interval=150.0, record_history=False), 11),
    "hybrid_shard_local": (dict(
        protocol="hybrid", n_clients=8, n_items=16, read_probability=0.6,
        n_shards=4, n_regions=2, cross_shard_probability=0.0,
        network_latency=100.0, intra_region_latency=1.0,
        total_transactions=160, warmup_transactions=20,
        record_history=False), 11),
    # Saturated open-arrival cells: six sites pinned at an admission cap
    # of 2, ~92% of arrivals shed. Recorded on the driver that paid one
    # heap entry per arrival; the skip-ahead driver must reproduce them.
    "g2pl_population_saturated": (dict(
        protocol="g2pl", n_clients=6, n_items=40, network_latency=100.0,
        population=600, arrival="burst", arrival_rate=2e-4,
        access_skew=0.5, max_inflight_per_site=2, total_transactions=150,
        warmup_transactions=20, record_history=False), 11),
    "s2pl_population_saturated": (dict(
        protocol="s2pl", n_clients=6, n_items=40, network_latency=100.0,
        population=600, arrival="diurnal", arrival_rate=2e-4,
        access_skew=0.5, max_inflight_per_site=2, streaming=True,
        total_transactions=150, warmup_transactions=20,
        record_history=False), 11),
    # Contention cells: hybrid beside the static pair on one workload;
    # the population cell is open arrival with streaming metrics.
    "s2pl_contention": (dict(_CONTENTION, protocol="s2pl"), 73),
    "g2pl_contention": (dict(_CONTENTION, protocol="g2pl"), 73),
    "hybrid_contention": (dict(_CONTENTION, protocol="hybrid"), 73),
    "g2pl_contention_faulted": (dict(
        _CONTENTION, protocol="g2pl", n_clients=12, n_items=10,
        faults="loss=0.03,dup=0.01,jitter=25,crash=2@4000:8000"), 73),
    "g2pl_contention_traced": (dict(
        _CONTENTION, protocol="g2pl", trace=True, probe_interval=200.0), 73),
    "g2pl_population_10k": (dict(
        _CONTENTION, protocol="g2pl", n_clients=50, n_items=1000,
        network_latency=500.0, population=10_000, arrival_rate=5e-6,
        access_skew=0.5, streaming=True, total_transactions=600,
        warmup_transactions=60), 73),
}


def golden_config(name):
    """``(SimulationConfig, seed)`` for golden cell ``name``."""
    kwargs, seed = GOLDEN_CELLS[name]
    return SimulationConfig(**kwargs), seed


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name):
    """The committed golden payload for ``name`` (dict)."""
    with open(golden_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)
