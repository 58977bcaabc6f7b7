"""Population scale: a 10⁴-user open-arrival run on the streaming
metrics path, and the two saturated population goldens, each run in
process and through the spawn pool (``pytest -m scale``, CI's
``scale-smoke`` job)."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.parallel import SimulationCell, run_cells
from repro.perf.fingerprint import fingerprint_digest, result_fingerprint
from repro.perf.goldens import golden_config, load_golden
from repro.stats import RESERVOIR_CAPACITY

pytestmark = pytest.mark.scale

SATURATED = ("g2pl_population_saturated", "s2pl_population_saturated")


def test_population_10k_streams_in_bounded_memory():
    config = SimulationConfig(
        protocol="g2pl", n_clients=50, n_items=1000,
        network_latency=500.0, population=10_000,
        arrival="burst", arrival_rate=5e-6, access_skew=0.5,
        streaming=True, total_transactions=2000,
        warmup_transactions=200, record_history=False)
    cells = [SimulationCell(config=config, seed=1)]
    (result,) = run_cells(cells, jobs=1)
    (pooled,) = run_cells(cells, jobs=2)

    metrics = result.metrics
    # Streaming path: bounded memory — no per-transaction lists.
    assert metrics.streaming is True
    assert len(metrics.response_times) == 0
    assert len(metrics.reservoir.values) <= RESERVOIR_CAPACITY
    assert metrics.committed > 0
    stats = result.server_stats
    assert stats["population"] == 10_000
    assert stats["popn_started"] >= metrics.finished
    assert stats["popn_peak_inflight"] <= 50 * config.max_inflight_per_site
    # Pool fan-out replays the population run bit-identically.
    assert result_fingerprint(result) == result_fingerprint(pooled)


@pytest.mark.parametrize("jobs", [1, 2])
def test_saturated_population_cells_match_goldens_and_skip_ahead(jobs):
    cells = [SimulationCell(*golden_config(name)) for name in SATURATED]
    for name, result in zip(SATURATED, run_cells(cells, jobs=jobs)):
        digest = fingerprint_digest(result_fingerprint(result))
        assert digest == load_golden(name)["digest"], (name, jobs, digest)
        stats = result.server_stats
        assert stats["popn_shed"] > 0
        # A site at its admission cap keeps nothing on the heap; an eager
        # run pays at least one heap entry per arrival and per message
        # (g2pl: 5,604 >= 2,809 + 1,532 when the golden was taken, 2,957
        # since).
        events = result.engine_stats["processed_events"]
        offered = stats["popn_arrivals"] + result.messages_sent
        assert events < offered, (name, jobs, events, offered)
