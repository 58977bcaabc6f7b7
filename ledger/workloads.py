"""The seven workloads: what runs, at what size, and nothing else.

Pure data — no ``repro`` import — so the orchestrating parent never loads
the program it measures.  Why each workload exists is recorded once, in
``BENCHMARK.json`` (and expanded in README.md).

Sizes are transaction counts, never durations: both sides of a later
comparison do identical work.  ``--scale`` multiplies every count by one
common factor (self-test and sizing only); warm-up is always a tenth of
the total, and the untimed warm-up run and the verification run are an
eighth of the repeat.
"""

from dataclasses import dataclass, field

_FAULTS = "loss=0.03,dup=0.01,jitter=25,crash=2@4000:8000"

_TABLE_1 = dict(n_clients=50, n_items=25, read_probability=0.6,
                network_latency=500.0)

WARMUP_SHARE = 10     # warm-up transactions = total // WARMUP_SHARE
SMALL_RUN_SHARE = 8   # warm-up run and verification run = repeat // 8


@dataclass(frozen=True)
class SimWorkload:
    """One ``run_simulation`` call per repeat."""

    name: str
    transactions: int
    config: dict = field(default_factory=dict)
    #: traced_g2pl: write the trace as JSONL inside the repeat, and pair
    #: each traced-run repeat with an untraced one in the traced run
    export_trace: bool = False

    def sized(self, scale, share=1):
        """(total, warm-up) transaction counts at ``scale`` / ``share``."""
        total = max(2 * WARMUP_SHARE,
                    int(round(self.transactions * scale)) // share)
        return total, total // WARMUP_SHARE

    def config_keywords(self, seed, scale, share=1, **overrides):
        total, warmup = self.sized(scale, share)
        keywords = dict(self.config, seed=seed, record_history=False,
                        total_transactions=total,
                        warmup_transactions=warmup)
        keywords.update(overrides)
        return keywords


@dataclass(frozen=True)
class SweepWorkload:
    """``scripts/reproduce_all.py`` at smoke fidelity, as a subprocess."""

    name: str = "figure_sweep"
    #: set-up here is the CLI's fixed cost: this many ``cli list`` round
    #: trips, median reported
    setup_round_trips: int = 5
    #: the report does not print commit counts, so goodput counts the
    #: measured (post-warm-up, finished) transactions of its 162 cells
    cells: int = 162
    measured_per_cell: int = 270


WORKLOADS = {
    workload.name: workload for workload in (
        SimWorkload("closed_s2pl", 8000, dict(_TABLE_1, protocol="s2pl")),
        SimWorkload("closed_g2pl", 8000, dict(_TABLE_1, protocol="g2pl")),
        SimWorkload("open_population", 5000, dict(
            protocol="g2pl", n_clients=50, n_items=1000,
            network_latency=500.0, population=16000, arrival_rate=5e-6,
            access_skew=0.5, streaming=True, max_inflight_per_site=8)),
        SimWorkload("sharded_2pc", 6000, dict(
            protocol="s2pl", n_clients=40, n_items=32, n_shards=4,
            n_regions=4, cross_shard_probability=0.3, commit_protocol="2pc",
            network_latency=100.0, intra_region_latency=1.0)),
        SimWorkload("traced_g2pl", 4000, dict(
            _TABLE_1, protocol="g2pl", trace=True, probe_interval=200.0),
            export_trace=True),
        SimWorkload("faulted_g2pl", 4000, dict(
            protocol="g2pl", n_clients=12, n_items=10, read_probability=0.6,
            network_latency=100.0, faults=_FAULTS)),
        SweepWorkload(),
    )
}
