"""End-to-end tests for the ``hybrid`` protocol (repro.adapt).

Two claims are pinned here:

1. **The controller actually engages** — hybrid runs switch modes and
   leave their decision trail in the trace.
2. **Neutralised adaptation is byte-identical to static g-2PL** — with
   thresholds set so the controller never acts, hybrid reproduces the
   plain g-2PL trajectory exactly (fingerprints compared modulo the
   protocol name and the hybrid counters themselves).

Sharded hybrid runs are covered by ``tests/test_capabilities.py`` and
``tests/test_sharded_correctness.py``.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.perf.fingerprint import result_fingerprint

#: Counters added by AdaptiveG2PLServer.stats (and the window
#: ledger it exposes); stripped before identity comparisons because the
#: static baseline, by design, does not report them.
ADAPT_STAT_KEYS = (
    "window_enqueued", "window_frozen", "window_purged",
    "mode_switches", "windows_single", "windows_grouped",
)


def _config(**overrides):
    base = dict(protocol="g2pl", n_clients=6, n_items=8,
                read_probability=0.6, network_latency=100.0,
                total_transactions=120, warmup_transactions=20,
                record_history=False, seed=11)
    base.update(overrides)
    seed = base.pop("seed")
    return SimulationConfig(**base), seed


def _neutral_fingerprint(result):
    fp = result_fingerprint(result)
    fp.pop("protocol")
    for key in ADAPT_STAT_KEYS:
        fp["server_stats"].pop(key, None)
    return fp


# ---------------------------------------------------------------------------
# The controller engages and traces its decisions
# ---------------------------------------------------------------------------

class TestControllersEngage:
    def test_hybrid_switches_modes_and_traces(self):
        config, seed = _config(protocol="hybrid", trace=True)
        result = run_simulation(config, seed=seed)
        stats = result.server_stats
        assert stats["mode_switches"] > 0
        assert stats["windows_single"] > 0
        switch_events = [fields for _, kind, fields in result.trace.events
                         if kind == "hybrid.switch"]
        assert len(switch_events) == stats["mode_switches"]
        for fields in switch_events:
            assert fields["mode"] in ("single", "grouped")
            assert fields["epoch"] >= 1
            assert 0.0 <= fields["score"] < 1.0

    def test_window_ledger_balances_in_all_variants(self):
        """enqueued == frozen + purged + still-pending; the runner's
        assert_invariants enforces this at close, so a finished run with
        the counters present is the proof."""
        config, seed = _config(protocol="hybrid")
        result = run_simulation(config, seed=seed)
        stats = result.server_stats
        assert stats["window_enqueued"] >= stats["window_frozen"]
        metrics = result.metrics
        assert metrics.finished + metrics.warmup_discarded == 120

    def test_hybrid_engages_with_history_checked(self):
        """A read-heavy contended cell with the history recorded: the
        run raises on a serializability or strictness violation and on
        a window-ledger leak, and the controller must have switched."""
        config, seed = _config(protocol="hybrid", n_clients=10, n_items=8,
                               read_probability=0.75,
                               network_latency=200.0,
                               total_transactions=150,
                               warmup_transactions=20,
                               record_history=True, seed=3)
        result = run_simulation(config, seed=seed)
        assert result.server_stats["mode_switches"] > 0


# ---------------------------------------------------------------------------
# Satellite: the hybrid probe gauge appears exactly when hybrid
# ---------------------------------------------------------------------------

class TestProbeGauges:
    ADAPT_GAUGES = {"hybrid_single_items"}

    def test_hybrid_traced_run_exposes_its_gauge(self):
        config, seed = _config(protocol="hybrid", trace=True,
                               probe_interval=150.0)
        result = run_simulation(config, seed=seed)
        names = {name for _, name, _ in result.trace.probes}
        assert self.ADAPT_GAUGES <= names

    def test_static_traced_run_does_not(self):
        """Regression guard: the gauge is gated on the hybrid server
        type, so static-protocol probe traces (and their goldens) carry
        no hybrid series."""
        config, seed = _config(protocol="g2pl", trace=True,
                               probe_interval=150.0)
        result = run_simulation(config, seed=seed)
        names = {name for _, name, _ in result.trace.probes}
        assert not (self.ADAPT_GAUGES & names)


# ---------------------------------------------------------------------------
# Neutralised adaptation replays static g-2PL byte for byte
# ---------------------------------------------------------------------------

class TestStaticIdentity:
    NEUTRAL = {
        # never crosses low threshold: stays grouped forever
        "hybrid": dict(hybrid_low=0.0),
    }

    @pytest.mark.parametrize("protocol", sorted(NEUTRAL))
    def test_neutralised_variant_matches_g2pl_exactly(self, protocol):
        base_config, seed = _config()
        baseline = _neutral_fingerprint(run_simulation(base_config,
                                                       seed=seed))
        config, seed = _config(protocol=protocol, **self.NEUTRAL[protocol])
        adaptive = _neutral_fingerprint(run_simulation(config, seed=seed))
        assert adaptive == baseline

    def test_engaged_hybrid_diverges(self):
        """Sanity check on the comparison itself: with live thresholds
        the trajectory must differ, or the identity test proves
        nothing."""
        base_config, seed = _config()
        baseline = _neutral_fingerprint(run_simulation(base_config,
                                                       seed=seed))
        config, seed = _config(protocol="hybrid")
        engaged = _neutral_fingerprint(run_simulation(config, seed=seed))
        assert engaged != baseline

