"""End-to-end tests for the repro.adapt protocol family.

Three claims are pinned here:

1. **The controllers actually engage** — hybrid runs switch modes, the
   window controller holds, speculation extends chains, and each leaves
   its decision trail in the trace.
2. **Neutralised adaptation is byte-identical to static g-2PL** — with
   thresholds set so no controller ever acts, every adaptive variant
   reproduces the plain g-2PL trajectory exactly (fingerprints compared
   modulo the protocol name and the adapt counters themselves).  This is
   the golden-safety property the RNG-stream isolation exists for.
3. **Unsupported combinations fail loudly** — faults with speculation
   and adapt flags on static protocols are configuration errors at
   construction time, not silent misbehaviour. (Sharded adaptive runs are
   supported; ``tests/test_capabilities.py`` and
   ``tests/test_sharded_correctness.py`` cover them.)
"""

import pytest

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.perf.fingerprint import result_fingerprint
from repro.protocols.registry import protocols_with

ADAPTIVE_PROTOCOLS = protocols_with("adaptive")

#: Counters added by AdaptiveG2PLServer.stats (and the window
#: ledger it exposes); stripped before identity comparisons because the
#: static baseline, by design, does not report them.
ADAPT_STAT_KEYS = (
    "window_enqueued", "window_frozen", "window_purged", "window_holds",
    "mode_switches", "windows_single", "windows_grouped",
    "spec_extensions", "spec_hits", "spec_misses",
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
# The controllers engage and trace their decisions
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

    def test_window_controller_holds_under_steady_load(self):
        config, seed = _config(protocol="g2pl-adaptive", n_clients=10,
                               n_items=5, max_ops=3, trace=True)
        result = run_simulation(config, seed=seed)
        stats = result.server_stats
        assert stats["window_holds"] > 0
        holds = [fields for _, kind, fields in result.trace.events
                 if kind == "window.hold"]
        assert len(holds) == stats["window_holds"]

    def test_speculation_extends_and_accounts_exactly(self):
        config, seed = _config(protocol="g2pl-spec", n_clients=4,
                               n_items=5, network_latency=400.0,
                               total_transactions=100,
                               warmup_transactions=15, trace=True, seed=7)
        result = run_simulation(config, seed=seed)
        stats = result.server_stats
        assert stats["spec_extensions"] > 0
        # every extension resolves as a hit or a home-landing repair
        # (any still pending when the run closes are neither)
        assert stats["spec_hits"] + stats["spec_misses"] \
            <= stats["spec_extensions"]
        assert stats["spec_hits"] > 0
        extends = [fields for _, kind, fields in result.trace.events
                   if kind == "spec.extend"]
        assert len(extends) == stats["spec_extensions"]

    def test_window_ledger_balances_in_all_variants(self):
        """enqueued == frozen + purged + still-pending; the runner's
        assert_invariants enforces this at close, so a finished run with
        the counters present is the proof."""
        for protocol in ADAPTIVE_PROTOCOLS:
            config, seed = _config(protocol=protocol)
            result = run_simulation(config, seed=seed)
            stats = result.server_stats
            assert stats["window_enqueued"] >= stats["window_frozen"]
            metrics = result.metrics
            assert metrics.finished + metrics.warmup_discarded == 120


# ---------------------------------------------------------------------------
# Satellite: adaptive probe gauges appear exactly when adaptive
# ---------------------------------------------------------------------------

class TestProbeGauges:
    ADAPT_GAUGES = {"window_occupancy", "adapt_hold_pending",
                    "hybrid_single_items", "spec_outstanding"}

    def test_adaptive_traced_run_exposes_window_occupancy(self):
        config, seed = _config(protocol="hybrid", trace=True,
                               probe_interval=150.0)
        result = run_simulation(config, seed=seed)
        names = {name for _, name, _ in result.trace.probes}
        assert self.ADAPT_GAUGES <= names

    def test_static_traced_run_does_not(self):
        """Regression guard: the gauges are gated on the adaptive server
        type, so static-protocol probe traces (and their goldens) carry
        no adaptive series."""
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
        # max_hold=0 clamps the hold law to zero: never holds, never
        # draws from the adapt RNG stream
        "g2pl-adaptive": dict(window_max=0.0),
        # quiescence bound far beyond the run horizon: never speculates
        "g2pl-spec": dict(spec_margin=1e9),
    }

    @pytest.mark.parametrize("protocol", ADAPTIVE_PROTOCOLS)
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


# ---------------------------------------------------------------------------
# Satellite: unsupported combinations are loud configuration errors
# ---------------------------------------------------------------------------

class TestRejectedCombinations:
    def test_faults_with_speculation_rejected_at_config(self):
        with pytest.raises(ValueError, match="speculat"):
            SimulationConfig(protocol="g2pl-spec", speculate=True,
                             faults="loss=0.05")

    def test_faults_with_speculation_rejected_at_run(self):
        # without the explicit flag it is the registry's pin that turns
        # speculation on; validation composes pins with flags, so the
        # error fires before there is anything to run
        with pytest.raises(ValueError, match="speculat"):
            SimulationConfig(protocol="g2pl-spec", n_clients=3,
                             n_items=4, total_transactions=10,
                             warmup_transactions=0, faults="loss=0.05")

    def test_crash_faults_with_speculation_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(protocol="g2pl-spec", n_clients=3,
                             n_items=4, total_transactions=10,
                             warmup_transactions=0,
                             faults="crash=2@100:200")

    def test_adapt_flags_require_adaptive_protocol(self):
        for flag in ("adapt_window", "hybrid", "speculate"):
            with pytest.raises(ValueError, match="adaptive protocol"):
                SimulationConfig(protocol="g2pl", **{flag: True})

    def test_describe_mentions_knobs_only_when_adaptive(self):
        static, _ = _config()
        assert "adapt=" not in static.describe()
        hybrid, _ = _config(protocol="hybrid", hybrid=True)
        assert "adapt=hybrid(0.3..0.5)" in hybrid.describe()
