"""The hybrid-correctness battery: random contention profiles, random
controller tunings, and random mode-switch schedules — the history must
stay serializable and strict no matter where the controller moves the
thresholds, and no window entry may be lost across a mode switch.

``run_simulation(record_history=True)`` *raises* on any serializability
or strictness violation, and the runner calls every server's
``assert_invariants`` at close — which, for the hybrid server, includes
the window ledger (``enqueued == frozen + purged + pending``), i.e. the
no-lost-window-entry invariant.  So every property here doubles as an
end-to-end crash test of those validators.
"""

from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.protocols.adaptive import AdaptiveG2PLServer

# ---------------------------------------------------------------------------
# Random contention profiles
# ---------------------------------------------------------------------------

ADAPTIVE_CONFIGS = st.fixed_dictionaries({
    "n_clients": st.integers(min_value=2, max_value=8),
    "n_items": st.integers(min_value=3, max_value=10),
    "read_probability": st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    "network_latency": st.sampled_from([10.0, 100.0, 400.0]),
    "seed": st.integers(min_value=1, max_value=10_000),
})


@given(ADAPTIVE_CONFIGS)
@settings(max_examples=20, deadline=None)
def test_random_adaptive_runs_stay_serializable_and_strict(params):
    config = SimulationConfig(protocol="hybrid", total_transactions=40,
                              warmup_transactions=0,
                              max_ops=min(4, params["n_items"]),
                              record_history=True, **params)
    result = run_simulation(config)
    assert result.serializability.ok
    assert result.metrics.finished == 40
    # the hybrid window ledger survived assert_invariants at close;
    # its terms must cover every enqueued request
    stats = result.server_stats
    assert (stats["window_frozen"] + stats["window_purged"]
            <= stats["window_enqueued"])


# ---------------------------------------------------------------------------
# Random hybrid thresholds: mode-switch epochs anywhere on the score axis
# ---------------------------------------------------------------------------

HYBRID_TUNINGS = st.fixed_dictionaries({
    "low": st.floats(min_value=0.0, max_value=0.6),
    "band": st.floats(min_value=0.0, max_value=0.4),
    "scale": st.sampled_from([0.5, 1.0, 3.0, 8.0]),
    "ewma": st.sampled_from([0.1, 0.5, 1.0]),
    "read_probability": st.sampled_from([0.2, 0.6, 0.9]),
    "n_clients": st.integers(min_value=3, max_value=8),
    "seed": st.integers(min_value=1, max_value=10_000),
})


@given(HYBRID_TUNINGS)
@settings(max_examples=15, deadline=None)
def test_random_hybrid_tunings_stay_correct(params):
    """Thresholds drawn across the whole score axis force switching at
    arbitrary points in the run (including pathological flappy tunings
    with a zero-width dead band); correctness must not depend on *when*
    an item changes mode."""
    low = params["low"]
    tuning = dict(low=low, high=min(low + params["band"], 1.0),
                  ewma_alpha=params["ewma"], scale=params["scale"])
    config = SimulationConfig(
        protocol="hybrid", n_clients=params["n_clients"], n_items=6,
        max_ops=4, read_probability=params["read_probability"],
        network_latency=100.0, total_transactions=40,
        warmup_transactions=0, record_history=True, seed=params["seed"])
    # patched in the body: @given runs it once per draw
    with patch.object(AdaptiveG2PLServer, "tuning", tuning):
        result = run_simulation(config)
    assert result.serializability.ok
    assert result.metrics.finished == 40

