"""Bit-identical replay against the pre-fast-path goldens.

The committed goldens under ``tests/golden/`` were generated on the
kernel *before* the fast-path work (slotted envelopes, bound send
implementations, memoized latency, lazy timer deletion, unchecked
precedence edges, batched/bound RNG draws). These tests replay every
golden cell on the current kernel — serially and through the spawn-based
process pool — and require the canonical result fingerprint (metrics,
response-time lists, server stats, trace summaries) to match byte for
byte. A mismatch means an "optimization" changed a trajectory, which by
definition makes it not an optimization.
"""

import pytest

from repro.core.parallel import SimulationCell, run_cells
from repro.perf.fingerprint import fingerprint_digest, result_fingerprint
from repro.perf.goldens import GOLDEN_CELLS, golden_config, load_golden

CELL_NAMES = sorted(GOLDEN_CELLS)


def _assert_matches_golden(name, result):
    golden = load_golden(name)
    fingerprint = result_fingerprint(result)
    digest = fingerprint_digest(fingerprint)
    assert fingerprint == golden["fingerprint"], (
        f"golden cell {name!r}: result fingerprint diverged from the "
        f"pre-optimization kernel")
    assert digest == golden["digest"]


class TestSerialReplay:
    @pytest.mark.parametrize("name", CELL_NAMES)
    def test_cell_replays_bit_identically(self, name):
        config, seed = golden_config(name)
        [result] = run_cells([SimulationCell(config=config, seed=seed)],
                             jobs=1)
        _assert_matches_golden(name, result)


class TestPooledReplay:
    def test_all_cells_replay_bit_identically_at_jobs_4(self):
        cells = []
        for name in CELL_NAMES:
            config, seed = golden_config(name)
            cells.append(SimulationCell(config=config, seed=seed))
        results = run_cells(cells, jobs=4)
        for name, result in zip(CELL_NAMES, results):
            _assert_matches_golden(name, result)


def test_golden_files_are_internally_consistent():
    """The committed digest must be the digest of the committed
    fingerprint — guards against hand-edited goldens."""
    for name in CELL_NAMES:
        golden = load_golden(name)
        assert golden["cell"] == name
        assert fingerprint_digest(golden["fingerprint"]) == golden["digest"]


class TestFingerprint:
    def test_fingerprint_digest_is_stable_and_order_insensitive(self):
        a = {"x": 1.0, "y": [1, 2, 3], "z": "s"}
        b = {"z": "s", "y": [1, 2, 3], "x": 1.0}
        assert fingerprint_digest(a) == fingerprint_digest(b)
        assert fingerprint_digest(a) != fingerprint_digest({"x": 1.0 + 1e-16})

    def test_result_fingerprint_separates_seeds(self):
        from repro.core.config import SimulationConfig
        from repro.core.runner import run_simulation

        config = SimulationConfig(
            protocol="g2pl", n_clients=3, n_items=5,
            total_transactions=20, warmup_transactions=2,
            record_history=False)
        one = run_simulation(config, seed=1)
        two = run_simulation(config, seed=2)
        replay = run_simulation(config, seed=1)
        assert result_fingerprint(one) == result_fingerprint(replay)
        assert result_fingerprint(one) != result_fingerprint(two)
