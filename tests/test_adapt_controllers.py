"""Unit tests for the repro.adapt controller (pure arithmetic layer).

The controller is deliberately simulator-free: every law asserted here
(EWMA convergence, the hysteresis loop) is checked on plain numbers, so
a failure localises to the control law rather than to protocol plumbing.
"""

import pytest

from repro.adapt import ContentionController, EwmaEstimator


class TestEwma:
    def test_no_sample_state_then_first_sample_exact(self):
        est = EwmaEstimator(0.3)
        assert est.value is None
        assert est.samples == 0
        est.observe(10.0)
        assert est.value == 10.0
        assert est.samples == 1

    def test_alpha_one_tracks_last_sample(self):
        est = EwmaEstimator(1.0)
        for sample in (5.0, 9.0, 2.0):
            est.observe(sample)
            assert est.value == sample

    def test_converges_to_constant_input(self):
        est = EwmaEstimator(0.3)
        for _ in range(100):
            est.observe(7.0)
        assert est.value == pytest.approx(7.0)

    def test_update_moves_fraction_alpha_toward_sample(self):
        est = EwmaEstimator(0.25)
        est.observe(0.0)
        est.observe(8.0)
        assert est.value == pytest.approx(2.0)  # 0 + 0.25 * (8 - 0)

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                EwmaEstimator(alpha)


class TestContentionController:
    def _ctl(self, **overrides):
        kwargs = dict(low=0.3, high=0.5, ewma_alpha=1.0, scale=3.0)
        kwargs.update(overrides)
        return ContentionController(**kwargs)

    def test_score_squashes_depth(self):
        ctl = self._ctl()
        assert ctl.score() == 0.0           # no samples yet
        ctl.observe(3.0)
        assert ctl.score() == pytest.approx(0.5)   # d == scale
        ctl.observe(9.0)
        assert ctl.score() == pytest.approx(0.75)

    def test_switches_to_single_below_low(self):
        ctl = self._ctl()
        assert ctl.mode == "grouped"
        ctl.observe(1.0)                    # score 0.25 < low 0.3
        assert ctl.decide() == "single"
        assert ctl.mode == "single"
        assert (ctl.epoch, ctl.switches) == (1, 1)

    def test_switches_back_to_grouped_above_high(self):
        ctl = self._ctl()
        ctl.observe(1.0)
        ctl.decide()
        ctl.observe(6.0)                    # score 0.667 > high 0.5
        assert ctl.decide() == "grouped"
        assert (ctl.epoch, ctl.switches) == (2, 2)

    def test_dead_band_holds_mode(self):
        """Scores between the thresholds never flap the mode."""
        ctl = self._ctl()
        ctl.observe(2.0)                    # score 0.4: in (0.3, 0.5)
        assert ctl.decide() is None
        assert ctl.mode == "grouped"
        ctl.observe(1.0)
        ctl.decide()                        # -> single at 0.25
        ctl.observe(2.0)                    # back to 0.4: still dead band
        assert ctl.decide() is None
        assert ctl.mode == "single"
        assert ctl.switches == 1

    def test_hysteresis_requires_crossing_not_touching(self):
        ctl = self._ctl(low=0.3, high=0.5)
        ctl.observe(1.2857142857142858)     # score exactly ~0.3
        assert ctl.decide() is None         # < is strict
        ctl.mode = "single"
        ctl.observe(3.0)                    # score exactly 0.5
        assert ctl.decide() is None         # > is strict

