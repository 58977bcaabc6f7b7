"""Unit tests for metrics collection and confidence intervals."""

import math
import sys

import pytest

from repro.protocols.transaction import TxnOutcome
from repro.stats.ci import (
    _T_TABLES,
    _t_critical,
    mean_confidence_interval,
)
from repro.stats.collector import MetricsCollector


def outcome(txn_id, committed=True, start=0.0, end=10.0, reason=None):
    return TxnOutcome(txn_id=txn_id, client_id=1, committed=committed,
                      start_time=start, end_time=end, n_ops=1, n_writes=0,
                      abort_reason=reason)


class TestCollector:
    def test_warmup_discarded(self):
        c = MetricsCollector(warmup_transactions=2)
        for i in range(5):
            c.record_outcome(outcome(i, end=100.0 + i))
        assert c.metrics.warmup_discarded == 2
        assert c.metrics.committed == 3

    def test_mean_response_time(self):
        c = MetricsCollector(0)
        c.record_outcome(outcome(1, start=0, end=10))
        c.record_outcome(outcome(2, start=5, end=25))
        assert c.metrics.mean_response_time == pytest.approx(15.0)

    def test_abort_percentage(self):
        c = MetricsCollector(0)
        c.record_outcome(outcome(1))
        c.record_outcome(outcome(2, committed=False, reason="deadlock"))
        c.record_outcome(outcome(3, committed=False, reason="deadlock"))
        c.record_outcome(outcome(4))
        assert c.metrics.abort_percentage == pytest.approx(50.0)
        assert c.metrics.abort_reasons == {"deadlock": 2}

    def test_aborted_excluded_from_response_times(self):
        c = MetricsCollector(0)
        c.record_outcome(outcome(1, start=0, end=10))
        c.record_outcome(outcome(2, committed=False, start=0, end=9999))
        assert c.metrics.mean_response_time == pytest.approx(10.0)

    def test_empty_metrics_are_nan(self):
        c = MetricsCollector(0)
        assert math.isnan(c.metrics.mean_response_time)
        assert math.isnan(c.metrics.abort_percentage)
        assert math.isnan(c.metrics.throughput)

    def test_throughput(self):
        c = MetricsCollector(0)
        c.record_outcome(outcome(1, start=0, end=10))
        c.record_outcome(outcome(2, start=10, end=100))
        assert c.metrics.throughput == pytest.approx(2 / 100)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(-1)

    def test_first_measured_at_clamped_to_warmup_boundary(self):
        # Regression: the first measured transaction usually *started*
        # during the warmup phase; opening the throughput window at its
        # start time stretched the window into the transient phase and
        # understated throughput.
        c = MetricsCollector(warmup_transactions=1)
        c.record_outcome(outcome(1, start=0.0, end=50.0))    # warmup
        c.record_outcome(outcome(2, start=10.0, end=80.0))   # started early
        c.record_outcome(outcome(3, start=60.0, end=100.0))
        assert c.metrics.first_measured_at == 50.0
        assert c.metrics.throughput == pytest.approx(2 / (100.0 - 50.0))

    def test_first_measured_at_unclamped_when_started_after_warmup(self):
        c = MetricsCollector(warmup_transactions=1)
        c.record_outcome(outcome(1, start=0.0, end=50.0))
        c.record_outcome(outcome(2, start=55.0, end=80.0))
        assert c.metrics.first_measured_at == 55.0

    def test_first_measured_at_without_warmup(self):
        c = MetricsCollector(warmup_transactions=0)
        c.record_outcome(outcome(1, start=3.0, end=10.0))
        assert c.metrics.first_measured_at == 3.0

    def test_measuring_property(self):
        c = MetricsCollector(warmup_transactions=2)
        assert not c.measuring
        c.record_outcome(outcome(1))
        c.record_outcome(outcome(2))
        assert not c.measuring
        c.record_outcome(outcome(3))
        assert c.measuring


class TestPercentiles:
    def metrics_with(self, values):
        c = MetricsCollector(0)
        for index, value in enumerate(values):
            c.record_outcome(outcome(index, start=0.0, end=value))
        return c.metrics

    def test_empty_is_nan(self):
        m = self.metrics_with([])
        assert math.isnan(m.percentile(50.0))
        assert math.isnan(m.p50_response_time)

    def test_single_sample(self):
        m = self.metrics_with([7.0])
        assert m.percentile(0.0) == 7.0
        assert m.percentile(50.0) == 7.0
        assert m.percentile(100.0) == 7.0

    def test_median_interpolates(self):
        m = self.metrics_with([1.0, 2.0, 3.0, 4.0])
        assert m.percentile(50.0) == pytest.approx(2.5)

    def test_endpoints(self):
        m = self.metrics_with([5.0, 1.0, 3.0])
        assert m.percentile(0.0) == 1.0
        assert m.percentile(100.0) == 5.0

    def test_p95_p99_on_uniform_grid(self):
        m = self.metrics_with([float(i) for i in range(101)])
        assert m.p50_response_time == pytest.approx(50.0)
        assert m.p95_response_time == pytest.approx(95.0)
        assert m.p99_response_time == pytest.approx(99.0)

    def test_unsorted_input_is_sorted(self):
        m = self.metrics_with([9.0, 1.0, 5.0, 3.0, 7.0])
        assert m.percentile(50.0) == 5.0

    def test_out_of_range_rejected(self):
        m = self.metrics_with([1.0])
        with pytest.raises(ValueError):
            m.percentile(-1.0)
        with pytest.raises(ValueError):
            m.percentile(100.5)


class TestTCritical:
    def test_tables_cover_every_dof_through_30(self):
        # Regression: the table used to have gaps past dof 10, so CIs over
        # 12-30 replications crashed with a KeyError.
        for confidence, (table, _normal) in _T_TABLES.items():
            assert sorted(table) == list(range(1, 31)), confidence
            for dof in range(1, 31):
                assert _t_critical(confidence, dof) == table[dof]

    def test_tabulated_values_strictly_decrease_toward_normal(self):
        for confidence, (table, normal) in _T_TABLES.items():
            values = [table[dof] for dof in range(1, 31)]
            assert values == sorted(values, reverse=True)
            assert values[-1] > normal

    def test_spot_checks_against_standard_tables(self):
        assert _t_critical(0.95, 1) == pytest.approx(12.706)
        assert _t_critical(0.95, 19) == pytest.approx(2.093)
        assert _t_critical(0.99, 25) == pytest.approx(2.787)
        assert _t_critical(0.90, 12) == pytest.approx(1.782)

    def test_large_dof_falls_back_to_normal_quantile(self):
        assert _t_critical(0.95, 31) == pytest.approx(1.960)
        assert _t_critical(0.90, 1000) == pytest.approx(1.645)
        assert _t_critical(0.99, 31) == pytest.approx(2.576)

    def test_invalid_dof_rejected(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            _t_critical(0.95, 0)
        with pytest.raises(ValueError, match="degrees of freedom"):
            _t_critical(0.95, -3)

    def test_non_tabulated_confidence_without_scipy_raises(self, monkeypatch):
        # Force the no-scipy path even when scipy is installed: a None
        # entry in sys.modules makes `from scipy import stats` raise
        # ImportError.
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ValueError, match="not tabulated"):
            _t_critical(0.80, 5)

    def test_non_tabulated_confidence_with_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        assert _t_critical(0.80, 5) == pytest.approx(
            float(scipy_stats.t.ppf(0.9, 5)))


class TestConfidenceInterval:
    def test_single_sample_zero_width(self):
        ci = mean_confidence_interval([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0
        assert ci.n == 1

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_identical_samples_zero_width(self):
        ci = mean_confidence_interval([3.0, 3.0, 3.0])
        assert ci.half_width == 0.0

    def test_known_value(self):
        # n=5, mean=10, sample sd=1 -> half = 2.776 * 1/sqrt(5)
        samples = [10 - math.sqrt(2), 10, 10, 10, 10 + math.sqrt(2)]
        ci = mean_confidence_interval(samples)
        assert ci.mean == pytest.approx(10.0)
        assert ci.half_width == pytest.approx(2.776 / math.sqrt(5), rel=1e-3)

    def test_more_samples_tighter_interval(self):
        wide = mean_confidence_interval([9.0, 11.0])
        tight = mean_confidence_interval([9.0, 11.0] * 10)
        assert tight.half_width < wide.half_width

    def test_large_dof_uses_normal_tail(self):
        samples = [float(i % 2) for i in range(200)]
        ci = mean_confidence_interval(samples)
        assert ci.half_width == pytest.approx(
            1.96 * 0.5013 / math.sqrt(200), rel=1e-2)

    def test_str_renders(self):
        assert "±" in str(mean_confidence_interval([1.0, 2.0, 3.0]))
