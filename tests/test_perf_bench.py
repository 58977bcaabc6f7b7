"""Unit tests for the kernel benchmark harness (``repro.perf``)."""

import json

import pytest

from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    bench_cells,
    compare_benchmarks,
    load_benchmark,
    run_benchmarks,
    write_benchmark,
)
from repro.perf.fingerprint import fingerprint_digest, result_fingerprint


def _bench(cells, mode="full", cell_revision=None, schema=None):
    from repro.perf.bench import CELL_REVISION

    return {
        "schema_version": (BENCH_SCHEMA_VERSION if schema is None
                           else schema),
        "cell_revision": (CELL_REVISION if cell_revision is None
                          else cell_revision),
        "mode": mode,
        "cells": cells,
    }


def _cell(eps, digest="d0"):
    return {"events_per_sec": eps, "digest": digest}


class TestCompare:
    def test_identical_runs_pass(self):
        bench = _bench({"a": _cell(1000.0), "b": _cell(2000.0)})
        comparison = compare_benchmarks(bench, bench, tolerance=0.2)
        assert comparison.ok
        assert all(c.ratio == 1.0 for c in comparison.cells)
        assert all(c.digest_match for c in comparison.cells)

    def test_regression_beyond_tolerance_fails(self):
        baseline = _bench({"a": _cell(1000.0)})
        current = _bench({"a": _cell(700.0)})  # 0.7x < 0.8x floor
        comparison = compare_benchmarks(current, baseline, tolerance=0.2)
        assert not comparison.ok
        assert "regressed" in comparison.failures[0]

    def test_regression_within_tolerance_passes(self):
        baseline = _bench({"a": _cell(1000.0)})
        current = _bench({"a": _cell(850.0)})  # 0.85x >= 0.8x floor
        assert compare_benchmarks(current, baseline, tolerance=0.2).ok

    def test_digest_mismatch_fails_even_when_faster(self):
        baseline = _bench({"a": _cell(1000.0, digest="old")})
        current = _bench({"a": _cell(5000.0, digest="new")})
        comparison = compare_benchmarks(current, baseline, tolerance=0.2)
        assert not comparison.ok
        assert any("digest" in failure for failure in comparison.failures)

    def test_digests_not_compared_across_modes(self):
        baseline = _bench({"a": _cell(1000.0, digest="full-run")},
                          mode="full")
        current = _bench({"a": _cell(1000.0, digest="quick-run")},
                         mode="quick")
        comparison = compare_benchmarks(current, baseline, tolerance=0.2)
        assert comparison.ok
        assert comparison.cells[0].digest_match is None

    def test_digests_not_compared_across_cell_revisions(self):
        baseline = _bench({"a": _cell(1000.0, digest="x")}, cell_revision=1)
        current = _bench({"a": _cell(1000.0, digest="y")}, cell_revision=2)
        assert compare_benchmarks(current, baseline, tolerance=0.2).ok

    def test_missing_cell_fails(self):
        baseline = _bench({"a": _cell(1000.0), "b": _cell(1000.0)})
        current = _bench({"a": _cell(1000.0)})
        comparison = compare_benchmarks(current, baseline, tolerance=0.2)
        assert not comparison.ok
        assert any("missing" in failure for failure in comparison.failures)

    def test_normalization_cancels_host_speed(self):
        # Host is uniformly 2x slower: raw ratios all 0.5 (fail), but the
        # engine_churn normaliser cancels it (pass).
        baseline = _bench({"engine_churn": _cell(1000.0),
                           "macro": _cell(500.0)})
        current = _bench({"engine_churn": _cell(500.0),
                          "macro": _cell(250.0)})
        raw = compare_benchmarks(current, baseline, tolerance=0.2)
        assert not raw.ok
        normalized = compare_benchmarks(current, baseline, tolerance=0.2,
                                        normalize=True)
        assert normalized.ok

    def test_same_work_in_fewer_events_is_faster_not_slower(self):
        # Equal digest, a fifth of the events, half the wall: events/sec
        # fell to 0.4x, but the cell does the same work twice as fast.
        def cell(events, wall):
            return {"events": events, "wall_seconds": wall,
                    "events_per_sec": events / wall, "digest": "d0"}

        baseline = _bench({"a": cell(10_000, 10.0)})
        faster = _bench({"a": cell(2_000, 5.0)})
        comparison = compare_benchmarks(faster, baseline, tolerance=0.2)
        assert comparison.ok, comparison.describe()
        assert comparison.cells[0].ratio == pytest.approx(2.0)
        # ... and fewer events do not excuse taking longer.
        slower = _bench({"a": cell(2_000, 20.0)})
        comparison = compare_benchmarks(slower, baseline, tolerance=0.2)
        assert not comparison.ok
        assert comparison.cells[0].ratio == pytest.approx(0.5)
        # Across modes the cells are different work: events/sec, as before.
        quick = _bench({"a": cell(2_000, 5.0)}, mode="quick")
        comparison = compare_benchmarks(quick, baseline, tolerance=0.2)
        assert comparison.cells[0].ratio == pytest.approx(0.4)

    def test_bad_tolerance_rejected(self):
        bench = _bench({"a": _cell(1.0)})
        with pytest.raises(ValueError):
            compare_benchmarks(bench, bench, tolerance=1.5)

    def test_describe_mentions_failures(self):
        baseline = _bench({"a": _cell(1000.0)})
        current = _bench({"a": _cell(100.0)})
        comparison = compare_benchmarks(current, baseline, tolerance=0.2)
        text = comparison.describe()
        assert "FAILURES" in text
        assert "a" in text


class TestSchema:
    def test_write_then_load_round_trips(self, tmp_path):
        bench = _bench({"a": _cell(123.0)})
        path = tmp_path / "bench.json"
        write_benchmark(path, bench)
        assert load_benchmark(path) == bench

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_bench({}, schema=999)))
        with pytest.raises(ValueError):
            load_benchmark(path)


class TestHarness:
    def test_cell_set_is_fixed_and_named(self):
        names = [cell.name for cell in bench_cells()]
        assert names == ["engine_churn", "net_ping", "s2pl_contention",
                         "g2pl_contention", "g2pl_faulted", "g2pl_traced",
                         "population_100k", "hybrid_contention"]
        assert len(set(names)) == len(names)

    def test_quick_micro_cell_measures_and_digests(self):
        churn = [c for c in bench_cells() if c.name == "engine_churn"][0]
        first = churn.runner(True)
        second = churn.runner(True)
        assert first["events"] == second["events"] > 0
        assert first["digest"] == second["digest"]
        assert first["events_per_sec"] > 0

    def test_run_benchmarks_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_benchmarks(quick=True, repeats=0)


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
