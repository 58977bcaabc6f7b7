"""LP-partitioned runs must reproduce the serial trajectory bit for bit.

``lp=True`` splits a shard-closed run (cross_shard_probability=0.0,
quota termination) into one logical process per shard, each free-running
on its own heap in its own OS process.  The committed ``*_lp_quota``
goldens were recorded *serially*; every test here replays them through
the multi-process LP runner and requires the canonical fingerprint to
match byte for byte.  Also covered: the nested-pool fallback (``lp=True``
inside a worker process degrades to the serial path with a warning, not
a crash) and the eligibility rules, which reject at construction time.
"""

import dataclasses

import pytest

from repro.core import lp
from repro.core.config import SimulationConfig
from repro.core.parallel import SimulationCell, run_cells
from repro.core.runner import run_simulation
from repro.perf.fingerprint import fingerprint_digest, result_fingerprint
from repro.perf.goldens import golden_config, load_golden

LP_CELLS = ("g2pl_lp_quota", "s2pl_lp_quota", "hybrid_lp_quota")


def _lp_config(name):
    config, seed = golden_config(name)
    return dataclasses.replace(config, lp=True), seed


def _assert_matches_golden(name, result):
    golden = load_golden(name)
    fingerprint = result_fingerprint(result)
    assert fingerprint == golden["fingerprint"], (
        f"LP run of {name!r} diverged from the serial trajectory")
    assert fingerprint_digest(fingerprint) == golden["digest"]


class TestLpReplay:
    @pytest.mark.parametrize("name", LP_CELLS)
    def test_lp_run_matches_serial_golden(self, name):
        config, seed = _lp_config(name)
        result = run_simulation(config, seed=seed)
        _assert_matches_golden(name, result)
        assert result.engine_stats["lp_workers"] == config.n_shards

    @pytest.mark.parametrize("overrides,engaged", [
        (dict(protocol="hybrid"), "mode_switches"),
        # one region: at intra-region latency 1 an item is home again long
        # before the quiescence bound (1.5 x 100) can prove a window final
        (dict(protocol="g2pl-spec", n_regions=1), "spec_extensions"),
        (dict(protocol="hybrid", speculate=True, n_regions=1), "spec_hits"),
    ], ids=["hybrid", "g2pl-spec", "hybrid+speculate"])
    def test_adaptive_lp_run_equals_serial_including_adapt_stats(
            self, overrides, engaged):
        # The whole fingerprint, controller counters included: the serial
        # runner and the LP merge share one stats merge.
        config, seed = golden_config("hybrid_lp_quota")
        config = config.replace(**overrides)
        serial = run_simulation(config, seed=seed)
        parallel = run_simulation(config.replace(lp=True), seed=seed)
        assert result_fingerprint(parallel) == result_fingerprint(serial)
        assert parallel.server_stats[engaged] > 0


class TestNestedPoolFallback:
    def test_lp_inside_worker_falls_back_to_serial(self, monkeypatch):
        name = "s2pl_lp_quota"
        config, seed = _lp_config(name)
        monkeypatch.setattr(lp, "in_worker_process", lambda: True)
        with pytest.warns(RuntimeWarning, match="nested process pools"):
            result = run_simulation(config, seed=seed)
        # the fallback is the plain serial path, so it has no lp_workers
        # stat — and still lands exactly on the golden
        assert "lp_workers" not in result.engine_stats
        _assert_matches_golden(name, result)

    def test_lp_cells_complete_under_process_pool(self):
        # end to end: lp=True cells submitted to the jobs pool must
        # complete (via the serial fallback in each worker) and still
        # match the goldens
        cells = []
        for name in LP_CELLS:
            config, seed = _lp_config(name)
            cells.append(SimulationCell(config=config, seed=seed))
        results = run_cells(cells, jobs=2)
        for name, result in zip(LP_CELLS, results):
            _assert_matches_golden(name, result)


class TestValidation:
    def _base(self, **overrides):
        kwargs = dict(
            protocol="g2pl", n_clients=8, n_items=16, n_shards=4,
            n_regions=2, cross_shard_probability=0.0,
            network_latency=100.0, intra_region_latency=1.0,
            total_transactions=160, warmup_transactions=20,
            termination="quota", lp=True)
        kwargs.update(overrides)
        return SimulationConfig(**kwargs)

    @pytest.mark.parametrize("overrides,fragment", [
        (dict(protocol="c2pl"), "sharded protocol"),
        (dict(termination="global"), "termination='quota'"),
        (dict(cross_shard_probability=0.5), "shard-local workload"),
        (dict(cross_shard_probability=None), "shard-local workload"),
        (dict(faults="loss=0.05"), "fault injection"),
        (dict(trace=True), "tracing or probes"),
        (dict(mpl=2), "mpl=1"),
        (dict(n_clients=3), "at least one client per shard"),
    ])
    def test_ineligible_configs_are_rejected(self, overrides, fragment):
        # at construction: a --jobs sweep must fail before its pool starts
        with pytest.raises(ValueError, match=fragment):
            self._base(**overrides)

    def test_eligible_config_constructs(self):
        assert self._base().lp
