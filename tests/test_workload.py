"""Unit tests for workload generation (Table 1 semantics)."""

import random

import pytest
from helpers import next_spec_by_methods, open_next_spec_by_methods

from repro.locking.modes import LockMode
from repro.sim import RandomStreams
from repro.workload.generator import (
    IDLE_MAX,
    IDLE_MIN,
    WorkloadGenerator,
    WorkloadParams,
)
from repro.workload.population import (
    OpenArrivalGenerator,
    default_classes,
    parse_txn_mix,
)
from repro.workload.spec import Operation, TransactionSpec


def make_generator(seed=1, **overrides):
    params = WorkloadParams(**overrides)
    return WorkloadGenerator(params, RandomStreams(seed))


class TestParams:
    def test_defaults_match_table1(self):
        p = WorkloadParams()
        assert p.n_items == 25
        assert (p.min_ops, p.max_ops) == (1, 5)
        assert (p.think_min, p.think_max) == (1.0, 3.0)
        assert (IDLE_MIN, IDLE_MAX) == (2.0, 10.0)

    def test_read_probability_validated(self):
        with pytest.raises(ValueError):
            WorkloadParams(read_probability=1.5)
        with pytest.raises(ValueError):
            WorkloadParams(read_probability=-0.1)

    def test_ops_range_validated(self):
        with pytest.raises(ValueError):
            WorkloadParams(min_ops=0)
        with pytest.raises(ValueError):
            WorkloadParams(min_ops=4, max_ops=2)
        with pytest.raises(ValueError):
            WorkloadParams(max_ops=30, n_items=25)

    def test_time_ranges_validated(self):
        with pytest.raises(ValueError):
            WorkloadParams(think_min=5, think_max=2)


class TestSpec:
    def test_spec_requires_operations(self):
        with pytest.raises(ValueError):
            TransactionSpec(operations=())

    def test_spec_rejects_duplicate_items(self):
        op = Operation(item_id=3, mode=LockMode.READ, think_time=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            TransactionSpec(operations=(op, op))

    def test_spec_properties(self):
        ops = (Operation(0, LockMode.READ, 1.0),
               Operation(1, LockMode.WRITE, 2.0))
        s = TransactionSpec(operations=ops)
        assert s.n_ops == 2
        assert s.items == (0, 1)
        assert s.n_writes == 1


class TestGenerator:
    def test_ops_within_bounds_and_distinct(self):
        gen = make_generator()
        for _ in range(200):
            s = gen.next_spec(client_id=1)
            assert 1 <= s.n_ops <= 5
            assert len(set(s.items)) == s.n_ops
            assert all(0 <= item < 25 for item in s.items)
            assert all(1.0 <= op.think_time <= 3.0 for op in s.operations)

    def test_read_probability_zero_is_all_writes(self):
        gen = make_generator(read_probability=0.0)
        for _ in range(50):
            s = gen.next_spec(1)
            assert s.n_writes == s.n_ops

    def test_read_probability_one_is_read_only(self):
        gen = make_generator(read_probability=1.0)
        for _ in range(50):
            assert gen.next_spec(1).n_writes == 0

    def test_read_fraction_approximates_probability(self):
        gen = make_generator(read_probability=0.6)
        reads = ops = 0
        for _ in range(500):
            s = gen.next_spec(1)
            ops += s.n_ops
            reads += s.n_ops - s.n_writes
        assert 0.55 < reads / ops < 0.65

    def test_idle_time_within_bounds(self):
        gen = make_generator()
        for _ in range(100):
            assert 2.0 <= gen.idle_time(1) <= 10.0

    def test_stagger_within_idle_max(self):
        gen = make_generator()
        for client in range(10):
            assert 0.0 <= gen.initial_stagger(client) <= 10.0

    def test_deterministic_per_seed(self):
        a, b = make_generator(seed=5), make_generator(seed=5)
        for client in (1, 2, 3):
            assert a.next_spec(client).items == b.next_spec(client).items

    def test_clients_are_independent_streams(self):
        gen = make_generator(seed=5)
        fresh = make_generator(seed=5)
        # Consuming many specs for client 1 must not shift client 2.
        expected = fresh.next_spec(2).items
        for _ in range(100):
            gen.next_spec(1)
        assert gen.next_spec(2).items == expected

    def test_generated_counter(self):
        gen = make_generator()
        for _ in range(7):
            gen.next_spec(1)
        assert gen.generated == 7


class TestHomePoolCache:
    """Regression: the cached home-shard pools must not change any draw."""

    SHARDED = dict(n_items=24, n_shards=4, cross_shard_probability=0.3)

    def test_cached_pools_match_partition(self):
        from repro.protocols.sharding import partition_items

        gen = make_generator(**self.SHARDED)
        pools = partition_items(24, 4)
        for client in range(1, 9):
            assert gen._home_pool(client) == pools[gen.home_shard(client)]

    def test_cache_preserves_draw_sequence(self):
        # The reference generator recomputes the partition on every local
        # draw, as the pre-cache implementation did; both must produce a
        # byte-identical spec sequence from the same seed.
        from repro.protocols.sharding import partition_items

        cached = make_generator(seed=3, **self.SHARDED)
        reference = make_generator(seed=3, **self.SHARDED)
        reference._home_pool = lambda client_id: partition_items(
            reference.params.n_items, reference.params.n_shards
        )[reference.home_shard(client_id)]
        for _ in range(200):
            for client in (1, 2, 3, 4, 5):
                want = reference.next_spec(client)
                got = cached.next_spec(client)
                assert got.operations == want.operations


class TestDrawsMatchTheMethodOracle:
    """The shipped draws (``below`` / ``sample_indices``, ``uniform``'s
    formula, positional ``Operation``s) against the ``Random`` method
    calls they replaced, kept in ``tests/helpers.py``: the same specs,
    spec for spec, and the same stream state after them."""

    @pytest.mark.parametrize("overrides", [
        {},                                                  # Table 1
        dict(min_ops=3, max_ops=3),      # width 1: still one getrandbits(1)
        dict(min_ops=4, max_ops=9),              # k > 5: the setsize rule
        dict(n_items=8, max_ops=8, read_probability=0.3),  # pool branch
        dict(n_items=32, n_shards=4, cross_shard_probability=0.3),
        dict(n_items=24, n_shards=3, cross_shard_probability=0.0),
        dict(access_skew=0.8),                     # unchanged skewed path
    ], ids=["table1", "width1", "setsize", "small-pool", "sharded",
            "home-pool-only", "skewed"])
    def test_closed_loop_specs(self, overrides):
        for seed in (1, 7, 41):
            shipped = make_generator(seed=seed, **overrides)
            oracle = make_generator(seed=seed, **overrides)
            for _ in range(150):
                for client in (1, 2, 3, 4, 5):
                    assert (shipped.next_spec(client).operations
                            == next_spec_by_methods(oracle, client).operations)
            for client in (1, 2, 3, 4, 5):
                assert (shipped._txn_stream(client).getstate()
                        == oracle._txn_stream(client).getstate())

    @pytest.mark.parametrize("txn_mix", [None, "browse:6:1-3:0.9,"
                                         "update:3:2-5:0.3,audit:1:4-4:1.0"])
    def test_population_specs(self, txn_mix):
        params = WorkloadParams(n_items=1000, access_skew=0.5)
        classes = (parse_txn_mix(txn_mix, n_items=1000) if txn_mix
                   else default_classes(params))
        shipped = OpenArrivalGenerator(params, classes, random.Random(11))
        oracle = OpenArrivalGenerator(params, classes, random.Random(11))
        for _ in range(600):
            assert (shipped.next_spec().operations
                    == open_next_spec_by_methods(oracle).operations)
        assert shipped.by_class == oracle.by_class
        assert shipped._rng.getstate() == oracle._rng.getstate()
