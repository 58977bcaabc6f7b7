"""Unit tests for named random streams."""

import random

from repro.sim import RandomStreams
from repro.sim.rng import below, sample_indices


def test_same_seed_same_sequence():
    a = RandomStreams(42).stream("clients")
    b = RandomStreams(42).stream("clients")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RandomStreams(42)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x").random()
    b = RandomStreams(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")


def test_consuming_one_stream_does_not_shift_another():
    fresh = RandomStreams(99)
    expected = [fresh.stream("b").random() for _ in range(3)]

    mixed = RandomStreams(99)
    for _ in range(1000):
        mixed.stream("a").random()
    got = [mixed.stream("b").random() for _ in range(3)]
    assert got == expected


def test_uniform_and_randint_helpers():
    streams = RandomStreams(5)
    for _ in range(100):
        value = streams.uniform("u", 2.0, 10.0)
        assert 2.0 <= value <= 10.0
        item = streams.randint("i", 1, 25)
        assert 1 <= item <= 25


def test_spawn_derives_independent_namespace():
    parent = RandomStreams(11)
    child1 = parent.spawn("replication-1")
    child2 = parent.spawn("replication-2")
    assert child1.stream("w").random() != child2.stream("w").random()
    # deterministic: re-deriving gives the same values
    again = RandomStreams(11).spawn("replication-1")
    assert again.stream("w").random() == RandomStreams(11).spawn(
        "replication-1").stream("w").random()


def test_below_and_sample_indices_are_cpythons_draws():
    """Derandomised differential battery: every (n, k) with n in 1..64 and
    k in 1..min(n, 9) — the pool branch, the set branch and the k > 5
    ``setsize`` rule — over many seeds, each draw followed by the next
    ``random()`` so a helper that takes one bit too many or too few fails
    on the spot."""
    for seed in range(24):
        for n in range(1, 65):
            reference = random.Random(seed * 100 + n)
            twin = random.Random(seed * 100 + n)
            for k in range(1, min(n, 9) + 1):
                assert (sample_indices(twin.getrandbits, n, k)
                        == reference.sample(range(n), k)), (seed, n, k)
                assert below(twin.getrandbits, n) == reference._randbelow(n)
                assert twin.random() == reference.random(), (seed, n, k)


def test_below_one_still_draws_a_bit():
    # randint(a, a) is a + _randbelow(1): one getrandbits(1), value 0
    reference, twin = random.Random(5), random.Random(5)
    for _ in range(50):
        assert below(twin.getrandbits, 1) == reference.randint(3, 3) - 3 == 0
    assert twin.getstate() == reference.getstate()
