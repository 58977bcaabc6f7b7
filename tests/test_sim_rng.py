"""Unit tests for named random streams."""

import hashlib
import random

import pytest

from repro.sim import RandomStreams
from repro.sim.rng import _derive_seed, below, sample_indices, sha256

#: (root seed, stream name) -> seed, computed by ``hashlib.sha256`` before
#: the package took its digest from the interpreter's built-in module: the
#: streams a run draws from (a client's arrivals and user picks, the
#: workload's per-client stream, the metrics reservoir, the fault
#: namespace and a stream inside it), and the empty name
PINNED_SEEDS = {
    (42, "client1.arrival"): 11881088981085708156,
    (42, "client1.popn"): 9409918901102331440,
    (101, "client3.txn"): 9087778114803292997,
    (7, "metrics.reservoir"): 9263524780678843549,
    (101, "faults"): 2255922942844881280,
    (2255922942844881280, "loss"): 13351000184707288093,
    (0, ""): 13436079590000323820,
}


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


@pytest.mark.parametrize("root, name", sorted(PINNED_SEEDS))
def test_stream_seeds_are_pinned(root, name):
    data = f"{root}:{name}".encode("utf-8")
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    assert _derive_seed(root, name) == PINNED_SEEDS[root, name]


def test_a_spawned_namespace_is_seeded_from_its_name():
    child = RandomStreams(101).spawn("faults")
    assert child.root_seed == PINNED_SEEDS[101, "faults"]
    assert (child.stream("loss").random()
            == random.Random(PINNED_SEEDS[child.root_seed, "loss"]).random())
