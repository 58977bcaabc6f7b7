"""Random transaction generation per Table 1."""

from dataclasses import dataclass
from typing import Optional

from repro.locking.modes import LockMode
from repro.sim.rng import below, sample_indices
from repro.workload.spec import Operation, TransactionSpec

READ, WRITE = LockMode.READ, LockMode.WRITE


@dataclass(frozen=True)
class WorkloadParams:
    """The tunable knobs of the paper's workload (Table 1 defaults).

    ``access_skew`` extends the paper's uniform access with a Zipf-like
    popularity law (weight of the item at rank r is 1/(r+1)^skew; 0 means
    uniform, as published). The paper's §3.4 remark — "the more a certain
    data item is requested ... more is the performance gain, since the
    grouping effect is emphasized when the forward list is longer" — is
    directly testable by raising the skew (ablation A6).
    """

    n_items: int = 25
    min_ops: int = 1
    max_ops: int = 5
    read_probability: float = 0.6
    think_min: float = 1.0
    think_max: float = 3.0
    idle_min: float = 2.0
    idle_max: float = 10.0
    access_skew: float = 0.0
    # Sharded workloads: with cross_shard_probability = p, a transaction
    # is cross-shard-eligible with probability p (items drawn from the
    # full pool) and otherwise local to the client's home shard. None
    # keeps the single-pool draw sequence byte-identical to PR 5 runs
    # regardless of n_shards.
    n_shards: int = 1
    cross_shard_probability: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.read_probability <= 1.0:
            raise ValueError(
                f"read_probability {self.read_probability} outside [0, 1]")
        if not 1 <= self.min_ops <= self.max_ops:
            raise ValueError(
                f"need 1 <= min_ops <= max_ops, got "
                f"{self.min_ops}..{self.max_ops}")
        if self.max_ops > self.n_items:
            raise ValueError(
                f"max_ops {self.max_ops} exceeds the {self.n_items}-item pool")
        if self.think_min > self.think_max or self.think_min < 0:
            raise ValueError("invalid think time range")
        if self.idle_min > self.idle_max or self.idle_min < 0:
            raise ValueError("invalid idle time range")
        if self.access_skew < 0:
            raise ValueError(f"negative access_skew {self.access_skew}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_shards > self.n_items:
            raise ValueError(
                f"n_shards {self.n_shards} exceeds the "
                f"{self.n_items}-item pool")
        if self.cross_shard_probability is not None and not (
                0.0 <= self.cross_shard_probability <= 1.0):
            raise ValueError(
                f"cross_shard_probability {self.cross_shard_probability} "
                f"outside [0, 1]")

    def item_weights(self):
        """Unnormalised popularity weights, item id = popularity rank."""
        if self.access_skew == 0.0:
            return [1.0] * self.n_items
        return [1.0 / (rank + 1) ** self.access_skew
                for rank in range(self.n_items)]


class WorkloadGenerator:
    """Draws transaction specs and idle times from per-client streams.

    Per-client random streams keep clients statistically identical yet
    independent, and keep a client's draws reproducible regardless of how
    other clients interleave.
    """

    def __init__(self, params, streams):
        self.params = params
        self.streams = streams
        self.generated = 0
        # Per-(client, purpose) stream cache: resolving a stream costs an
        # f-string plus a dict probe in RandomStreams; the driver asks for
        # the same streams once per transaction, so memoise them here.
        self._txn_streams = {}
        self._idle_streams = {}
        # Home-shard pools depend only on (n_items, n_shards), both fixed
        # for the generator's lifetime; computed once on first use instead
        # of re-partitioning the item space on every local-transaction draw.
        self._home_pools = None

    def _stream(self, client_id, purpose):
        return self.streams.stream(f"client{client_id}.{purpose}")

    def _txn_stream(self, client_id):
        stream = self._txn_streams.get(client_id)
        if stream is None:
            stream = self._stream(client_id, "txn")
            self._txn_streams[client_id] = stream
        return stream

    def _sample_items(self, rng, n_ops, pool=None):
        params = self.params
        if params.access_skew == 0.0:
            if pool is None:
                return sample_indices(rng.getrandbits, params.n_items, n_ops)
            return [pool[index] for index
                    in sample_indices(rng.getrandbits, len(pool), n_ops)]
        available = list(range(params.n_items) if pool is None else pool)
        # Weighted sampling without replacement (successive draws).
        all_weights = params.item_weights()
        weights = [all_weights[item] for item in available]
        chosen = []
        for _ in range(n_ops):
            total = sum(weights)
            point = rng.random() * total
            cumulative = 0.0
            index = len(available) - 1
            for i, weight in enumerate(weights):
                cumulative += weight
                if point < cumulative:
                    index = i
                    break
            chosen.append(available.pop(index))
            weights.pop(index)
        return chosen

    def home_shard(self, client_id):
        """The shard whose items a client's local transactions draw from."""
        return (client_id - 1) % self.params.n_shards

    def _home_pool(self, client_id):
        pools = self._home_pools
        if pools is None:
            from repro.protocols.sharding import partition_items

            pools = self._home_pools = partition_items(
                self.params.n_items, self.params.n_shards)
        return pools[self.home_shard(client_id)]

    def next_spec(self, client_id):
        """Generate the next transaction for ``client_id``."""
        params = self.params
        rng = self._txn_stream(client_id)
        n_ops = params.min_ops + below(
            rng.getrandbits, params.max_ops - params.min_ops + 1)
        if params.cross_shard_probability is None:
            items = self._sample_items(rng, n_ops)
        elif rng.random() < params.cross_shard_probability:
            # Cross-shard-eligible: draw from the full pool, so the
            # transaction spans home servers whenever the draw does.
            items = self._sample_items(rng, n_ops)
        else:
            # Local: confined to the client's home shard.
            pool = self._home_pool(client_id)
            items = self._sample_items(rng, min(n_ops, len(pool)), pool)
        read_probability = params.read_probability
        think_min = params.think_min
        span = params.think_max - think_min
        random = rng.random
        # think_min + span * random() is Random.uniform's own formula
        operations = tuple([
            Operation(item, READ if random() < read_probability else WRITE,
                      think_min + span * random())
            for item in items])
        self.generated += 1
        return TransactionSpec(operations=operations)

    def idle_time(self, client_id):
        """Idle period before the client's next transaction."""
        stream = self._idle_streams.get(client_id)
        if stream is None:
            stream = self._stream(client_id, "idle")
            self._idle_streams[client_id] = stream
        return stream.uniform(self.params.idle_min, self.params.idle_max)

    def initial_stagger(self, client_id):
        """Start-up desynchronisation: the first transaction of each client
        begins after one idle-time draw, so all clients do not fire their
        first request at t=0 in lockstep."""
        # One draw per client per run, so unbuffered: buffering would
        # prefetch draws nobody uses.
        return self._stream(client_id, "stagger").uniform(
            0.0, self.params.idle_max)
