"""Simulation configuration: every knob of the paper's system model and,
where it has one, the knob's command-line flag (read by ``repro.cli``)."""

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.protocols import registry
from repro.stats import STREAMING_THRESHOLD

#: how g-2PL orders a forward list (``fl_ordering``)
FL_ORDERINGS = ("fifo", "reads_first", "writes_first")


def _flag(default, flag, help=None, **argparse_kwargs):
    """A field with a command-line ``flag``: its metadata holds the flag,
    its ``help``, and a ``group``, ``type``, ``metavar`` or ``choices``
    only where the default cannot tell them."""
    return field(default=default,
                 metadata={"flag": flag, "help": help, **argparse_kwargs})


def streaming_mode(value):
    """``--streaming on|off|auto`` -> ``True`` / ``False`` / ``None``."""
    if value not in ("on", "off", "auto"):
        raise ValueError(value)
    return {"on": True, "off": False}.get(value)


class Fidelity(enum.Enum):
    """Run-length bundles (transactions per run, replications).

    ``PAPER`` matches the published methodology (50,000 transactions per
    run after the transient phase, 5 independent replications); ``BENCH``
    is the default scale for the benchmark suite; ``SMOKE`` is for tests.
    """

    SMOKE = ("smoke", 300, 30, 1)
    BENCH = ("bench", 1000, 100, 2)
    PAPER = ("paper", 50_000, 5_000, 5)

    def __init__(self, label, transactions, warmup, replications):
        self.label = label
        self.transactions = transactions
        self.warmup = warmup
        self.replications = replications


@dataclass
class SimulationConfig:
    """All parameters of one simulation run (Table 1 defaults).

    Workload (Table 1): ``n_clients`` identical clients, MPL 1, each
    transaction accesses 1–5 distinct items out of 25 hot items, each
    access is a read with probability ``read_probability``, think time
    U(1,3) per operation, idle time U(2,10) between transactions. A
    ``population`` replaces the terminals with open-arrival users, and a
    site then runs several transactions at once. Servers charge no
    processing time (Table 1).

    Network: uniform latency between every pair of sites; transmission
    delay negligible unless ``bandwidth`` is set (data units per time unit).
    """

    protocol: str = "g2pl"
    n_clients: int = _flag(50, "--clients")
    n_items: int = _flag(25, "--items")
    min_ops: int = 1
    max_ops: int = 5
    read_probability: float = _flag(0.6, "--pr", "read probability (Table 1)")
    network_latency: float = _flag(500.0, "--latency")
    bandwidth: Optional[float] = None
    think_min: float = 1.0
    think_max: float = 3.0
    access_skew: float = _flag(
        0.0, "--zipf", "Zipf-like access skew (item at rank r has weight "
        "1/(r+1)^S; default 0 = uniform)", metavar="S")

    # g-2PL options
    mr1w: bool = True
    expand_read_groups: bool = False
    max_forward_list_length: Optional[int] = None
    fl_ordering: str = field(
        default="fifo", metadata={"choices": FL_ORDERINGS})

    # sharding / geo-topology
    n_shards: int = _flag(
        1, "--shards", "partition the hot items over K home servers "
        "(cross-shard transactions commit with 2PC); protocols: "
        + ", ".join(registry.protocols_with("shardable")), metavar="K")
    n_regions: int = _flag(
        1, "--regions", "group the shard servers into R geographic regions "
        "(clients sit with their home shard; inter-region hops cost "
        "--latency, intra-region hops --intra-latency)", metavar="R")
    intra_region_latency: float = _flag(
        1.0, "--intra-latency", "one-way latency inside a region "
        "(default 1.0)", metavar="L")
    commit_protocol: str = _flag(
        "2pc", "--commit", "cross-shard atomic commit: classic 2PC (2m+3 "
        "rounds) or the piggybacked variant (2m+1 rounds)",
        choices=("2pc", "2pc-opt"))
    cross_shard_probability: Optional[float] = _flag(
        None, "--cross-shard", "probability a transaction draws from the "
        "full item pool instead of its home shard (default: every draw is "
        "global)", type=float, metavar="P")

    # open-arrival client populations; None keeps the paper's closed-loop
    # driver and a byte-identical trajectory for every experiment and golden
    population: Optional[int] = _flag(
        None, "--population", "multiplex N logical users over the client "
        "sites with open-arrival traffic (default: the paper's closed-loop "
        "terminals)", type=int, metavar="N")
    arrival: str = _flag(
        "poisson", "--arrival", "open-arrival process shape (with "
        "--population)", choices=("poisson", "burst", "diurnal"))
    arrival_rate: float = _flag(
        0.001, "--arrival-rate", "transactions per user per time unit "
        "(with --population)", metavar="R")
    # None = one class with the workload's min_ops/max_ops/read_probability
    txn_mix: Optional[str] = _flag(
        None, "--txn-mix", "transaction classes 'name:weight:min-max:"
        "read_prob,...' e.g. 'browse:6:1-3:0.9,update:3:2-5:0.3' (with "
        "--population)", type=str, metavar="MIX")
    max_inflight_per_site: int = _flag(
        256, "--max-inflight", "admission control: shed arrivals beyond K "
        "in-flight transactions per site (with --population)", metavar="K")

    # streaming metrics: small runs keep exact per-transaction lists so
    # goldens stay byte-identical
    streaming: Optional[bool] = _flag(
        None, "--streaming", "bounded-memory metrics (reservoir percentiles, "
        "running moments); auto switches on above the streaming threshold "
        "(default: auto)", type=streaming_mode, metavar="{on,off,auto}")

    # a FaultSpec or its spec string; None is a perfect network
    faults: Optional[object] = _flag(
        None, "--faults", "fault-injection spec, e.g. "
        "'loss=0.05,dup=0.01,jitter=50,crash=3@10000:20000' "
        "(see repro.network.faults.FaultSpec.parse)", type=str,
        metavar="SPEC")

    # run control
    total_transactions: int = _flag(1500, "--transactions")
    warmup_transactions: int = _flag(150, "--warmup")
    seed: int = _flag(1, "--seed")
    record_history: bool = True

    # observability (repro.obs)
    trace: bool = _flag(
        False, "--trace", "collect structured trace events and "
        "per-transaction round/latency accounting (metrics stay "
        "bit-identical)")
    probe_interval: Optional[float] = _flag(
        None, "--probe-interval", "sample time-series gauges (queue "
        "depths, in-flight messages, heap depth) every T sim-time units",
        type=float, metavar="T")

    def __post_init__(self):
        for spec in dataclasses.fields(self):
            choices = spec.metadata.get("choices")
            if choices and getattr(self, spec.name) not in choices:
                raise ValueError(
                    f"unknown {spec.name} {getattr(self, spec.name)!r} "
                    f"(expected one of {', '.join(choices)})")
        if self.faults is not None:
            from repro.network.faults import FaultSpec

            self.faults = FaultSpec.parse(self.faults)
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        if self.n_items < 1:
            raise ValueError("need at least one data item")
        if not 0.0 <= self.read_probability <= 1.0:
            raise ValueError("read_probability outside [0, 1]")
        if self.network_latency < 0:
            raise ValueError("negative network latency")
        if self.warmup_transactions >= self.total_transactions:
            raise ValueError(
                "warmup_transactions must be below total_transactions")
        if (self.max_forward_list_length is not None
                and self.max_forward_list_length < 1):
            raise ValueError(
                f"max_forward_list_length must be >= 1, got "
                f"{self.max_forward_list_length}")
        if self.probe_interval is not None and self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.n_shards > self.n_items:
            raise ValueError(
                f"n_shards {self.n_shards} exceeds the "
                f"{self.n_items}-item pool")
        if self.n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        if self.intra_region_latency < 0:
            raise ValueError("negative intra-region latency")
        if self.cross_shard_probability is not None and not (
                0.0 <= self.cross_shard_probability <= 1.0):
            raise ValueError("cross_shard_probability outside [0, 1]")
        if self.population is not None:
            if self.population < self.n_clients:
                raise ValueError(
                    f"population {self.population} below n_clients "
                    f"{self.n_clients}: every site needs >= 1 logical user")
            if self.arrival_rate <= 0:
                raise ValueError("arrival_rate must be positive")
        if self.max_inflight_per_site < 1:
            raise ValueError("max_inflight_per_site must be >= 1")
        if self.txn_mix is not None:
            from repro.workload.population import parse_txn_mix

            # Validate eagerly (raises on malformed specs); the parsed
            # classes are rebuilt where needed, the config keeps the string.
            parse_txn_mix(self.txn_mix, n_items=self.n_items)
        # Every rule about what runs with what is a row of the registry's
        # capability tables; a config that constructs, runs.
        unsupported = registry.rejection(self)
        if unsupported is not None:
            raise ValueError(unsupported)

    @property
    def streaming_enabled(self):
        """The run's effective metrics mode (explicit flag or threshold)."""
        if self.streaming is not None:
            return self.streaming
        return self.total_transactions > STREAMING_THRESHOLD

    def replace(self, **changes):
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def workload_params(self):
        from repro.workload.generator import WorkloadParams

        return WorkloadParams(
            n_items=self.n_items,
            min_ops=self.min_ops,
            max_ops=self.max_ops,
            read_probability=self.read_probability,
            think_min=self.think_min,
            think_max=self.think_max,
            access_skew=self.access_skew,
            n_shards=self.n_shards,
            cross_shard_probability=self.cross_shard_probability,
        )

    def describe(self):
        """One-line summary for experiment logs."""
        sharding = ""
        if self.n_shards > 1:
            sharding = (f" shards={self.n_shards} regions={self.n_regions} "
                        f"commit={self.commit_protocol}")
        popn = ""
        if self.population is not None:
            popn = (f" population={self.population} arrival={self.arrival}"
                    f"@{self.arrival_rate:g}/user zipf={self.access_skew:g}")
        return (f"{self.protocol} clients={self.n_clients} "
                f"items={self.n_items} pr={self.read_probability:g} "
                f"latency={self.network_latency:g} "
                f"txns={self.total_transactions}{sharding}{popn}")
