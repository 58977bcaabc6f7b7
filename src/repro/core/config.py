"""Simulation configuration: every knob of the paper's system model."""

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional

from repro.protocols import registry


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
    U(1,3) per operation, idle time U(2,10) between transactions.

    Network: uniform latency between every pair of sites; transmission
    delay negligible unless ``bandwidth`` is set (data units per time unit).
    """

    protocol: str = "g2pl"
    n_clients: int = 50
    n_items: int = 25
    min_ops: int = 1
    max_ops: int = 5
    read_probability: float = 0.6
    network_latency: float = 500.0
    bandwidth: Optional[float] = None
    think_min: float = 1.0
    think_max: float = 3.0
    idle_min: float = 2.0
    idle_max: float = 10.0
    data_item_size: float = 8.0
    server_processing_time: float = 0.0
    access_skew: float = 0.0  # 0 = paper's uniform access; >0 = Zipf-like
    mpl: int = 1              # multiprogramming level per client (Table 1: 1)
    # installed updates between server checkpoints; None = aggressive log
    # truncation with no crash-recovery coverage (the paper's assumption)
    checkpoint_interval: Optional[int] = None

    # s-2PL options
    victim_policy: str = "requester"  # or "youngest" / "oldest"

    # g-2PL options
    mr1w: bool = True
    expand_read_groups: bool = False
    max_forward_list_length: Optional[int] = None
    fl_ordering: str = "fifo"  # or "reads_first" / "writes_first"

    # c-2PL options
    cache_capacity: Optional[int] = None  # None = unbounded client cache

    # sharding / geo-topology. With n_shards > 1 the item space is
    # partitioned across that many home servers; n_regions > 1 groups
    # shards and clients into regions (intra-region hops cost
    # intra_region_latency, inter-region hops cost network_latency).
    n_shards: int = 1
    n_regions: int = 1
    intra_region_latency: float = 1.0
    # cross-shard commit: "2pc" (classic prepare/vote/decide) or
    # "2pc-opt" (votes piggyback on the last lock grant per shard)
    commit_protocol: str = "2pc"
    # None keeps the single-server workload untouched; a probability p
    # makes each transaction cross-shard-eligible with probability p
    # (items drawn from the full pool) and home-shard-local otherwise
    cross_shard_probability: Optional[float] = None

    # open-arrival client populations. With population = N, each client
    # site stops being one closed-loop MPL-1 terminal and instead
    # multiplexes its share of N logical users as a state machine: traffic
    # arrives via an open arrival process ("poisson", "burst", or
    # "diurnal") at arrival_rate transactions per user per time unit,
    # with Zipf hot-key skew (access_skew) and a mixed transaction-class
    # profile (txn_mix). None keeps the paper's closed-loop driver and a
    # byte-identical trajectory for every existing experiment and golden.
    population: Optional[int] = None
    arrival: str = "poisson"
    arrival_rate: float = 0.001
    # burst arrivals: the first burst_fraction of every burst_period runs
    # at burst_factor x the base rate, the rest at a reduced rate chosen
    # so the long-run mean stays arrival_rate
    burst_factor: float = 6.0
    burst_fraction: float = 0.1
    burst_period: float = 2000.0
    # diurnal arrivals: rate(t) = base * (1 + amplitude*sin(2*pi*t/period))
    diurnal_period: float = 20000.0
    diurnal_amplitude: float = 0.8
    # transaction-class mix, e.g. "browse:6:1-3:0.9,update:3:2-5:0.3";
    # each class is name:weight:min-max:read_probability. None = one
    # class with the workload's min_ops/max_ops/read_probability.
    txn_mix: Optional[str] = None
    # admission control: arrivals beyond this many in-flight transactions
    # per site are shed (counted, not queued) — bounds memory and models
    # a saturated front door rather than an infinite backlog
    max_inflight_per_site: int = 256

    # streaming metrics: None auto-selects bounded-memory reservoir/
    # Welford collection when total_transactions exceeds
    # streaming_threshold; True/False force the choice. Small runs keep
    # exact per-transaction lists so goldens stay byte-identical.
    streaming: Optional[bool] = None
    streaming_threshold: int = 20_000
    reservoir_capacity: int = 8192
    throughput_window: float = 1000.0

    # fault injection: a FaultSpec, a spec string for FaultSpec.parse
    # ("loss=0.05,crash=3@10000:20000"), or None for a perfect network
    faults: Optional[object] = None

    # run control
    total_transactions: int = 1500
    warmup_transactions: int = 150
    seed: int = 1
    record_history: bool = True
    # run-length accounting: "global" stops at the Nth finished
    # transaction anywhere (the paper's rule); "quota" gives each client
    # total/n_clients transactions (remainder to the lowest client ids)
    # and stops when every client has met its quota. Quota termination is
    # decomposable per client, which is what lets LP-partitioned runs
    # reproduce the serial trajectory exactly.
    termination: str = "global"

    # run each shard as a logical process in its own OS process
    # (repro.core.lp); requires n_shards > 1, quota termination, and a
    # shard-local workload (cross_shard_probability=0)
    lp: bool = False

    # adaptive concurrency control (repro.adapt): the three controllers
    # behind the g2pl-adaptive / hybrid / g2pl-spec registry entries.
    # Off by default so every static protocol's trajectory is untouched.
    adapt_window: bool = False   # online collection-window sizing
    hybrid: bool = False         # per-item single/grouped mode switching
    speculate: bool = False      # clock-assisted speculative dispatch
    # window controller: integral gain, depth setpoint, and hold bounds
    # (bounds in multiples of network_latency)
    window_gain: float = 0.5
    window_target_depth: float = 3.0
    window_min: float = 0.0
    window_max: float = 2.0
    # contention controller: hysteresis thresholds on the [0, 1) score,
    # and the EWMA depth at which the score reads 0.5. A freeze depth of
    # 1 scores 0.25 at the default scale, so low=0.3 ~= "windows are
    # mostly singletons", high=0.5 ~= "three-deep backlogs".
    hybrid_low: float = 0.3
    hybrid_high: float = 0.5
    hybrid_scale: float = 3.0
    # smoothing weight shared by the adapt estimators
    adapt_ewma: float = 0.3
    # speculation: quiescence bound in multiples of network_latency
    spec_margin: float = 1.5

    # observability (repro.obs): structured tracing and time-series probes.
    # Tracing never perturbs results — metrics are bit-identical either way.
    trace: bool = False
    probe_interval: Optional[float] = None  # sim-time between gauge samples
    trace_engine: bool = False  # per-heap-entry engine events (very hot)

    def __post_init__(self):
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
        if self.mpl < 1:
            raise ValueError("mpl must be >= 1")
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
        if self.commit_protocol not in ("2pc", "2pc-opt"):
            raise ValueError(
                f"unknown commit_protocol {self.commit_protocol!r} "
                f"(expected '2pc' or '2pc-opt')")
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
        if self.arrival not in ("poisson", "burst", "diurnal"):
            raise ValueError(
                f"unknown arrival process {self.arrival!r} "
                f"(expected 'poisson', 'burst', or 'diurnal')")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if self.burst_factor * self.burst_fraction > 1.0:
            raise ValueError(
                f"burst_factor {self.burst_factor:g} x burst_fraction "
                f"{self.burst_fraction:g} exceeds 1: the off-phase rate "
                f"would be negative (mean rate is preserved)")
        if self.burst_period <= 0 or self.diurnal_period <= 0:
            raise ValueError("arrival modulation periods must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.max_inflight_per_site < 1:
            raise ValueError("max_inflight_per_site must be >= 1")
        if self.txn_mix is not None:
            from repro.workload.population import parse_txn_mix

            # Validate eagerly (raises on malformed specs); the parsed
            # classes are rebuilt where needed, the config keeps the string.
            parse_txn_mix(self.txn_mix, n_items=self.n_items)
        if self.termination not in ("global", "quota"):
            raise ValueError(
                f"unknown termination {self.termination!r} "
                f"(expected 'global' or 'quota')")
        if self.termination == "quota" and self.population is not None:
            raise ValueError(
                "quota termination is defined for the closed-loop client "
                "model; open-arrival populations use 'global'")
        if (self.termination == "quota"
                and self.total_transactions < self.n_clients):
            raise ValueError(
                f"quota termination needs total_transactions >= n_clients "
                f"({self.total_transactions} < {self.n_clients})")
        if self.window_gain <= 0:
            raise ValueError("window_gain must be positive")
        if self.window_target_depth <= 0:
            raise ValueError("window_target_depth must be positive")
        if not 0.0 <= self.window_min <= self.window_max:
            raise ValueError(
                f"window bounds must satisfy 0 <= window_min <= window_max "
                f"(got {self.window_min:g}..{self.window_max:g})")
        if not 0.0 <= self.hybrid_low <= self.hybrid_high <= 1.0:
            raise ValueError(
                f"hybrid thresholds must satisfy 0 <= low <= high <= 1 "
                f"(got {self.hybrid_low:g}..{self.hybrid_high:g})")
        if self.hybrid_scale <= 0:
            raise ValueError("hybrid_scale must be positive")
        if not 0.0 < self.adapt_ewma <= 1.0:
            raise ValueError("adapt_ewma must be in (0, 1]")
        if self.spec_margin <= 0:
            raise ValueError("spec_margin must be positive")
        if self.streaming_threshold < 0:
            raise ValueError("streaming_threshold must be >= 0")
        if self.reservoir_capacity < 2:
            raise ValueError("reservoir_capacity must be >= 2")
        if self.throughput_window <= 0:
            raise ValueError("throughput_window must be positive")
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
        return self.total_transactions > self.streaming_threshold

    def replace(self, **changes):
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def with_fidelity(self, fidelity):
        """A copy at the given :class:`Fidelity` run length."""
        if isinstance(fidelity, str):
            fidelity = Fidelity[fidelity.upper()]
        return self.replace(total_transactions=fidelity.transactions,
                            warmup_transactions=fidelity.warmup)

    def workload_params(self):
        from repro.workload.generator import WorkloadParams

        return WorkloadParams(
            n_items=self.n_items,
            min_ops=self.min_ops,
            max_ops=self.max_ops,
            read_probability=self.read_probability,
            think_min=self.think_min,
            think_max=self.think_max,
            idle_min=self.idle_min,
            idle_max=self.idle_max,
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
        adapt = ""
        if self.adapt_window or self.hybrid or self.speculate:
            knobs = []
            if self.adapt_window:
                knobs.append(f"window(gain={self.window_gain:g} "
                             f"target={self.window_target_depth:g} "
                             f"hold={self.window_min:g}..{self.window_max:g})")
            if self.hybrid:
                knobs.append(f"hybrid({self.hybrid_low:g}"
                             f"..{self.hybrid_high:g})")
            if self.speculate:
                knobs.append(f"spec(margin={self.spec_margin:g})")
            adapt = " adapt=" + "+".join(knobs)
        return (f"{self.protocol} clients={self.n_clients} "
                f"items={self.n_items} pr={self.read_probability:g} "
                f"latency={self.network_latency:g} "
                f"txns={self.total_transactions}{sharding}{popn}{adapt}")
