"""Deterministic, seeded fault injection for the network layer.

The paper assumes a perfect network; real WANs lose, duplicate, and delay
messages, and client sites fail. This module adds those behaviours as a
*replayable* layer on :meth:`Network.send`: every decision (drop? duplicate?
how much extra jitter?) is drawn from named :class:`~repro.sim.rng.RandomStreams`
derived from the run seed, so a (seed, fault spec) pair always produces the
same trajectory — faulted runs remain bit-identical across process counts
and reruns, exactly like fault-free ones.

Fault classes:

* **loss** — each scheduled delivery is independently dropped with
  probability ``message_loss``.
* **duplication** — with probability ``duplicate_probability`` a second
  copy of the message is scheduled (itself subject to loss and jitter).
* **extra jitter** — each delivered copy is delayed by an extra
  U(0, ``extra_jitter``); the transport's per-link FIFO clamp still keeps
  same-pair deliveries in send order (link serialisation).
* **partitions** — during a :class:`PartitionWindow`, messages to or from
  the listed sites are dropped at send time.
* **crashes** — a :class:`ClientCrash` fail-stops a client site over
  ``[at, restart_at)``; any message whose flight interval overlaps a crash
  window of its source or destination is dropped (in-flight traffic is
  severed in both directions). Crash windows are static, so the transport
  and the server-side failure detector agree by construction.

Protocol-level recovery (retry/ack channels, s-2PL lock sweeping, g-2PL
chain repair) lives with the protocols; this module only decides message
fates and answers ``is_crashed`` queries.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PartitionWindow:
    """Sites in ``sites`` are unreachable during ``[start, end)``."""

    start: float
    end: float
    sites: tuple = ()

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"partition window needs 0 <= start < end, got "
                f"[{self.start}, {self.end})")
        if not self.sites:
            raise ValueError("partition window isolates no sites")

    def severs(self, src, dst, now):
        if not self.start <= now < self.end:
            return False
        return src in self.sites or dst in self.sites


@dataclass(frozen=True)
class ClientCrash:
    """Fail-stop of ``client_id`` at ``at``; ``restart_at=None`` means the
    site never comes back within the run."""

    client_id: int
    at: float
    restart_at: float = None

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError(
                f"restart_at {self.restart_at} must follow crash at {self.at}")

    @property
    def down_until(self):
        return float("inf") if self.restart_at is None else self.restart_at


@dataclass(frozen=True)
class FaultSpec:
    """Everything the fault layer may do to one run.

    The spec is a frozen, picklable value object carried inside
    :class:`~repro.core.config.SimulationConfig`, so faulted sweeps ride the
    parallel execution engine unchanged and keep its bit-identical
    ``jobs=1`` / ``jobs=N`` guarantee.

    Recovery knobs default to ``None`` = derived from the network latency
    at run time (see :func:`derive_recovery_times`).
    """

    message_loss: float = 0.0
    duplicate_probability: float = 0.0
    extra_jitter: float = 0.0
    partitions: tuple = ()      # PartitionWindow, ...
    crashes: tuple = ()         # ClientCrash, ...
    retry_timeout: float = None       # reliable-channel RTO
    retry_backoff: float = 2.0        # exponential backoff factor
    max_retry_interval: float = None  # backoff cap
    chain_timeout: float = None       # g-2PL stalled-chain watchdog
    sweep_interval: float = None      # s-2PL crashed-client lock sweep

    def __post_init__(self):
        for name in ("message_loss", "duplicate_probability"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        if self.extra_jitter < 0:
            raise ValueError(f"negative extra_jitter {self.extra_jitter}")
        if self.retry_backoff < 1.0:
            raise ValueError(
                f"retry_backoff must be >= 1, got {self.retry_backoff}")
        for name in ("retry_timeout", "max_retry_interval", "chain_timeout",
                     "sweep_interval"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def perturbs_messages(self):
        return bool(self.message_loss or self.duplicate_probability
                    or self.extra_jitter or self.partitions or self.crashes)

    @classmethod
    def parse(cls, text):
        """Build a spec from the CLI syntax, e.g.::

            loss=0.05,dup=0.01,jitter=50,crash=3@10000:20000,part=5000:6000:1+2

        ``crash=CLIENT@AT[:RESTART]`` (no restart = down for good);
        ``part=START:END:SITE[+SITE...]``. Repeat ``crash=``/``part=`` for
        multiple windows.
        """
        if isinstance(text, cls):
            return text
        kwargs = {}
        crashes = []
        partitions = []
        for part in str(text).split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad fault clause {part!r} (need key=value)")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key == "loss":
                kwargs["message_loss"] = float(value)
            elif key == "dup":
                kwargs["duplicate_probability"] = float(value)
            elif key == "jitter":
                kwargs["extra_jitter"] = float(value)
            elif key == "crash":
                who, _, when = value.partition("@")
                if not when:
                    raise ValueError(
                        f"crash clause {value!r} needs CLIENT@AT[:RESTART]")
                times = when.split(":")
                crashes.append(ClientCrash(
                    client_id=int(who), at=float(times[0]),
                    restart_at=float(times[1]) if len(times) > 1 else None))
            elif key == "part":
                fields = value.split(":")
                if len(fields) != 3:
                    raise ValueError(
                        f"part clause {value!r} needs START:END:SITE[+SITE..]")
                partitions.append(PartitionWindow(
                    start=float(fields[0]), end=float(fields[1]),
                    sites=tuple(int(s) for s in fields[2].split("+"))))
            elif key in ("rto", "retry_timeout"):
                kwargs["retry_timeout"] = float(value)
            elif key in ("backoff", "retry_backoff"):
                kwargs["retry_backoff"] = float(value)
            elif key == "chain_timeout":
                kwargs["chain_timeout"] = float(value)
            elif key == "sweep_interval":
                kwargs["sweep_interval"] = float(value)
            else:
                raise ValueError(f"unknown fault key {key!r}")
        return cls(crashes=tuple(crashes), partitions=tuple(partitions),
                   **kwargs)


def derive_recovery_times(spec, network_latency):
    """Resolve the spec's ``None`` recovery knobs against the run's latency.

    Returns ``(rto, max_retry_interval, chain_timeout, sweep_interval)``.
    The RTO must exceed a round trip plus worst-case jitter or every message
    would be retransmitted; the chain watchdog must outlast an entire
    forward-list traversal or it would fire on healthy chains (firing early
    is safe — repair only acts when a crashed member is found — but noisy).
    """
    round_trip = 2.0 * (network_latency + spec.extra_jitter)
    rto = spec.retry_timeout if spec.retry_timeout is not None \
        else 1.25 * round_trip + 1.0
    max_interval = spec.max_retry_interval \
        if spec.max_retry_interval is not None else 16.0 * rto
    chain_timeout = spec.chain_timeout if spec.chain_timeout is not None \
        else 10.0 * (round_trip + 10.0)
    sweep = spec.sweep_interval if spec.sweep_interval is not None \
        else 2.0 * rto
    return rto, max_interval, chain_timeout, sweep


@dataclass
class FaultStats:
    """What the injector actually did to one run."""

    delivered: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_crash: int = 0
    duplicated: int = 0

    def as_dict(self):
        return {f"faults_{key}": value
                for key, value in vars(self).items()}


class FaultInjector:
    """Per-run fault decision engine, consulted by :meth:`Network.send`.

    All randomness comes from streams of the supplied
    :class:`~repro.sim.rng.RandomStreams` namespace (the runner passes
    ``streams.spawn("faults")``), so fault decisions never perturb the
    workload's streams and vice versa.
    """

    def __init__(self, spec, streams):
        self.spec = spec
        # Bound C draws: ``Random.random`` is a C method, so binding it once
        # and calling it directly is the cheapest per-decision draw CPython
        # offers. (A Python-level buffering wrapper was benchmarked here and
        # *lost*: its random() costs more than the C call it batches. The
        # sequences are identical either way, so this is purely a speed
        # choice.)
        self._loss_random = streams.stream("loss").random
        self._dup_random = streams.stream("dup").random
        self._jitter_random = streams.stream("jitter").random
        self.stats = FaultStats()
        # site_id -> list of (at, down_until), static for the whole run.
        self._crash_windows = {}
        for crash in spec.crashes:
            self._crash_windows.setdefault(crash.client_id, []).append(
                (crash.at, crash.down_until))

    # -- send-time decisions -------------------------------------------------

    def plan_delays(self, src, dst, now):
        """Decide the fate of one send: a tuple of extra delays, one per
        copy to schedule (empty = the message vanishes). Loss and jitter are
        drawn independently per copy, so a duplicate may survive its
        original's loss and vice versa."""
        spec = self.spec
        stats = self.stats
        for window in spec.partitions:
            if window.severs(src, dst, now):
                stats.dropped_partition += 1
                return ()
        loss = spec.message_loss
        jitter = spec.extra_jitter
        dup_probability = spec.duplicate_probability
        if not (dup_probability and self._dup_random() < dup_probability):
            # The usual fate, one copy: same draws in the same order as
            # the loop below makes for its first copy.
            if loss and self._loss_random() < loss:
                stats.dropped_loss += 1
                return ()
            # jitter * random() is bit-identical to uniform(0, jitter):
            # Random.uniform computes 0.0 + (jitter - 0.0) * random(), and
            # both additions/subtractions with 0.0 are exact for jitter > 0.
            return (jitter * self._jitter_random() if jitter else 0.0,)
        stats.duplicated += 1
        delays = []
        for _ in range(2):
            if loss and self._loss_random() < loss:
                stats.dropped_loss += 1
                continue
            delays.append(jitter * self._jitter_random() if jitter else 0.0)
        return tuple(delays)

    def has_crash_window(self, src, dst):
        """True when either endpoint ever crashes — the only sends
        :meth:`severed_by_crash` can say yes to (windows are static)."""
        windows = self._crash_windows
        return src in windows or dst in windows

    def severed_by_crash(self, src, dst, send_time, deliver_time):
        """True if the flight interval overlaps a crash window of either
        endpoint: messages in flight when a site dies are lost, and a dead
        site neither sends nor receives."""
        for site in (src, dst):
            for at, until in self._crash_windows.get(site, ()):
                if deliver_time >= at and send_time < until:
                    return True
        return False

    # -- failure-detector API ------------------------------------------------

    def is_crashed(self, site_id, now):
        """The (perfect, window-based) failure detector the recovery logic
        consults; deterministic because crash windows are fixed up front."""
        for at, until in self._crash_windows.get(site_id, ()):
            if at <= now < until:
                return True
        return False

    def crashed_during(self, site_id, start, end):
        """True when ``site_id`` has a crash window overlapping
        ``(start, end)`` — a site that crashed *and restarted* inside the
        interval forgot everything it held, so recovery must treat it the
        same as one that is still down."""
        for at, until in self._crash_windows.get(site_id, ()):
            if at < end and until > start:
                return True
        return False

    def crash_sites(self):
        """Site ids with at least one crash window."""
        return set(self._crash_windows)
