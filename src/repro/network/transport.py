"""Message transport: delivery scheduling and traffic accounting.

``Network.send`` is on the kernel's hot path (one call per protocol
message).  There is one send path and one delivery path, live mode's
too (:class:`repro.live.transport.LiveTransport` subclasses this class);
the tracer and the fault injector are read per call, so attaching either
at any point takes effect on the next message.  Three things keep the
path cheap:

* per-(src, dst) link latency is **memoised** in a flat dict — the
  topology object is consulted once per pair, not once per message —
  with the bandwidth term added per send exactly as the unmemoised
  arithmetic did;
* payload traffic classes are cached per payload *type* instead of
  re-deriving ``type(...).__name__`` per send; ``send`` reads that cache
  inline, and only reliable-channel wrappers (unwrapped per message)
  go through :func:`payload_kind`;
* with no bandwidth limit and no fault injector, ``send`` pushes the
  delivery onto the simulator's heap itself instead of calling
  ``Simulator.schedule_at``.  That method re-checks ``when >= now`` on
  every call; here the check is made once per link, when its latency is
  memoised (:meth:`Network._link_latency` rejects a negative or NaN
  latency), and the FIFO clamp only ever moves a delivery later, so no
  message can be scheduled in the past.

Under a fault injector the same method runs one loop over the copies
``FaultInjector.plan_delays`` decided on (a 0- or 1-tuple unless the
message was duplicated), traced or not.  What only a tracer reads is only
done for a tracer: the four fault-counter snapshots and the loops that
replay this send's drops and duplicates as events.  Crash windows are
static, so the injector is asked once per send whether either endpoint
has one at all, and ``severed_by_crash`` runs only for those links.

Every delivery is one heap entry, the same ``(when, seq, callback,
args)`` tuple whether ``send`` pushes it or ``schedule_at`` does (the
bandwidth-limited and faulted branches keep ``schedule_at``).  Its
timestamp is ``now + (deliver - now)``, the float the original relative
``call_later`` produced: scheduling at ``deliver`` directly could move
the heap timestamp by one ulp and reorder ties, and the golden
trajectories depend on it.
"""

from dataclasses import dataclass, field
from heapq import heappush

from repro.network.message import Envelope

#: payload class -> traffic-class name, or _WRAPPER for classes carrying
#: an ``inner`` payload (reliable-channel framing) that must be unwrapped
#: per message.  Keyed by type, so the cache is stable across runs.
_WRAPPER = object()
_KIND_BY_CLASS = {}


def payload_kind(payload):
    """Traffic class of a payload. Reliable-channel wrappers are
    transparent: the protocol mix matters, not the framing."""
    cls = payload.__class__
    kind = _KIND_BY_CLASS.get(cls)
    if kind is None:
        kind = _WRAPPER if hasattr(payload, "inner") else cls.__name__
        _KIND_BY_CLASS[cls] = kind
    if kind is _WRAPPER:
        inner = payload.inner
        return cls.__name__ if inner is None else inner.__class__.__name__
    return kind


@dataclass
class NetworkStats:
    """Aggregate traffic counters, used to verify the paper's round-count
    arithmetic (g-2PL exchanges fewer, larger messages than s-2PL)."""

    messages_sent: int = 0
    data_units_sent: float = 0.0
    per_type: dict = field(default_factory=dict)


class Network:
    """Delivers payloads between attached sites.

    Delivery delay = topology latency (propagation + switching) plus, when a
    finite ``bandwidth`` is configured, ``size / bandwidth`` of transmission
    time. The paper assumes infinite bandwidth (transmission negligible at
    gigabit rates); the finite setting exists for the A2 ablation.

    An optional :class:`~repro.network.faults.FaultInjector` makes the link
    lossy: it may drop, duplicate, or extra-delay each send, and severs
    messages whose flight interval overlaps a crash window of either
    endpoint.
    """

    def __init__(self, sim, topology, bandwidth=None, faults=None):
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
        self._sites = {}
        self.sim = sim
        self.topology = topology
        self.bandwidth = bandwidth
        self.faults = faults
        self.stats = NetworkStats()
        self._last_deliver = {}  # (src, dst) -> last scheduled delivery time
        #: (src, dst) -> topology latency, for every link sent on so far
        self.link_latency = {}

    def add_site(self, site):
        """Register a site; its ``site_id`` must be unique."""
        if site.site_id in self._sites:
            raise ValueError(f"duplicate site id {site.site_id!r}")
        self._sites[site.site_id] = site
        site.attach(self)
        return site

    def send(self, src, dst, payload, size=1.0):
        """Ship ``payload`` from ``src`` to ``dst``; returns the envelope.

        Messages between distinct pairs may overtake each other; messages on
        the same (src, dst) pair are always delivered in FIFO order: each
        computed delivery time (latency + transmission + any fault jitter)
        is clamped to the link's previous delivery time, serialising the
        link. Without the clamp a later small message would overtake an
        earlier large one whenever finite ``bandwidth`` (or jitter) makes
        the delay size-dependent.
        """
        sites = self._sites
        if dst not in sites:
            raise KeyError(f"unknown destination site {dst!r}")
        if src not in sites:
            raise KeyError(f"unknown source site {src!r}")
        sim = self.sim
        now = sim.now
        envelope = Envelope(src, dst, payload, size, now)
        stats = self.stats
        stats.messages_sent += 1
        stats.data_units_sent += size
        kind = _KIND_BY_CLASS.get(payload.__class__)
        if kind is None or kind is _WRAPPER:
            kind = payload_kind(payload)
        per_type = stats.per_type
        per_type[kind] = per_type.get(kind, 0) + 1
        latency_cache = self.link_latency
        key = (src, dst)
        base_delay = latency_cache.get(key)
        if base_delay is None:
            base_delay = latency_cache[key] = self._link_latency(src, dst)
        bandwidth = self.bandwidth
        if bandwidth is not None:
            base_delay = base_delay + size / bandwidth
        last = self._last_deliver
        tracer = sim.tracer
        faults = self.faults
        if faults is None:
            # The common case, straight-line: exactly one copy, nothing
            # to drop.  Same arithmetic as the loop below at extra == 0.0.
            deliver = now + base_delay
            prev = last.get(key)
            if prev is not None and prev > deliver:
                deliver = prev
            last[key] = deliver
            # now + (deliver - now): see the module docstring.
            if bandwidth is None:
                # deliver >= now + latency >= now: the per-link check in
                # _link_latency stands in for schedule_at's per-call one.
                heappush(sim._heap, (now + (deliver - now), next(sim._seq),
                                     self._deliver, (envelope,)))
            else:
                sim.schedule_at(now + (deliver - now), self._deliver,
                                envelope)
            envelope.deliver_time = deliver
            if tracer is not None:
                tracer.net_send(envelope, kind, 1)
            return envelope
        fstats = faults.stats
        if tracer is not None:
            # plan_delays counts its drops and duplicates eagerly; snapshot
            # first so the tracer can report this send's share afterwards.
            pre_loss = fstats.dropped_loss
            pre_partition = fstats.dropped_partition
            pre_dup = fstats.duplicated
            pre_delivered = fstats.delivered
        crash_prone = faults.has_crash_window(src, dst)
        first = None
        for extra in faults.plan_delays(src, dst, now):
            # Clamping against last[key] also orders our own copies: a
            # duplicate with less jitter must not overtake the first.
            deliver = now + base_delay + extra
            prev = last.get(key)
            if prev is not None and prev > deliver:
                deliver = prev
            if crash_prone and faults.severed_by_crash(src, dst, now,
                                                       deliver):
                fstats.dropped_crash += 1
                if tracer is not None:
                    tracer.net_dropped(envelope, "crash")
                continue
            fstats.delivered += 1
            last[key] = deliver
            sim.schedule_at(now + (deliver - now), self._deliver, envelope)
            if first is None:
                first = deliver
        # A dropped message still reports when it *would* have arrived.
        envelope.deliver_time = first if first is not None \
            else now + base_delay
        if tracer is not None:
            for _ in range(fstats.dropped_loss - pre_loss):
                tracer.net_dropped(envelope, "loss")
            for _ in range(fstats.dropped_partition - pre_partition):
                tracer.net_dropped(envelope, "partition")
            for _ in range(fstats.duplicated - pre_dup):
                tracer.net_duplicated(envelope)
            tracer.net_send(envelope, kind, fstats.delivered - pre_delivered)
        return envelope

    def _link_latency(self, src, dst):
        """The topology's latency for one link, asked once per link and
        checked once: no delivery on it can be scheduled in the past."""
        latency = self.topology.latency(src, dst)
        if not latency >= 0:
            raise ValueError(
                f"link {src!r} -> {dst!r} has latency {latency!r}; "
                f"a delivery cannot be scheduled before its send")
        return latency

    def _deliver(self, envelope):
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.net_delivered(envelope)
        self._sites[envelope.dst].receive(envelope)
