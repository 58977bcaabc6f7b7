"""At-least-once delivery with receiver-side dedup (exactly-once effect).

Under fault injection every protocol send is wrapped in a :class:`Reliable`
envelope carrying a per-sender sequence number; the receiver acks every
copy it sees (acks travel raw — losing one only costs a retransmission) and
hands *one* copy to the protocol, deduplicating by
``(sender, incarnation, seq)``. Unacked messages are retransmitted with
exponential backoff, capped but never abandoned: between live sites the
channel is eventually reliable, so protocol handlers stay oblivious to loss
and duplication. Messages to a crashed site are retried until its restart
(or forever at the capped interval — the bounded cost of talking to the
dead); a crashing *sender* disarms its own retransmissions, and its
restart bumps the ``incarnation`` so recycled sequence numbers are never
confused with pre-crash traffic.

Dedup runs in bounded memory. ``seq`` counts a sender's messages to every
destination, so the seqs one receiver sees have gaps it could never
close; each message therefore also carries ``lane``, its number among
the messages its sender sent to that destination in that incarnation.
The receiver keeps, per ``(sender, incarnation)``, a :class:`_Window`:
the run of lanes it has received without a gap, plus the few that
arrived ahead of a message still in flight.

A reliable message costs what it sends: :meth:`ReliableLink.send` makes
the first transmission itself and arms one cancellable heap entry
(:meth:`Simulator.call_later_cancellable`) for the retransmission;
``_pending`` holds that entry's cancel token, which an ack or a crash
flips. :meth:`ReliableLink._transmit` is only the retransmission callback.
The backoff exponent stops growing once ``rto * backoff ** n`` has reached
``max_interval``: every delay below the cap is exactly that product, and
the power cannot overflow on a message retried for good.
"""

from dataclasses import dataclass

ACK_SIZE = 0.25


@dataclass(slots=True)
class Reliable:
    """Wrapper for a payload sent over the reliable channel."""

    inner: object
    seq: int
    incarnation: int = 0
    lane: int = 0   # its number among its sender's messages to its dst


@dataclass(slots=True)
class ReliableAck:
    """Receiver → sender: copy ``(incarnation, seq)`` arrived."""

    seq: int
    incarnation: int = 0


class _Window:
    """The lanes received from one ``(sender, incarnation)`` since this
    site last started: the run from ``start`` up to (not including)
    ``low``, and ``others``, which arrived apart from it. The run begins
    at the first lane to arrive and grows both ways as the lanes next to
    it land, so ``others`` holds only what arrived ahead of a message
    still in flight. A receiver that crashed while the sender kept going
    starts its run past 0, and takes the lanes it lost as new, as it
    would with no window at all."""

    __slots__ = ("start", "low", "others")

    def __init__(self, lane):
        self.start = self.low = lane
        self.others = set()


class ReliableLink:
    """One site's end of the reliable channel (both sender and receiver)."""

    def __init__(self, sim, site, rto, backoff=2.0, max_interval=None):
        if rto <= 0:
            raise ValueError(f"rto must be positive, got {rto}")
        self.sim = sim
        self.site = site
        self.rto = rto
        self.backoff = backoff
        self.max_interval = max_interval if max_interval is not None \
            else 16.0 * rto
        # Bypass the site's (reliable) send override: straight to the wire.
        self._wire_send = site.network.send
        self._first_delay = min(rto, self.max_interval)
        self.incarnation = 0
        self._next_seq = 0
        self._lanes = {}     # dst -> next lane
        self._pending = {}   # (dst, incarnation, seq) -> cancel token
        self._windows = {}   # (src, incarnation) -> _Window
        self.retransmissions = 0
        self.duplicates_suppressed = 0

    # -- sending -------------------------------------------------------------

    def send(self, dst, payload, size=1.0):
        """Send ``payload`` with retransmission until acked."""
        seq = self._next_seq
        self._next_seq = seq + 1
        lanes = self._lanes
        lane = lanes.get(dst, 0)
        lanes[dst] = lane + 1
        incarnation = self.incarnation
        wrapped = Reliable(payload, seq, incarnation, lane)
        key = (dst, incarnation, seq)
        self._wire_send(self.site.site_id, dst, wrapped, size)
        self._pending[key] = self.sim.call_later_cancellable(
            self._first_delay, self._transmit, key, dst, wrapped, size, 1)

    def _transmit(self, key, dst, wrapped, size, exponent):
        """Retransmit an unacked message and re-arm, backing off."""
        if key not in self._pending:
            return  # acked (or sender crashed) while the entry was armed
        self.retransmissions += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.net_retransmit(self.site.site_id, dst)
        self._wire_send(self.site.site_id, dst, wrapped, size)
        delay = self.rto * self.backoff ** exponent
        if delay < self.max_interval:
            exponent += 1
        else:
            delay = self.max_interval
        self._pending[key] = self.sim.call_later_cancellable(
            delay, self._transmit, key, dst, wrapped, size, exponent)

    # -- receiving -----------------------------------------------------------

    def on_receive(self, envelope):
        """Process one delivery. Returns the payload the protocol should
        handle, or ``None`` when the envelope was channel bookkeeping (an
        ack) or a suppressed duplicate."""
        payload = envelope.payload
        cls = payload.__class__
        if cls is ReliableAck:
            token = self._pending.pop(
                (envelope.src, payload.incarnation, payload.seq), None)
            if token is not None:
                token[0] = True
            return None
        if cls is Reliable:
            src = envelope.src
            # Ack every copy — the sender may have missed the previous ack.
            self._wire_send(self.site.site_id, src,
                            ReliableAck(payload.seq, payload.incarnation),
                            ACK_SIZE)
            key, lane = (src, payload.incarnation), payload.lane
            window = self._windows.get(key)
            if window is None:
                window = self._windows[key] = _Window(lane)
            low, others = window.low, window.others
            if lane == low:
                low += 1
                while low in others:
                    others.remove(low)
                    low += 1
                window.low = low
                return payload.inner
            start = window.start
            if start <= lane < low or lane in others:
                self.duplicates_suppressed += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.net_dup_suppressed(self.site.site_id, src)
                return None
            if lane == start - 1:
                while lane - 1 in others:
                    lane -= 1
                    others.remove(lane)
                window.start = lane
            else:
                others.add(lane)
            return payload.inner
        return payload  # raw traffic passes through untouched

    # -- crash lifecycle -----------------------------------------------------

    def crash(self):
        """Fail-stop: forget all channel state; stop retransmitting."""
        for token in self._pending.values():
            token[0] = True
        self._pending.clear()
        self._windows.clear()

    def restart(self):
        """Come back with a fresh incarnation so recycled sequence numbers
        are distinguishable from pre-crash ones."""
        self.incarnation += 1
        self._next_seq = 0
        self._lanes.clear()
