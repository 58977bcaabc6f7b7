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
dead); a crashing *sender* cancels its own retransmission timers, and its
restart bumps the ``incarnation`` so recycled sequence numbers are never
confused with pre-crash traffic.
"""

from dataclasses import dataclass

from repro.sim.timers import Timer

ACK_SIZE = 0.25


@dataclass(slots=True)
class Reliable:
    """Wrapper for a payload sent over the reliable channel."""

    inner: object
    seq: int
    incarnation: int = 0


@dataclass(slots=True)
class ReliableAck:
    """Receiver → sender: copy ``(incarnation, seq)`` arrived."""

    seq: int
    incarnation: int = 0


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
        self.incarnation = 0
        self._next_seq = 0
        self._pending = {}   # (dst, incarnation, seq) -> Timer
        self._seen = {}      # src -> set of (incarnation, seq)
        self.retransmissions = 0
        self.duplicates_suppressed = 0

    # -- sending -------------------------------------------------------------

    def send(self, dst, payload, size=1.0):
        """Send ``payload`` with retransmission until acked."""
        seq = self._next_seq
        self._next_seq += 1
        wrapped = Reliable(inner=payload, seq=seq,
                           incarnation=self.incarnation)
        self._transmit((dst, self.incarnation, seq), dst, wrapped, size, 0)

    def _raw_send(self, dst, payload, size):
        # Bypass the site's (reliable) send override: straight to the wire.
        self.site.network.send(self.site.site_id, dst, payload, size=size)

    def _transmit(self, key, dst, wrapped, size, attempt):
        if attempt > 0:
            if key not in self._pending:
                return  # acked (or sender crashed) while the timer was armed
            self.retransmissions += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.net_retransmit(self.site.site_id, dst)
        self._raw_send(dst, wrapped, size)
        delay = min(self.rto * self.backoff ** attempt, self.max_interval)
        self._pending[key] = Timer(self.sim, delay, self._transmit,
                                   key, dst, wrapped, size, attempt + 1)

    # -- receiving -----------------------------------------------------------

    def on_receive(self, envelope):
        """Process one delivery. Returns the payload the protocol should
        handle, or ``None`` when the envelope was channel bookkeeping (an
        ack) or a suppressed duplicate."""
        payload = envelope.payload
        if isinstance(payload, ReliableAck):
            timer = self._pending.pop(
                (envelope.src, payload.incarnation, payload.seq), None)
            if timer is not None:
                timer.cancel()
            return None
        if isinstance(payload, Reliable):
            # Ack every copy — the sender may have missed the previous ack.
            self._raw_send(envelope.src,
                           ReliableAck(seq=payload.seq,
                                       incarnation=payload.incarnation),
                           ACK_SIZE)
            seen = self._seen.setdefault(envelope.src, set())
            tag = (payload.incarnation, payload.seq)
            if tag in seen:
                self.duplicates_suppressed += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.net_dup_suppressed(self.site.site_id,
                                              envelope.src)
                return None
            seen.add(tag)
            return payload.inner
        return payload  # raw traffic passes through untouched

    # -- crash lifecycle -----------------------------------------------------

    def crash(self):
        """Fail-stop: forget all channel state; stop retransmitting."""
        for timer in self._pending.values():
            timer.cancel()
        self._pending.clear()
        self._seen.clear()

    def restart(self):
        """Come back with a fresh incarnation so recycled sequence numbers
        are distinguishable from pre-crash ones."""
        self.incarnation += 1
        self._next_seq = 0
