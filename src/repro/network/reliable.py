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
        # Bypass the site's (reliable) send override: straight to the wire.
        self._wire_send = site.network.send
        self._first_delay = min(rto, self.max_interval)
        self.incarnation = 0
        self._next_seq = 0
        self._pending = {}   # (dst, incarnation, seq) -> cancel token
        self._seen = {}      # src -> set of (incarnation, seq)
        self.retransmissions = 0
        self.duplicates_suppressed = 0

    # -- sending -------------------------------------------------------------

    def send(self, dst, payload, size=1.0):
        """Send ``payload`` with retransmission until acked."""
        seq = self._next_seq
        self._next_seq = seq + 1
        incarnation = self.incarnation
        wrapped = Reliable(payload, seq, incarnation)
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
            seen = self._seen.get(src)
            if seen is None:
                seen = self._seen[src] = set()
            tag = (payload.incarnation, payload.seq)
            if tag in seen:
                self.duplicates_suppressed += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.net_dup_suppressed(self.site.site_id, src)
                return None
            seen.add(tag)
            return payload.inner
        return payload  # raw traffic passes through untouched

    # -- crash lifecycle -----------------------------------------------------

    def crash(self):
        """Fail-stop: forget all channel state; stop retransmitting."""
        for token in self._pending.values():
            token[0] = True
        self._pending.clear()
        self._seen.clear()

    def restart(self):
        """Come back with a fresh incarnation so recycled sequence numbers
        are distinguishable from pre-crash ones."""
        self.incarnation += 1
        self._next_seq = 0
