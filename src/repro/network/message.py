"""The message envelope carried by the transport."""


class Envelope:
    """A payload in flight between two sites.

    ``size`` is in abstract data units; with the default infinite bandwidth
    it only feeds the traffic statistics, with a finite bandwidth it adds
    ``size / bandwidth`` of transmission time on top of the propagation
    latency (§2 of the paper: the two delay components).

    Slotted, hand-rolled class rather than a dataclass: one envelope is
    allocated per send, which makes construction cost and per-instance
    memory part of the kernel's hot path. ``envelope_id`` is ``None``
    until a tracer numbers the message (the order it first saw it in, so
    a trace does not depend on what else ran in the process).
    """

    __slots__ = ("src", "dst", "payload", "size", "send_time",
                 "deliver_time", "envelope_id")

    def __init__(self, src, dst, payload, size=1.0, send_time=0.0,
                 deliver_time=0.0, envelope_id=None):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.envelope_id = envelope_id

    def __repr__(self):
        return (f"Envelope(src={self.src!r}, dst={self.dst!r}, "
                f"payload={self.payload!r}, size={self.size!r}, "
                f"send_time={self.send_time!r}, "
                f"deliver_time={self.deliver_time!r}, "
                f"envelope_id={self.envelope_id!r})")
