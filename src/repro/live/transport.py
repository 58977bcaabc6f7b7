"""Full-mesh asyncio TCP transport with userspace latency shaping.

One :class:`LiveTransport` serves one endpoint process. It *is* the
simulator's :class:`~repro.network.transport.Network` — same ``send``,
same stats, same tracer calls, same delivery callback — with the sites
of the other processes standing in the site table as peer proxies:

* every endpoint listens on its own loopback port and dials a connection
  to every peer (g-2PL forwards data *client → client*, so the mesh is
  full, not a star around the server);
* outgoing payloads are **shaped at the sender**: ``Network.send`` holds
  the envelope in the kernel's heap for the topology's one-way latency
  (scaled to wall time, FIFO-clamped per link), and its delivery to a
  peer proxy encodes and writes the frame. Loopback TCP adds its real
  (micro-second scale) cost on top — that residue is exactly what the
  sim-vs-live calibration measures;
* incoming frames are decoded off the reader task and injected into the
  kernel, which dispatches them to the local site's ``receive`` exactly
  like the simulator's delivery callbacks.

Control frames (hello/start/done/shutdown) bypass shaping: they are
harness coordination, not protocol traffic, and are never counted in the
traffic statistics.
"""

import asyncio
import struct

from repro.live.codec import MAX_FRAME_SIZE, CodecError, decode, encode_frame
from repro.network.message import Envelope
from repro.network.topology import Site
from repro.network.transport import Network

_HEADER = struct.Struct(">I")

#: frame discriminators (first element of every decoded frame tuple)
WIRE_DATA = 0
WIRE_CONTROL = 1

#: payload kinds a transaction *blocks* on — the only frames whose
#: receiver-side lateness (actual arrival vs the sender-shaped delivery
#: time) is response time the transaction actually experienced. Frames a
#: transaction never waits for (releases, returns, retire notices) carry
#: real lateness too, but charging it would book time outside the
#: transaction's critical path and break the span-sum invariant.
OVERHEAD_CHARGED_KINDS = frozenset({
    "LockRequest", "DataShip", "GShip", "AbortNotice",
    "PrepareRequest", "PrepareVote", "CommitDecision", "DecisionAck",
    "ChainCommit", "ChainCommitAck", "CommitAck",
})


class TransportError(RuntimeError):
    """A live-transport invariant was violated (unknown peer, bad frame)."""


class _Peer(Site):
    """A site living in another endpoint process: delivering an envelope
    to it writes the envelope's frame to that endpoint's socket."""

    def receive(self, envelope):
        self.network._write_frame(envelope.dst, encode_frame((
            WIRE_DATA, envelope.src, envelope.dst, envelope.size,
            envelope.send_time, envelope.payload)))


class LiveTransport(Network):
    """TCP transport for the sites living in this endpoint process.

    Every other endpoint in ``port_map`` is a :class:`_Peer` in the site
    table, so a data frame takes :meth:`Network.send`'s own path —
    shaped onto the kernel's heap, delivered by ``Network._deliver`` at
    the shaped time — and only then becomes bytes on a socket.
    """

    def __init__(self, kernel, topology, site_id, port_map,
                 host="127.0.0.1"):
        super().__init__(kernel, topology)
        self.site_id = site_id
        self.host = host
        #: site_id -> TCP port, for every endpoint in the run (incl. us)
        self.port_map = dict(port_map)
        #: called as ``control_handler(name, sender_site_id, data)`` from
        #: the reader task — *outside* the kernel; handlers must only
        #: touch asyncio primitives or call ``kernel.inject``.
        self.control_handler = None
        self._writers = {}       # site_id -> StreamWriter (dialled by us)
        self._server = None
        self._reader_tasks = set()
        self._closed = False
        for peer in self.port_map:
            if peer != site_id:
                self.add_site(_Peer(peer))

    # -- wire ----------------------------------------------------------------

    def _write_frame(self, dst, frame):
        writer = self._writers.get(dst)
        if writer is None:
            if self._closed:
                return  # run is shutting down; late shaped sends are moot
            raise TransportError(
                f"site {self.site_id} has no connection to site {dst}")
        writer.write(frame)

    def send_control(self, dst, name, data=None):
        """Unshaped, uncounted control-plane frame to a peer endpoint."""
        frame = encode_frame(
            (WIRE_CONTROL, name, self.site_id, data if data is not None else {}))
        writer = self._writers.get(dst)
        if writer is None:
            raise TransportError(
                f"site {self.site_id} has no connection to site {dst}")
        writer.write(frame)

    def broadcast_control(self, name, data=None):
        for peer in self._writers:
            self.send_control(peer, name, data)

    # -- lifecycle ------------------------------------------------------------

    async def start(self):
        """Begin listening on this endpoint's port."""
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host,
            port=self.port_map[self.site_id])

    async def connect_to_peers(self, peer_ids=None, deadline=15.0):
        """Dial every peer (with retries — peers may not be up yet)."""
        if peer_ids is None:
            peer_ids = [sid for sid in self.port_map if sid != self.site_id]
        loop = asyncio.get_running_loop()
        give_up = loop.time() + deadline
        for peer in peer_ids:
            port = self.port_map[peer]
            while True:
                try:
                    _, writer = await asyncio.open_connection(
                        self.host, port)
                    break
                except OSError:
                    if loop.time() >= give_up:
                        raise TransportError(
                            f"site {self.site_id} could not reach site "
                            f"{peer} on {self.host}:{port} within "
                            f"{deadline:.0f}s")
                    await asyncio.sleep(0.05)
            self._writers[peer] = writer

    def _on_connection(self, reader, writer):
        task = asyncio.ensure_future(self._read_loop(reader))
        self._reader_tasks.add(task)
        task.add_done_callback(self._reader_tasks.discard)

    async def _read_loop(self, reader):
        try:
            while True:
                try:
                    header = await reader.readexactly(_HEADER.size)
                except asyncio.IncompleteReadError:
                    return  # peer closed cleanly
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME_SIZE:
                    raise CodecError(
                        f"frame length {length} exceeds MAX_FRAME_SIZE")
                body = await reader.readexactly(length)
                self._on_frame(decode(body))
        except (ConnectionResetError, BrokenPipeError):
            return
        except asyncio.CancelledError:
            raise

    def _on_frame(self, frame):
        if not isinstance(frame, tuple) or not frame:
            raise TransportError(f"malformed frame {frame!r}")
        kind = frame[0]
        if kind == WIRE_DATA:
            _, src, dst, size, send_time, payload = frame
            site = self._sites.get(dst)
            if site is None or isinstance(site, _Peer):
                raise TransportError(
                    f"frame for site {dst} arrived at endpoint "
                    f"{self.site_id}")
            envelope = Envelope(src, dst, payload, size, send_time)
            now = self.sim.wall_now()
            envelope.deliver_time = now
            tracer = self.sim.tracer
            if tracer is not None:
                # Live process overhead: the sender shaped this frame to
                # land at send_time + latency (the simulator's prediction);
                # whatever arrives later than that is codec + event-loop +
                # kernel-socket time. Charge it to the transaction blocked
                # on the frame — the receiving endpoint's tracer carries it
                # into the cross-process merge as a partial record.
                txn_id = getattr(payload, "txn_id", None)
                if (txn_id is not None
                        and type(payload).__name__ in OVERHEAD_CHARGED_KINDS):
                    excess = (now - send_time
                              - self.topology.latency(src, dst))
                    if excess > 0.0:
                        tracer.overhead_charge(txn_id, excess)
            self.sim.inject(site.receive, envelope)
        elif kind == WIRE_CONTROL:
            _, name, sender, data = frame
            handler = self.control_handler
            if handler is None:
                raise TransportError(
                    f"control frame {name!r} with no handler installed")
            handler(name, sender, data)
        else:
            raise TransportError(f"unknown frame kind {kind!r}")

    async def close(self):
        self._closed = True
        for writer in self._writers.values():
            try:
                writer.close()
            except Exception:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._reader_tasks):
            task.cancel()
        for task in list(self._reader_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
