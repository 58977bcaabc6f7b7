"""LiveTransport over real loopback TCP, two endpoints in one process.

Each endpoint is a (kernel, transport) pair; their run loops co-run as
coroutines on one asyncio loop, exchanging frames over genuine sockets.
"""

import asyncio

import pytest

from repro.live.clock import LiveKernel
from repro.live.transport import WIRE_DATA, LiveTransport, TransportError
from repro.network.topology import Site, UniformTopology
from repro.obs.tracer import Tracer
from repro.protocols.messages import LockRequest, TxnDone
from repro.locking.modes import LockMode


class RecordingSite(Site):
    """A site that just remembers what it received (and when)."""

    def __init__(self, site_id, kernel):
        super().__init__(site_id)
        self.kernel = kernel
        self.received = []

    def receive(self, envelope):
        self.received.append((envelope, self.kernel.now))


def free_port_map(site_ids):
    import socket

    ports = {}
    sockets = []
    for site_id in site_ids:
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        ports[site_id] = sock.getsockname()[1]
        sockets.append(sock)
    for sock in sockets:
        sock.close()
    return ports


def make_endpoint(site_id, port_map, latency=2.0, time_scale=0.001):
    kernel = LiveKernel(time_scale=time_scale)
    transport = LiveTransport(kernel, UniformTopology(latency), site_id,
                              port_map)
    site = RecordingSite(site_id, kernel)
    transport.add_site(site)
    return kernel, transport, site


def test_frames_cross_real_sockets_with_shaped_latency():
    port_map = free_port_map([0, 1])
    k0, t0, s0 = make_endpoint(0, port_map)
    k1, t1, s1 = make_endpoint(1, port_map)

    async def scenario():
        await t0.start()
        await t1.start()
        await asyncio.gather(t0.connect_to_peers(), t1.connect_to_peers())

        payload = LockRequest(txn_id=7, item_id=3, mode=LockMode.WRITE,
                              client_id=1)
        envelope = t1.send(1, 0, payload, size=1.0)
        assert envelope.deliver_time == pytest.approx(2.0)

        runs = asyncio.gather(k0.run(), k1.run())
        while not s0.received:
            await asyncio.sleep(0.005)
        k0.stop()
        k1.stop()
        await runs
        await t0.close()
        await t1.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=20.0))

    (received, at_time), = s0.received
    assert received.payload == LockRequest(txn_id=7, item_id=3,
                                           mode=LockMode.WRITE, client_id=1)
    assert received.src == 1 and received.dst == 0
    # shaped: the frame could not have landed before one latency elapsed
    assert at_time >= 2.0
    assert t1.stats.messages_sent == 1
    assert t1.stats.per_type == {"LockRequest": 1}


def test_per_link_fifo_is_preserved():
    port_map = free_port_map([0, 1])
    k0, t0, s0 = make_endpoint(0, port_map, latency=3.0)
    k1, t1, s1 = make_endpoint(1, port_map, latency=3.0)

    async def scenario():
        await t0.start()
        await t1.start()
        await asyncio.gather(t0.connect_to_peers(), t1.connect_to_peers())
        for index in range(10):
            t1.send(1, 0, TxnDone(txn_id=index, committed=True))
        runs = asyncio.gather(k0.run(), k1.run())
        while len(s0.received) < 10:
            await asyncio.sleep(0.005)
        k0.stop()
        k1.stop()
        await runs
        await t0.close()
        await t1.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=20.0))
    order = [env.payload.txn_id for env, _ in s0.received]
    assert order == list(range(10))


def test_control_frames_bypass_shaping_and_stats():
    port_map = free_port_map([0, 1])
    k0, t0, s0 = make_endpoint(0, port_map, latency=1000.0)
    k1, t1, s1 = make_endpoint(1, port_map, latency=1000.0)
    controls = []
    t0.control_handler = lambda name, sender, data: controls.append(
        (name, sender, data))

    async def scenario():
        await t0.start()
        await t1.start()
        await asyncio.gather(t0.connect_to_peers(), t1.connect_to_peers())
        t1.send_control(0, "hello", {"site": 1})
        while not controls:
            await asyncio.sleep(0.005)
        await t0.close()
        await t1.close()

    # with latency=1000 units a *shaped* message would take ~1s; control
    # frames must arrive orders of magnitude faster
    asyncio.run(asyncio.wait_for(scenario(), timeout=5.0))
    assert controls == [("hello", 1, {"site": 1})]
    assert t1.stats.messages_sent == 0


def test_send_to_unknown_peer_raises_at_ship_time():
    port_map = free_port_map([0, 1])
    k1, t1, s1 = make_endpoint(1, port_map, latency=0.5)

    async def scenario():
        t1.send(1, 0, TxnDone(txn_id=1, committed=True))  # never connected
        with pytest.raises(TransportError, match="no connection"):
            await k1.run(until=2.0)
        await t1.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))


def test_a_shaped_send_is_in_flight_until_its_delivery():
    port_map = free_port_map([0, 1])
    k0, t0, s0 = make_endpoint(0, port_map)
    k1, t1, s1 = make_endpoint(1, port_map)
    tracer = k1.tracer = Tracer(k1)

    def delivered():
        return [event for event in tracer.events if event[1] == "msg.deliver"]

    async def scenario():
        await t0.start()
        await t1.start()
        await asyncio.gather(t0.connect_to_peers(), t1.connect_to_peers())
        t1.send(1, 0, TxnDone(txn_id=1, committed=True))
        # sent, not yet at its shaped delivery time (2.0 units out)
        assert tracer.in_flight_total == 1
        assert delivered() == []
        await k1.run(until=3.0)
        assert tracer.in_flight_total == 0
        (row,) = delivered()
        assert row[0] >= 2.0
        await t0.close()
        await t1.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=20.0))


def test_data_frame_for_a_site_not_local_is_rejected():
    k1, t1, s1 = make_endpoint(1, {0: 0, 1: 0})
    payload = TxnDone(txn_id=1, committed=True)
    for dst in (0, 5):  # a peer's site, and a site nobody has
        with pytest.raises(TransportError, match="arrived at endpoint 1"):
            t1._on_frame((WIRE_DATA, 1, dst, 1.0, 0.0, payload))
