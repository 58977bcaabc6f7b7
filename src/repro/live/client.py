"""A live client endpoint process.

Runs one protocol client site over real TCP: dials the full mesh, says
hello to the server, pins its kernel to the broadcast clock origin, then
replays its client's schedule in wall-clock time. After its own
transactions finish it reports done but keeps serving the kernel — a
g-2PL client may still have to forward held items to other clients'
transactions — until the server broadcasts shutdown.

Invoked by the harness as ``python -m repro.live.client CONFIG_JSON``.
"""

import asyncio
import sys

from repro.live.endpoint import (
    DONE,
    HANDSHAKE_TIMEOUT,
    HELLO,
    SHUTDOWN,
    START,
    endpoint_main,
)
from repro.protocols.base import SERVER_SITE_ID


async def client(endpoint):
    kernel, transport = endpoint.kernel, endpoint.transport
    started, shutdown = asyncio.Event(), asyncio.Event()
    origin_box = {}

    def handler(name, sender, data):
        if name == START:
            origin_box["origin"] = data["origin"]
            started.set()
        elif name == SHUTDOWN:
            shutdown.set()
            kernel.stop()
        else:
            raise RuntimeError(f"client got control frame {name!r}")

    transport.control_handler = handler
    await endpoint.up()
    transport.send_control(SERVER_SITE_ID, HELLO, {"site": endpoint.site_id})
    await asyncio.wait_for(started.wait(), timeout=HANDSHAKE_TIMEOUT)
    kernel.set_origin(origin_box["origin"])

    # spawned by the assembly; its first step runs at sim time zero
    process = endpoint.assembly.drivers[endpoint.site_id].process
    errors = []

    def notify_done(*_):
        if not process.ok:
            errors.append(repr(process._exception))
            process.defused = True
        transport.send_control(SERVER_SITE_ID, DONE,
                               {"site": endpoint.site_id})

    process.add_callback(notify_done)
    deadline = (endpoint.lead + endpoint.horizon * endpoint.time_scale
                + endpoint.grace + 2 * HANDSHAKE_TIMEOUT)
    await asyncio.wait_for(kernel.run(), timeout=deadline)
    if errors:
        raise RuntimeError(
            f"client {endpoint.site_id} schedule failed: {errors[0]}")
    endpoint.write_results()
    await endpoint.down()


def main(argv=None):
    return endpoint_main(sys.argv[1:] if argv is None else argv, client)


if __name__ == "__main__":
    sys.exit(main())
