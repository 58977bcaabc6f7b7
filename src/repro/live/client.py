"""A live client endpoint process.

Runs one protocol client site over real TCP: dials the full mesh, says
hello to the server, pins its kernel to the broadcast clock origin, then
drives the scenario's client loop in wall-clock time. After its own
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
from repro.live.scenario import client_loop
from repro.protocols.base import SERVER_SITE_ID


async def client(config, stack):
    kernel, transport = stack.kernel, stack.transport
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
    await stack.up()
    transport.send_control(SERVER_SITE_ID, HELLO, {"site": config.site_id})
    await asyncio.wait_for(started.wait(), timeout=HANDSHAKE_TIMEOUT)
    kernel.set_origin(origin_box["origin"])

    loop = client_loop(config.spec, kernel, stack.site, config.site_id,
                       stack.sink)
    process = kernel.spawn(loop)
    errors = []

    def notify_done(*_):
        if not process.ok:
            errors.append(repr(process._exception))
            process.defused = True
        transport.send_control(SERVER_SITE_ID, DONE,
                               {"site": config.site_id})

    process.add_callback(notify_done)
    deadline = (config.lead + config.spec.horizon() * config.time_scale
                + config.grace + 2 * HANDSHAKE_TIMEOUT)
    await asyncio.wait_for(kernel.run(), timeout=deadline)
    if errors:
        raise RuntimeError(
            f"client {config.site_id} scenario failed: {errors[0]}")
    stack.write_results()
    await stack.down()


def main(argv=None):
    return endpoint_main(sys.argv[1:] if argv is None else argv, client)


if __name__ == "__main__":
    sys.exit(main())
