"""The live server endpoint process.

Runs the protocol's data server (site 0) over real TCP: waits for every
client to dial in and say hello, broadcasts the common clock origin,
serves the protocol until every client reports done, lingers for a grace
period so in-flight releases and returns land, then broadcasts shutdown
and writes its result payload.

Invoked by the harness as ``python -m repro.live.server CONFIG_JSON``.
"""

import asyncio
import sys
import time

from repro.live.endpoint import (
    DONE,
    HANDSHAKE_TIMEOUT,
    HELLO,
    SHUTDOWN,
    START,
    endpoint_main,
)


def _run_deadline(config):
    """Wall-clock budget for the scenario itself (generous: live pacing
    is deterministic, so overrunning this means a wedged endpoint)."""
    return (config.lead + config.spec.horizon() * config.time_scale
            + HANDSHAKE_TIMEOUT)


async def server(config, stack):
    kernel, transport = stack.kernel, stack.transport
    expected = set(config.spec.client_ids)
    hellos, dones = set(), set()
    all_hello, all_done = asyncio.Event(), asyncio.Event()

    def handler(name, sender, data):
        if name == HELLO:
            hellos.add(sender)
            if hellos >= expected:
                all_hello.set()
        elif name == DONE:
            dones.add(sender)
            if dones >= expected:
                all_done.set()
        else:
            raise RuntimeError(f"server got control frame {name!r}")

    transport.control_handler = handler
    await stack.up()
    await asyncio.wait_for(all_hello.wait(), timeout=HANDSHAKE_TIMEOUT)
    # Pin simulation time zero `lead` wall-seconds out, so every endpoint
    # has installed the origin and entered its run loop before t=0.
    origin = time.monotonic() + config.lead
    kernel.set_origin(origin)
    transport.broadcast_control(START, {"origin": origin})
    run_task = asyncio.ensure_future(kernel.run())
    try:
        await asyncio.wait_for(all_done.wait(), timeout=_run_deadline(config))
        # Grace: the last client's final release/return (and any late
        # g-2PL handoff) is still on the wire; let it land and be charged
        # before the tracers are frozen.
        await asyncio.sleep(config.grace)
    finally:
        transport.broadcast_control(SHUTDOWN, {})
        kernel.stop()
        await run_task
    stack.write_results()
    await stack.down()


def main(argv=None):
    return endpoint_main(sys.argv[1:] if argv is None else argv, server)


if __name__ == "__main__":
    sys.exit(main())
