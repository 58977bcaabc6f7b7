"""Shared plumbing for live endpoint processes (server and clients).

An endpoint process is configured by a single JSON file (written by the
harness) naming its role, site id, the run's :class:`~repro.live
.scenario.ScenarioSpec` and schedule, the port map, and where to write
results. Both endpoint mains follow the same lifecycle::

    listen -> dial the full mesh -> handshake (hello/start) ->
    run the kernel -> handshake (done/shutdown) -> write results

Control frames are the handshake; they are unshaped and never counted.
The ``start`` frame carries the absolute ``time.monotonic`` origin every
kernel pins simulation time zero to — CLOCK_MONOTONIC is machine-wide on
Linux, so all endpoints agree on ``now`` to within scheduling noise.
"""

import asyncio
import json

from repro.core.runner import assemble
from repro.live.clock import LiveKernel
from repro.live.scenario import ScenarioSpec, horizon, schedule_from_json
from repro.live.transport import LiveTransport
from repro.network.topology import UniformTopology

#: control-frame names of the run handshake
HELLO = "hello"
START = "start"
DONE = "done"
SHUTDOWN = "shutdown"

#: wall seconds budgeted for each handshake phase (mesh dial, hello/start,
#: done) by the endpoints and by the harness's run deadline
HANDSHAKE_TIMEOUT = 60.0


class Endpoint:
    """One process's configuration and its assembled site.

    The run is wired by :func:`repro.core.runner.assemble` on this
    process's :class:`LiveKernel` and :class:`LiveTransport`, hosting
    only ``site_id``: the rest of the mesh are the transport's peer
    proxies, reached by site id exactly like the simulator reaches them
    over the in-memory network.
    """

    def __init__(self, data):
        self.role = data["role"]
        self.site_id = int(data["site_id"])
        self.spec = ScenarioSpec.from_dict(data["spec"])
        schedule = schedule_from_json(data["schedule"])
        self.horizon = horizon(schedule)
        self.time_scale = float(data["time_scale"])
        self.result_path = data["result_path"]
        #: wall seconds between the start broadcast and sim time zero
        self.lead = float(data.get("lead", 1.0))
        #: wall seconds the server lingers after the last client is done,
        #: letting in-flight releases/returns land before shutdown
        self.grace = float(data.get("grace", 1.0))
        config = self.spec.config
        self.kernel = LiveKernel(time_scale=self.time_scale)
        self.transport = LiveTransport(
            self.kernel, UniformTopology(config.network_latency),
            self.site_id, {int(site): port
                           for site, port in data["port_map"].items()})
        self.assembly = assemble(config, config.seed, sim=self.kernel,
                                 network=self.transport,
                                 local_site=self.site_id, schedule=schedule)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def write_results(self):
        from repro.live.results import endpoint_payload, write_payload

        write_payload(self.result_path, endpoint_payload(self))

    async def up(self):
        """Listen, then dial every peer in the port map."""
        await self.transport.start()
        await self.transport.connect_to_peers()

    async def down(self):
        await self.transport.close()


def endpoint_main(argv, runner):
    """Shared ``main`` for the endpoint console entry points."""
    if len(argv) != 1:
        raise SystemExit(
            f"usage: python -m repro.live.{runner.__name__} CONFIG_JSON")
    asyncio.run(runner(Endpoint.load(argv[0])))
    return 0
