"""Shared plumbing for live endpoint processes (server and clients).

An endpoint process is configured by a single JSON file (written by the
harness) naming its role, site id, the run's :class:`~repro.live
.scenario.ScenarioSpec`, the port map, and where to write results. Both
endpoint mains follow the same lifecycle::

    listen -> dial the full mesh -> handshake (hello/start) ->
    run the kernel -> handshake (done/shutdown) -> write results

Control frames are the handshake; they are unshaped and never counted.
The ``start`` frame carries the absolute ``time.monotonic`` origin every
kernel pins simulation time zero to — CLOCK_MONOTONIC is machine-wide on
Linux, so all endpoints agree on ``now`` to within scheduling noise.
"""

import asyncio
import json

from repro.live.clock import LiveKernel
from repro.live.scenario import OutcomeSink, ScenarioSpec, build_stack
from repro.live.transport import LiveTransport
from repro.network.topology import UniformTopology
from repro.protocols.base import SERVER_SITE_ID

#: control-frame names of the run handshake
HELLO = "hello"
START = "start"
DONE = "done"
SHUTDOWN = "shutdown"

#: wall seconds budgeted for each handshake phase (mesh dial, hello/start,
#: done) by the endpoints and by the harness's run deadline
HANDSHAKE_TIMEOUT = 60.0


class EndpointConfig:
    """Parsed per-process configuration."""

    def __init__(self, data):
        self.role = data["role"]
        self.site_id = int(data["site_id"])
        self.spec = ScenarioSpec.from_dict(data["spec"])
        self.port_map = {int(site): port
                         for site, port in data["port_map"].items()}
        self.time_scale = float(data["time_scale"])
        self.result_path = data["result_path"]
        #: wall seconds between the start broadcast and sim time zero
        self.lead = float(data.get("lead", 1.0))
        #: wall seconds the server lingers after the last client is done,
        #: letting in-flight releases/returns land before shutdown
        self.grace = float(data.get("grace", 1.0))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))


class EndpointStack:
    """One process's kernel, transport, tracer, history, and sites."""

    def __init__(self, config):
        self.config = config
        spec = config.spec
        self.kernel = LiveKernel(time_scale=config.time_scale)
        self.transport = LiveTransport(
            self.kernel, UniformTopology(spec.latency), config.site_id,
            config.port_map)
        self.tracer, self.history, server, clients = build_stack(
            spec, self.kernel, self.transport)
        self.sink = OutcomeSink()
        # Only the site living in this process is registered; the rest of
        # the mesh are the transport's peer proxies, reached by site id
        # exactly like the simulator reaches them over the in-memory
        # network.
        self.site = self.transport.add_site(
            server if config.site_id == SERVER_SITE_ID
            else clients[config.site_id])
        self.probes = None
        if spec.probe_interval is not None:
            from repro.obs.probes import ProbeSampler, default_sources

            # Same gauge set as the simulator's runner, sampled on this
            # endpoint's kernel heap; the first tick lands one interval
            # after sim time zero. Gauges are read-only, so probing never
            # perturbs protocol traffic.
            self.probes = ProbeSampler(
                self.kernel, self.tracer, spec.probe_interval,
                default_sources(self.kernel, self.transport, self.site,
                                self.tracer)).start()

    def payload(self):
        from repro.live.results import endpoint_payload

        return endpoint_payload(
            self.config.role, self.config.site_id, self.config.spec,
            self.kernel, self.transport, self.tracer, self.history,
            self.sink)

    def write_results(self):
        from repro.live.results import write_payload

        write_payload(self.config.result_path, self.payload())

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
    config = EndpointConfig.load(argv[0])
    stack = EndpointStack(config)
    asyncio.run(runner(config, stack))
    return 0
