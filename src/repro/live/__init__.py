"""Live mode: the s-2PL / g-2PL state machines over real asyncio TCP.

The simulator answers *what the protocols do*; live mode answers whether
they do the same thing on an actual network. The same protocol code runs
unchanged, on the simulator's own kernel and send path, over:

* :mod:`repro.live.codec` — a length-prefixed binary wire codec for every
  payload in :mod:`repro.protocols.messages`;
* :mod:`repro.live.clock` — :class:`~repro.live.clock.LiveKernel`, the
  :class:`~repro.sim.engine.Simulator` with an asyncio run loop paced by
  the wall clock (same heap, same events, same processes);
* :mod:`repro.live.transport` — :class:`~repro.live.transport
  .LiveTransport`, the :class:`~repro.network.transport.Network` whose
  remote sites are peer proxies writing frames to a full TCP mesh
  (per-link latency shaped at the sender: Table 2 environments on
  loopback);
* :mod:`repro.live.server` / :mod:`repro.live.client` — endpoint
  processes, one OS process per site;
* :mod:`repro.live.harness` — launches 1 server + N clients, merges the
  per-endpoint histories and traces, validates them with
  :mod:`repro.validate`, and calibrates measured message rounds and
  response times against the simulator replaying the same schedule
  (:mod:`repro.live.scenario`: a run is one ``SimulationConfig``, wired
  by :func:`repro.core.runner.assemble` in every process).

Submodules are imported explicitly (``from repro.live import harness``)
rather than re-exported here: endpoint processes import this package on
every spawn, and the codec must not drag asyncio or the harness in.
"""
