"""Network substrate: sites, message transport, and Table 2 environments.

The paper's model (§4): a single server and many clients joined by a
high-speed network in which the *network latency* — propagation plus
switching delay — is the same between any two sites and in both directions,
and the transmission delay is negligible. The transport here implements
exactly that, plus two generalisations used by the ablation benches:
regions with intra- and inter-region latencies and a finite data rate (so
the "message size does not matter" assumption can be tested rather than
assumed).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClientCrash",
    "Envelope",
    "FaultInjector",
    "FaultSpec",
    "Network",
    "NetworkEnvironment",
    "NetworkStats",
    "PartitionWindow",
    "Reliable",
    "ReliableAck",
    "ReliableLink",
    "Site",
    "TABLE2_ENVIRONMENTS",
    "UniformTopology",
    "environment_for_latency",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.network.faults": ("ClientCrash", "FaultInjector", "FaultSpec",
                             "PartitionWindow"),
    "repro.network.message": ("Envelope",),
    "repro.network.presets": ("NetworkEnvironment", "TABLE2_ENVIRONMENTS",
                              "environment_for_latency"),
    "repro.network.reliable": ("Reliable", "ReliableAck", "ReliableLink"),
    "repro.network.topology": ("Site", "UniformTopology"),
    "repro.network.transport": ("Network", "NetworkStats"),
})
