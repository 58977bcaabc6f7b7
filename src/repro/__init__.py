"""repro — reproduction of Banerjee & Chrysanthis, "Network Latency
Optimizations in Distributed Database Systems" (ICDE 1998).

The package implements, from scratch, the complete system the paper
evaluates: a discrete-event simulator of a data-shipping client-server
database over a uniform-latency network, the server-based strict 2PL
baseline (s-2PL), and the group 2PL protocol (g-2PL: lock grouping via
forward lists and collection windows, precedence-graph deadlock avoidance,
and the MR1W multiple-readers/one-writer optimization), plus the paper's
future-work extensions (read-only forward-list expansion, forward-list
ordering disciplines, caching 2PL).

Quickstart::

    from repro import SimulationConfig, compare_protocols

    config = SimulationConfig(n_clients=50, read_probability=0.25,
                              network_latency=500.0,
                              total_transactions=1000,
                              warmup_transactions=100)
    results = compare_protocols(config, ("s2pl", "g2pl"), replications=2)
    for name, result in results.items():
        print(name, result.summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CellError",
    "Fidelity",
    "NetworkEnvironment",
    "ReplicatedResult",
    "SimulationCell",
    "SimulationConfig",
    "SimulationResult",
    "TABLE2_ENVIRONMENTS",
    "available_protocols",
    "compare_protocols",
    "improvement_percentage",
    "replication_seed",
    "resolve_jobs",
    "run_cells",
    "run_replications",
    "run_simulation",
    "run_worked_example",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": ("Fidelity", "SimulationConfig"),
    "repro.core.parallel": ("CellError", "SimulationCell", "replication_seed",
                            "resolve_jobs", "run_cells"),
    "repro.core.runner": ("ReplicatedResult", "SimulationResult",
                          "compare_protocols", "improvement_percentage",
                          "run_replications", "run_simulation"),
    "repro.network.presets": ("NetworkEnvironment", "TABLE2_ENVIRONMENTS"),
    "repro.obs.rounds": ("run_worked_example",),
    "repro.protocols.registry": ("available_protocols",),
})
