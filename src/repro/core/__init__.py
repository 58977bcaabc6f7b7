"""The public high-level API: configure, run, replicate, compare."""

from repro._lazy import lazy_exports

__all__ = [
    "Fidelity",
    "ReplicatedResult",
    "SimulationConfig",
    "SimulationResult",
    "WorkedExampleResult",
    "compare_protocols",
    "run_replications",
    "run_simulation",
    "run_worked_example",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": ("Fidelity", "SimulationConfig"),
    "repro.core.runner": ("ReplicatedResult", "SimulationResult",
                          "compare_protocols", "run_replications",
                          "run_simulation"),
    "repro.core.worked_example": ("WorkedExampleResult",
                                  "run_worked_example"),
})
