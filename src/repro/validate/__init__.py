"""Correctness validation: execution histories and serializability checking.

Both protocols claim to produce serializable, strict executions. The
simulator records every committed access with the exact data-item version it
observed or produced; the checker reconstructs the conflict graph from those
versions and asserts acyclicity, independently of any protocol internals.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AccessRecord",
    "HistoryRecorder",
    "SerializabilityReport",
    "StrictnessReport",
    "build_conflict_graph",
    "check_history",
    "check_strictness",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.validate.history": ("AccessRecord", "HistoryRecorder"),
    "repro.validate.serializability": ("SerializabilityReport",
                                       "build_conflict_graph",
                                       "check_history"),
    "repro.validate.strictness": ("StrictnessReport", "check_strictness"),
})
