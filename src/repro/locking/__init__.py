"""Lock management substrate: modes, the lock table, and the wait-for graph.

Implements the strict two-phase locking machinery of the s-2PL baseline
(Eswaran et al. [14]): shared/exclusive locks with FIFO queuing at the data
server, plus the wait-for-graph deadlock detector that the paper runs
whenever a lock cannot be granted.
"""

from repro._lazy import lazy_exports

__all__ = ["LockMode", "LockRequestState", "LockTable", "WaitForGraph"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.locking.lock_table": ("LockRequestState", "LockTable"),
    "repro.locking.modes": ("LockMode",),
    "repro.locking.waitfor": ("WaitForGraph",),
})
