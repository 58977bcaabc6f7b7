"""Lock management substrate: modes, the lock table, and the wait-for search.

Implements the strict two-phase locking machinery of the s-2PL baseline
(Eswaran et al. [14]): shared/exclusive locks with FIFO queuing at the data
server, plus the wait-for cycle search (:mod:`repro.locking.waitfor`) that
the paper runs whenever a lock cannot be granted; two-version 2PL runs
the same table with a certify lock (:mod:`repro.locking.two_version`).
"""

from repro._lazy import lazy_exports

__all__ = ["LockMode", "LockRequestState", "LockTable"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.locking.lock_table": ("LockRequestState", "LockTable"),
    "repro.locking.modes": ("LockMode",),
})
