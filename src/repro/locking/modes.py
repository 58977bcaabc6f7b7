"""Lock modes and their compatibility."""

import enum


class LockMode(enum.Enum):
    """Shared (read) and exclusive (write) locks, as in the paper §3.1,
    and two-version 2PL's certify lock (:mod:`repro.locking.two_version`)."""

    READ = "read"
    WRITE = "write"
    CERTIFY = "certify"

    def __str__(self):
        return self.value
