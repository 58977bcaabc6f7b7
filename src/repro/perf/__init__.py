"""Trajectory identity (``repro.perf``).

* :mod:`repro.perf.fingerprint` — canonical, bit-exact fingerprints of
  simulation results.
* :mod:`repro.perf.goldens` — the golden cells whose committed
  fingerprints every change must reproduce byte for byte, serially and
  under the process pool (``tests/test_fastpath_replay.py``).

Wall time is measured elsewhere: ``ledger/run.py`` times end-to-end
workloads and attributes the time to layers.
"""

from repro._lazy import lazy_exports

__all__ = ["result_fingerprint", "fingerprint_digest"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.fingerprint": ("result_fingerprint", "fingerprint_digest"),
})
