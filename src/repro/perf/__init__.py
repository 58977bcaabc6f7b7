"""Continuous performance benchmarking (``repro.perf``).

Two jobs:

* :mod:`repro.perf.bench` — the micro/macro benchmark harness behind
  ``repro-experiment bench`` and ``scripts/bench.py``.  It runs a fixed
  set of simulation cells, measures wall time and events/sec, and writes
  a schema-versioned ``BENCH_kernel.json`` so every PR leaves a perf
  trajectory behind.
* :mod:`repro.perf.fingerprint` — canonical, bit-exact fingerprints of
  simulation results.  The bench harness embeds them so a perf run
  doubles as a determinism check, and the fast-path replay tests compare
  them against committed goldens.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCell",
    "bench_cells",
    "compare_benchmarks",
    "load_benchmark",
    "run_benchmarks",
    "write_benchmark",
    "result_fingerprint",
    "fingerprint_digest",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.bench": ("BENCH_SCHEMA_VERSION", "BenchCell", "bench_cells",
                         "compare_benchmarks", "load_benchmark",
                         "run_benchmarks", "write_benchmark"),
    "repro.perf.fingerprint": ("result_fingerprint", "fingerprint_digest"),
})
