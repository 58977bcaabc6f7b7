"""Workload generation: the transaction profile of Table 1.

All clients are identical, run one transaction at a time (MPL 1), and draw
transactions with the same statistical profile: between ``min_ops`` and
``max_ops`` distinct hot items accessed sequentially, each access a read
with probability ``read_probability``, a per-operation think time and an
inter-transaction idle time both uniformly distributed.

Population runs (``config.population``) swap the closed-loop terminal
model for an open-arrival population state machine: see
:mod:`repro.workload.population` and :mod:`repro.workload.arrivals`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BurstArrivals",
    "ClientDriver",
    "DiurnalArrivals",
    "OpenArrivalGenerator",
    "Operation",
    "PoissonArrivals",
    "PopulationDriver",
    "PopulationState",
    "ReplayDriver",
    "RunControl",
    "TransactionClass",
    "TransactionSpec",
    "WorkloadGenerator",
    "WorkloadParams",
    "ZipfItemSampler",
    "default_classes",
    "make_arrivals",
    "parse_txn_mix",
    "split_population",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workload.arrivals": ("BurstArrivals", "DiurnalArrivals",
                                "PoissonArrivals", "make_arrivals"),
    "repro.workload.driver": ("ClientDriver", "ReplayDriver", "RunControl"),
    "repro.workload.generator": ("WorkloadGenerator", "WorkloadParams"),
    "repro.workload.population": ("OpenArrivalGenerator", "PopulationDriver",
                                  "PopulationState", "TransactionClass",
                                  "ZipfItemSampler", "default_classes",
                                  "parse_txn_mix", "split_population"),
    "repro.workload.spec": ("Operation", "TransactionSpec"),
})
