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

from repro.workload.arrivals import (
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workload.driver import ClientDriver, RunControl
from repro.workload.generator import WorkloadGenerator, WorkloadParams
from repro.workload.population import (
    OpenArrivalGenerator,
    PopulationDriver,
    PopulationState,
    TransactionClass,
    ZipfItemSampler,
    default_classes,
    parse_txn_mix,
    split_population,
)
from repro.workload.spec import Operation, TransactionSpec

__all__ = [
    "BurstArrivals",
    "ClientDriver",
    "DiurnalArrivals",
    "OpenArrivalGenerator",
    "Operation",
    "PoissonArrivals",
    "PopulationDriver",
    "PopulationState",
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
