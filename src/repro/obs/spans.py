"""Per-transaction phase spans and the decomposition exactness invariant.

A traced transaction record carries the account declared in
:mod:`repro.obs.schema`: the additive components (propagation,
transmission and slack on the wire, and client_think), the phase
sub-accounts (commit_coord and abort_resolution, wire time re-attributed
from the components, and overhead, live-only time outside them) and the
residual lock_wait. This module regroups those into a disjoint **phase
view**: named spans that are non-overlapping by construction and sum
*exactly* to the measured response time::

    response = network + client_think + commit_coord + abort_resolution
             + overhead + lock_wait

where ``network = propagation + transmission + slack - commit_coord -
abort_resolution`` (generic wire time after carving out the flights that
belong to 2PC coordination and abort resolution).

The exactness holds as an identity over the tracer's arithmetic — this
module's checks are tripwires that catch any future charging site breaking
it (e.g. charging a flight the transaction never waited on, which drives
the lock_wait residual negative).

Aggregation is streaming-compatible: :class:`PhaseAccumulator` keeps a
Welford moment pair and a bounded reservoir per phase (the PR 7 machinery),
switching away from exact per-transaction lists above the same
``STREAMING_THRESHOLD`` the metrics pipeline uses (:mod:`repro.stats`).
"""

import random
from functools import reduce
from operator import add

from repro.obs.schema import PHASES, WIRE
from repro.stats import RESERVOIR_CAPACITY, STREAMING_THRESHOLD
from repro.stats.streaming import ReservoirSampler, Welford, linear_percentile

#: default tolerance for the sum invariant: absolute floor plus a
#: relative term for long responses (float addition error only — every
#: phase is derived from the same charges the response was measured with)
ABS_TOL = 1e-6
REL_TOL = 1e-9


def tolerance(response):
    """Sum-invariant tolerance for one record."""
    return ABS_TOL + REL_TOL * abs(response)


def phase_view(record):
    """The disjoint phase spans of one transaction record (or of any
    mapping with its account keys, such as a summary's sums)."""
    wire = reduce(add, map(record.__getitem__, WIRE))
    view = {"network": wire - record["commit_coord"]
            - record["abort_resolution"]}
    for name in PHASES[1:]:
        view[name] = record[name]
    return view


def sum_violation(record):
    """``None`` if the record's phases sum to its response time, else a
    human-readable violation string."""
    phases = phase_view(record)
    total = sum(phases.values())
    response = record["response"]
    if abs(total - response) > tolerance(response):
        return (f"txn {record.get('txn')}: phases sum to {total!r} but "
                f"response is {response!r} (delta {total - response:+.3e})")
    return None


def check_record(record, strict_lock_wait=None):
    """All invariant violations for one record (empty list = clean).

    Checks: the sum invariant, and non-negativity of every phase.

    ``strict_lock_wait`` controls whether a negative lock_wait residual is
    a violation. Defaults to the record's ``committed`` flag: a committed
    transaction waited for every charged flight, so its residual must be
    ≥ 0; an aborted transaction's AbortNotice flight can overlap think
    time (the victim learns of the abort at its next operation boundary),
    legitimately pushing the residual below zero.
    """
    violations = []
    bad_sum = sum_violation(record)
    if bad_sum is not None:
        violations.append(bad_sum)
    if strict_lock_wait is None:
        strict_lock_wait = bool(record.get("committed"))
    tol = tolerance(record["response"])
    for name, value in phase_view(record).items():
        if name == "lock_wait" and not strict_lock_wait:
            continue
        if value < -tol:
            violations.append(
                f"txn {record.get('txn')}: phase {name} is negative "
                f"({value!r})")
    return violations


def check_records(records, max_errors=20):
    """Invariant violations across many records, capped at ``max_errors``."""
    violations = []
    for record in records:
        if not record.get("measured", True):
            continue
        violations.extend(check_record(record))
        if len(violations) >= max_errors:
            violations.append("... (further violations suppressed)")
            break
    return violations


class PhaseAccumulator:
    """Streaming-compatible per-phase aggregate over transaction records.

    Below ``threshold`` observed records, exact per-phase value lists are
    kept (percentiles are exact). At the threshold the lists are folded
    into per-phase :class:`ReservoirSampler`\\ s (seeded deterministically,
    never touching simulation RNG streams) and memory stays bounded — the
    same auto-selection contract as PR 7's streaming metrics.
    """

    def __init__(self, threshold=STREAMING_THRESHOLD,
                 reservoir_capacity=RESERVOIR_CAPACITY, seed=97):
        self.threshold = threshold
        self.reservoir_capacity = reservoir_capacity
        self.seed = seed
        self.count = 0
        self.response = Welford()
        self.welford = {name: Welford() for name in PHASES}
        self.exact = {name: [] for name in PHASES}  # None once streaming
        self.reservoirs = None
        self.totals = {name: 0.0 for name in PHASES}
        self.response_total = 0.0

    def _spill(self):
        rng = random.Random(self.seed)
        self.reservoirs = {
            name: ReservoirSampler(rng, capacity=self.reservoir_capacity)
            for name in PHASES}
        for name, values in self.exact.items():
            sampler = self.reservoirs[name]
            for value in values:
                sampler.add(value)
        self.exact = None

    def add(self, record):
        phases = phase_view(record)
        self.count += 1
        self.response.add(record["response"])
        self.response_total += record["response"]
        for name, value in phases.items():
            self.totals[name] += value
            self.welford[name].add(value)
            if self.exact is not None:
                self.exact[name].append(value)
            else:
                self.reservoirs[name].add(value)
        if self.exact is not None and self.count >= self.threshold:
            self._spill()

    def mean(self, name):
        return self.welford[name].mean

    def fraction(self, name):
        """Phase share of total response time."""
        if self.response_total <= 0:
            return float("nan")
        return self.totals[name] / self.response_total

    def percentile(self, name, p):
        """Linearly-interpolated percentile; exact below the threshold,
        reservoir-estimated above (same interpolation either way)."""
        if self.exact is not None:
            return linear_percentile(self.exact[name], p)
        return self.reservoirs[name].percentile(p)
