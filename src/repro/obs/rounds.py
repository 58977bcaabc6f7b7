"""The paper's contended-item scenario: Figure 1 and round accounting.

One data item, a primer transaction holding it, and ``m`` contenders
that each want it exclusively, all requesting while the primer holds —
one s-2PL wait queue / one g-2PL collection window. s-2PL pays request +
grant + release per transaction (3m sequential rounds); g-2PL merges
each release with the successor's grant, leaving m requests, 1 grant,
m-1 handoffs, and 1 return (2m+1). The spans follow: m·(2L+P) for s-2PL
against (m+1)·L + m·P for g-2PL, measured from the primer's commit to the
last contender's. The paper's Figure 1 timeline gives 15 units for s-2PL
versus 12 for g-2PL at m=3, L=2, P=1; the exact round arithmetic gives 11
(the paper's figure counts one extra unit; see EXPERIMENTS.md).

The scenario is one epoch of live mode's ``calibrate`` schedule
(:mod:`repro.live.scenario`) with every contender requesting at once,
replayed under the simulator with the real protocol implementations: the
spans and rounds below are measured, not computed from the closed forms.
"""

from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.live.scenario import ScenarioSpec, run_reference


@dataclass(frozen=True)
class RoundProfile:
    """Measured vs expected rounds for one (protocol, m) scenario."""

    protocol: str
    m: int
    rounds_total: int
    rounds_by_kind: dict
    expected_total: int

    @property
    def mean_rounds_per_commit(self):
        return self.rounds_total / self.m

    @property
    def matches_expectation(self):
        return self.rounds_total == self.expected_total


@dataclass(frozen=True)
class WorkedExampleResult:
    """Measured spans (simulation units) and rounds for Figure 1."""

    s2pl_span: float
    g2pl_span: float
    s2pl_rounds: int
    g2pl_rounds: int

    @property
    def improvement_percentage(self):
        return 100.0 * (self.s2pl_span - self.g2pl_span) / self.s2pl_span

    def __str__(self):
        return (f"Figure 1: s-2PL {self.s2pl_span:g} units "
                f"({self.s2pl_rounds} rounds) vs g-2PL {self.g2pl_span:g} "
                f"units ({self.g2pl_rounds} rounds): "
                f"{self.improvement_percentage:.1f}% faster")


def expected_rounds(protocol, m):
    """The paper's closed forms: 3m for s-2PL, 2m+1 for g-2PL."""
    if protocol.startswith("g2pl"):
        return 2 * m + 1
    return 3 * m


def expected_txn_rounds(protocol, n_ops, n_homes=1, commit_protocol="2pc"):
    """Sequential rounds for one *uncontended* transaction of ``n_ops``
    operations whose items live on ``n_homes`` distinct home servers.

    s-2PL pays request + grant per operation (2m), then the commit:

    - one home server: a single combined commit/release round -> 2m+1;
    - classic 2PC across k>1 homes: prepare, vote, decide -> 2m+3
      (fault mode adds one decision-ack round on top);
    - ``2pc-opt``: the votes ride the last lock grants and the decision
      doubles as the release, collapsing the commit back to one
      round -> 2m+1, same as the single-server protocol.

    g-2PL ships the item itself, so an uncontended operation costs
    request + ship + return (3m); its non-fault commit is client-local
    (TxnDone rides off the critical path) and costs no rounds — and the
    count is independent of how many homes the items span, because the
    per-shard returns overlap.  The g-2PL savings the paper counts come
    from *contended* windows (see :func:`expected_rounds`), not from
    this uncontended profile.
    """
    if n_ops < 1:
        raise ValueError(f"n_ops must be >= 1, got {n_ops!r}")
    if n_homes < 1:
        raise ValueError(f"n_homes must be >= 1, got {n_homes!r}")
    if protocol.startswith("g2pl"):
        return 3 * n_ops
    if n_homes == 1 or commit_protocol == "2pc-opt":
        return 2 * n_ops + 1
    return 2 * n_ops + 3


def _contended_run(protocol, m, latency=2.0, think=1.0):
    """Run the scenario once under the simulator; returns its
    :class:`~repro.core.runner.SimulationResult`. The primer runs
    unmeasured, like a warmup transaction."""
    reference, _ = run_reference(ScenarioSpec(SimulationConfig(
        protocol=protocol, n_clients=m + 1, network_latency=latency,
        think_min=think, think_max=think),
        repeats=1, spacing=0.0))
    committed = reference.trace.summary.committed
    if committed != m:
        raise RuntimeError(
            f"{protocol}: expected {m} measured commits, got {committed}")
    return reference


def contended_round_profile(protocol, m, latency=2.0, think=1.0):
    """The measured :class:`RoundProfile` over the ``m`` contenders."""
    summary = _contended_run(protocol, m, latency, think).trace.summary
    return RoundProfile(
        protocol=protocol, m=m,
        rounds_total=summary.rounds_total,
        rounds_by_kind=dict(summary.rounds_by_kind),
        expected_total=expected_rounds(protocol, m),
    )


def round_table(ms=(2, 4, 8), protocols=("s2pl", "g2pl"), latency=2.0):
    """Round profiles for every (protocol, m) pair, for the report."""
    return [contended_round_profile(protocol, m, latency=latency)
            for m in ms for protocol in protocols]


def _span(reference):
    """Primer's commit to the last contender's. In a fault-free run every
    release reaches the server exactly one latency after its commit, so
    this is also the span between the server's first and last installs:
    "lock first available" to "final release arrives"."""
    primer, = (record["end"] for record in reference.trace.txns
               if not record["measured"])
    return max(record["end"] for record in reference.trace.txns
               if record["measured"]) - primer


def run_worked_example(n_clients=3, latency=2.0, processing=1.0):
    """Reproduce Figure 1 with ``n_clients`` contenders; returns a
    :class:`WorkedExampleResult`."""
    s2pl, g2pl = (_contended_run(protocol, n_clients, latency, processing)
                  for protocol in ("s2pl", "g2pl"))
    return WorkedExampleResult(
        s2pl_span=_span(s2pl), g2pl_span=_span(g2pl),
        s2pl_rounds=s2pl.trace.summary.rounds_total,
        g2pl_rounds=g2pl.trace.summary.rounds_total,
    )
