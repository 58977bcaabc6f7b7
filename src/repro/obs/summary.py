"""Mergeable per-run trace summaries.

A :class:`TraceSummary` holds only sums, counts, and maxima — never means —
so folding the per-cell summaries of a parallel run is exact: merging in
submission order produces bit-identical aggregates whether the cells ran
under ``jobs=1`` or ``jobs=N`` (the same property the metrics pipeline
already has, extended to traces).

Aggregates cover *measured* transactions only (the post-warmup population),
so trace means line up with the steady-state :class:`RunMetrics` they sit
next to in a report.
"""

from dataclasses import dataclass, field

from repro.obs.schema import ACCOUNT, COMPONENTS, RESIDUAL

#: round kinds excluded from the sequential-round total: the MR1W
#: concurrent writer ship overlaps the read group's rounds instead of
#: following them, so it adds messages but no response-time rounds.
#: Likewise the 2PC vote fan-in and decision-ack fan-in: one participant
#: (the charge-flagged one) accounts the sequential round, the other
#: replies travel in parallel with it.
NON_SEQUENTIAL_ROUND_KINDS = frozenset(
    {"grant_concurrent", "vote_concurrent", "commit_ack_concurrent"})


def _merge_counts(into, other):
    for key, value in other.items():
        into[key] = into.get(key, 0) + value


@dataclass
class TraceSummary:
    """Aggregate of one (or several merged) traced runs."""

    runs: int = 1
    committed: int = 0
    aborted: int = 0
    #: sequential message rounds over committed measured txns
    rounds_total: int = 0
    #: all round charges (incl. non-sequential) over committed measured txns
    rounds_by_kind: dict = field(default_factory=dict)
    #: shard (home-server site id) -> {kind: count}, sharded runs only —
    #: empty for single-server runs, keeping their summaries unchanged
    rounds_by_shard: dict = field(default_factory=dict)
    response_sum: float = 0.0
    #: account key (:data:`~repro.obs.schema.ACCOUNT`) -> its sum over
    #: committed measured txns. The sub-accounts ``commit_coord`` and
    #: ``abort_resolution`` re-attribute wire time already counted in the
    #: components; ``overhead`` is live-only time *outside* them.
    sums: dict = field(default_factory=lambda: dict.fromkeys(ACCOUNT, 0.0))
    messages_sent: int = 0
    msgs_by_kind: dict = field(default_factory=dict)
    drops_by_cause: dict = field(default_factory=dict)
    duplicates_injected: int = 0
    retransmissions: int = 0
    duplicates_suppressed: int = 0
    trace_events: int = 0
    #: probe series name -> {"n": samples, "sum": total, "max": peak}
    probe_series: dict = field(default_factory=dict)
    processed_events: int = 0
    peak_heap_depth: int = 0

    # -- derived -------------------------------------------------------------

    @property
    def mean_rounds_per_commit(self):
        if self.committed == 0:
            return float("nan")
        return self.rounds_total / self.committed

    def component_sums(self):
        """Response-time decomposition: the components, then the
        residual."""
        sums = self.sums
        return {name: sums[name] for name in (*COMPONENTS, RESIDUAL)}

    def component_fractions(self):
        """Each component as a fraction of summed response time."""
        total = self.response_sum
        sums = self.component_sums()
        if total <= 0:
            return {name: float("nan") for name in sums}
        return {name: value / total for name, value in sums.items()}

    def describe(self):
        """Multi-line human summary, used by the CLI."""
        lines = [
            f"trace: {self.committed} committed / {self.aborted} aborted "
            f"measured txns over {self.runs} run(s)",
            f"  mean sequential rounds per commit: "
            f"{self.mean_rounds_per_commit:.2f}",
        ]
        if self.rounds_by_kind:
            parts = ", ".join(
                f"{kind}={count / self.committed:.2f}"
                for kind, count in sorted(self.rounds_by_kind.items())
                if self.committed)
            lines.append(f"  rounds by kind (per commit): {parts}")
        fractions = self.component_fractions()
        parts = ", ".join(f"{name} {100.0 * frac:.1f}%"
                          for name, frac in fractions.items())
        lines.append(f"  response decomposition: {parts}")
        lines.append(
            f"  messages: {self.messages_sent} sent, "
            f"drops={sum(self.drops_by_cause.values())}, "
            f"dups={self.duplicates_injected}, "
            f"retransmits={self.retransmissions}")
        lines.append(
            f"  engine: {self.processed_events} events processed, "
            f"peak heap depth {self.peak_heap_depth}")
        return "\n".join(lines)

    # -- merging -------------------------------------------------------------

    @classmethod
    def merge(cls, summaries):
        """Exact fold of several summaries (order-independent sums/maxima);
        returns ``None`` when no input carries a summary."""
        summaries = [s for s in summaries if s is not None]
        if not summaries:
            return None
        out = cls(runs=0)
        for s in summaries:
            out.runs += s.runs
            out.committed += s.committed
            out.aborted += s.aborted
            out.rounds_total += s.rounds_total
            _merge_counts(out.rounds_by_kind, s.rounds_by_kind)
            for shard, kinds in s.rounds_by_shard.items():
                _merge_counts(
                    out.rounds_by_shard.setdefault(shard, {}), kinds)
            out.response_sum += s.response_sum
            for name, value in s.sums.items():
                out.sums[name] += value
            out.messages_sent += s.messages_sent
            _merge_counts(out.msgs_by_kind, s.msgs_by_kind)
            _merge_counts(out.drops_by_cause, s.drops_by_cause)
            out.duplicates_injected += s.duplicates_injected
            out.retransmissions += s.retransmissions
            out.duplicates_suppressed += s.duplicates_suppressed
            out.trace_events += s.trace_events
            out.processed_events += s.processed_events
            out.peak_heap_depth = max(out.peak_heap_depth,
                                      s.peak_heap_depth)
            for name, cell in s.probe_series.items():
                mine = out.probe_series.setdefault(
                    name, {"n": 0, "sum": 0.0, "max": float("-inf")})
                mine["n"] += cell["n"]
                mine["sum"] += cell["sum"]
                mine["max"] = max(mine["max"], cell["max"])
        return out
