"""End-to-end latency decomposition and the sim-vs-live divergence report.

:func:`decompose_records` folds traced per-transaction records into a
:class:`Decomposition` — per-phase totals, means, fractions, and
percentiles (streaming-compatible via
:class:`~repro.obs.spans.PhaseAccumulator`) — with the span-sum invariant
checked on every record.

:func:`compare` pairs two decompositions of the *same scenario* (the
simulator's prediction and a live run) and attributes their mean-response
gap phase by phase: PR 5 measured an opaque 2.3–2.6% sim-vs-live delta;
the report shows which phases carry it (the shaped network phase matches
the simulator almost exactly — the sender charges the predicted wire time
in both worlds — while the residual concentrates in the live-only
``overhead`` phase plus scheduling-inflated waits).

:func:`sim_vs_live` is the turnkey pairing: run the reference simulation
and the live run for one :class:`~repro.live.scenario.ScenarioSpec`,
restrict both to the transactions committed and measured in *both*
worlds, and compare.
"""

from dataclasses import dataclass, field

from repro.obs.spans import PHASES, PhaseAccumulator, check_record


@dataclass
class Decomposition:
    """Per-phase latency budget of one set of traced transactions."""

    label: str
    n_txns: int
    response_mean: float
    response_total: float
    #: phase -> {"total", "mean", "fraction", "p50", "p95"}
    phases: dict
    #: invariant violations found while folding (empty = clean)
    violations: list = field(default_factory=list)

    def mean(self, name):
        return self.phases[name]["mean"]

    def fraction(self, name):
        return self.phases[name]["fraction"]

    def describe(self):
        lines = [
            f"decomposition [{self.label}]: {self.n_txns} txns, "
            f"mean response {self.response_mean:.2f}",
            f"  {'phase':<18} {'mean':>10} {'share':>7} "
            f"{'p50':>10} {'p95':>10}",
        ]
        for name in PHASES:
            cell = self.phases[name]
            lines.append(
                f"  {name:<18} {cell['mean']:>10.2f} "
                f"{100.0 * cell['fraction']:>6.1f}% "
                f"{cell['p50']:>10.2f} {cell['p95']:>10.2f}")
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS: {len(self.violations)} "
                         f"(first: {self.violations[0]})")
        return "\n".join(lines)


def decompose_records(records, label="run", threshold=None,
                      reservoir_capacity=8192, seed=97):
    """Fold per-transaction records into a :class:`Decomposition`.

    ``records`` is an iterable of record dicts (or a mapping txn -> record);
    only measured records are folded. Every record is checked against the
    span-sum/non-negativity invariant; violations are collected, not
    raised — the caller decides whether a dirty decomposition is fatal.
    """
    if hasattr(records, "values"):
        records = records.values()
    acc_kwargs = {"reservoir_capacity": reservoir_capacity, "seed": seed}
    if threshold is not None:
        acc_kwargs["threshold"] = threshold
    acc = PhaseAccumulator(**acc_kwargs)
    violations = []
    for record in records:
        if not record.get("measured", True):
            continue
        violations.extend(check_record(record))
        acc.add(record)
    phases = {}
    for name in PHASES:
        phases[name] = {
            "total": acc.totals[name],
            "mean": acc.mean(name) if acc.count else float("nan"),
            "fraction": acc.fraction(name),
            "p50": acc.percentile(name, 50.0),
            "p95": acc.percentile(name, 95.0),
        }
    return Decomposition(
        label=label, n_txns=acc.count,
        response_mean=(acc.response.mean if acc.count else float("nan")),
        response_total=acc.response_total,
        phases=phases, violations=violations)


def decompose_trace(trace, label="sim", **kwargs):
    """Decompose a :class:`~repro.obs.tracer.TraceData` (committed,
    measured transactions — the calibration population)."""
    records = [r for r in trace.txns if r["committed"] and r["measured"]]
    return decompose_records(records, label=label, **kwargs)


@dataclass
class PhaseDelta:
    """One phase's sim-vs-live divergence."""

    phase: str
    sim_mean: float
    live_mean: float

    @property
    def delta(self):
        return self.live_mean - self.sim_mean

    @property
    def relative(self):
        """Live-vs-sim relative error for this phase (NaN when the sim
        phase is empty — nothing to be relative to)."""
        if self.sim_mean == 0.0:
            return float("nan")
        return self.delta / self.sim_mean


@dataclass
class DivergenceReport:
    """Sim-vs-live response gap, attributed phase by phase."""

    sim: Decomposition
    live: Decomposition
    deltas: dict            # phase -> PhaseDelta

    @property
    def response_gap(self):
        """Mean live response minus mean sim response."""
        return self.live.response_mean - self.sim.response_mean

    @property
    def response_gap_relative(self):
        if self.sim.response_mean == 0.0:
            return float("nan")
        return self.response_gap / self.sim.response_mean

    def attribution(self):
        """Each phase's share of the response gap (signed; sums to 1.0
        when the gap is nonzero)."""
        gap = self.response_gap
        if gap == 0.0:
            return {name: 0.0 for name in PHASES}
        return {name: self.deltas[name].delta / gap for name in PHASES}

    @property
    def network_agreement(self):
        """|relative error| of the shaped network phase — the acceptance
        gate: live wire time must track the simulator's prediction."""
        return abs(self.deltas["network"].relative)

    def describe(self):
        gap = self.response_gap
        lines = [
            f"sim vs live [{self.sim.label} / {self.live.label}]: "
            f"{self.sim.n_txns} / {self.live.n_txns} txns",
            f"  mean response: sim {self.sim.response_mean:.2f}, "
            f"live {self.live.response_mean:.2f}  "
            f"(gap {gap:+.2f} = {100.0 * self.response_gap_relative:+.2f}%)",
            f"  {'phase':<18} {'sim mean':>10} {'live mean':>10} "
            f"{'delta':>9} {'of gap':>8}",
        ]
        shares = self.attribution()
        for name in PHASES:
            d = self.deltas[name]
            share = shares[name]
            lines.append(
                f"  {name:<18} {d.sim_mean:>10.3f} {d.live_mean:>10.3f} "
                f"{d.delta:>+9.3f} {100.0 * share:>7.1f}%")
        lines.append(
            f"  network phase agreement: "
            f"{100.0 * self.network_agreement:.2f}% relative error")
        return "\n".join(lines)


def compare(sim_decomposition, live_decomposition):
    """Pair two decompositions of the same scenario into a
    :class:`DivergenceReport`."""
    deltas = {
        name: PhaseDelta(
            phase=name,
            sim_mean=sim_decomposition.mean(name),
            live_mean=live_decomposition.mean(name))
        for name in PHASES
    }
    return DivergenceReport(sim=sim_decomposition,
                            live=live_decomposition, deltas=deltas)


def common_committed(reference, merged):
    """The per-txn record pairs committed and measured in both worlds.

    Returns ``(sim_records, live_records)`` dicts over the common txn-id
    set — the same pairing discipline the PR 5 calibration uses, so the
    divergence report and the calibration report describe one population.
    """
    sim_records = {
        record["txn"]: record for record in reference.trace.txns
        if record["committed"] and record["measured"]}
    live_records = merged.measured_committed()
    common = sorted(set(sim_records) & set(live_records))
    return ({txn: sim_records[txn] for txn in common},
            {txn: live_records[txn] for txn in common})


def sim_vs_live(spec, time_scale=None, workdir=None, timeout=None):
    """Run ``spec`` in both worlds and attribute the response-time gap.

    Returns ``(report, live_result, reference)`` — the divergence report
    over the common committed population plus both raw results for
    callers that want rounds/history checks too.
    """
    from repro.live.harness import DEFAULT_TIME_SCALE, run_live
    from repro.live.scenario import run_reference

    if time_scale is None:
        time_scale = DEFAULT_TIME_SCALE
    reference = run_reference(spec)
    live = run_live(spec, time_scale=time_scale, workdir=workdir,
                    timeout=timeout)
    sim_records, live_records = common_committed(reference, live.merged)
    report = compare(
        decompose_records(sim_records, label=f"sim:{spec.protocol}"),
        decompose_records(live_records, label=f"live:{spec.protocol}"))
    return report, live, reference
