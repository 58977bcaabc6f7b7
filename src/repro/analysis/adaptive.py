"""Adaptive-vs-static contention sweep (EXPERIMENTS.md appendix H).

The paper's own crossover analysis shows the s-2PL / g-2PL winner flips
with contention; the hybrid protocol claims to track the winner online.
This module measures that claim: a client-count sweep at the paper's
read-heavy operating point (where the statics split the axis) with
``s2pl``, ``g2pl`` and ``hybrid`` on common random numbers, plus the
acceptance gate the CI job enforces — hybrid within the tolerance of the
best static at *every* point, strictly better than both at *some* point.
"""

from dataclasses import dataclass

#: Client counts swept (the contention axis; latency and items fixed).
ADAPTIVE_CLIENT_SWEEP = (4, 8, 12, 20, 32, 48)

#: Acceptance tolerance: hybrid may trail the best static by at most
#: this fraction at any sweep point (a tighter bar than the repro.perf
#: wall-clock gate's 20% — response means at fixed seeds are stable).
ADAPTIVE_TOLERANCE = 0.05


@dataclass
class AdaptiveRegime:
    """The sweep's two metric views plus the acceptance-gate verdicts."""

    response: object            # ExperimentResult, mean response time
    aborts: object              # ExperimentResult, % aborted
    tolerance: float = ADAPTIVE_TOLERANCE

    def _columns(self):
        hybrid = self.response.series["hybrid"]
        s2pl = self.response.series["s2pl"].ys
        g2pl = self.response.series["g2pl"].ys
        return hybrid.xs, hybrid.ys, s2pl, g2pl

    def matches_best(self):
        """True when hybrid is within ``tolerance`` of the best static
        protocol at every sweep point."""
        xs, hy, s2, g2 = self._columns()
        return all(h <= min(s, g) * (1.0 + self.tolerance)
                   for h, s, g in zip(hy, s2, g2))

    def worst_gap(self):
        """Largest fractional excess of hybrid over the best static
        (negative when hybrid wins everywhere)."""
        _xs, hy, s2, g2 = self._columns()
        return max(h / min(s, g) - 1.0 for h, s, g in zip(hy, s2, g2))

    def beats_both_at(self):
        """Sweep points where hybrid strictly beats *both* statics."""
        xs, hy, s2, g2 = self._columns()
        return [x for x, h, s, g in zip(xs, hy, s2, g2)
                if h < s and h < g]

    @property
    def ok(self):
        return self.matches_best() and bool(self.beats_both_at())


def adaptive_crossover_sweep(fidelity="bench",
                             client_counts=ADAPTIVE_CLIENT_SWEEP,
                             read_probability=0.75, n_items=20,
                             latency=500.0, seed=1, jobs=1,
                             tolerance=ADAPTIVE_TOLERANCE):
    """Sweep client count with both statics and the hybrid protocol.

    ``read_probability=0.75`` is the regime the paper's Figures 14-15
    split: s-2PL's shared read locks win at low load, g-2PL's batching
    wins once backlogs form. The hybrid's contention controller must
    route items to single mode on the left of the axis and grouped mode
    on the right to match (and, between the regimes, beat) the statics.
    """
    from repro.core.experiments import Sweep, _base_config

    base, replications = _base_config(
        fidelity,
        read_probability=read_probability,
        n_items=n_items,
        network_latency=latency)
    results = Sweep(
        experiment_ids={"response": "adaptive-response",
                        "aborts": "adaptive-aborts"},
        titles={
            "response": (
                "Mean response time vs client count, "
                f"pr={read_probability:g}, adaptive vs static"),
            "aborts": (
                "Percentage of transactions aborted vs client count, "
                f"pr={read_probability:g}, adaptive vs static")},
        x_label="number of clients",
        base_config=base, replications=replications, xs=client_counts,
        configure=lambda cfg, x: cfg.replace(n_clients=int(x)),
        protocols=("s2pl", "g2pl", "hybrid"),
        seed=seed).run(jobs)
    return AdaptiveRegime(response=results["response"],
                          aborts=results["aborts"], tolerance=tolerance)


def describe_adaptive(regime):
    """Human-readable acceptance report for the sweep."""
    xs, hy, s2, g2 = regime._columns()
    lines = [f"adaptive-vs-static gate (tolerance {regime.tolerance:.0%}):"]
    for x, h, s, g in zip(xs, hy, s2, g2):
        best = min(s, g)
        verdict = ("beats both" if h < s and h < g
                   else "matches best" if h <= best * (1 + regime.tolerance)
                   else "LOSES")
        lines.append(
            f"  clients={x:>3g}: hybrid={h:,.0f}  s2pl={s:,.0f}  "
            f"g2pl={g:,.0f}  ({verdict}, vs best "
            f"{(h / best - 1.0):+.1%})")
    wins = regime.beats_both_at()
    lines.append(
        f"  worst gap to best static: {regime.worst_gap():+.1%}; "
        f"beats both statics at "
        f"{len(wins)}/{len(xs)} points"
        + (f" (clients {', '.join(f'{w:g}' for w in wins)})" if wins
           else ""))
    lines.append(f"  gate: {'PASS' if regime.ok else 'FAIL'}")
    return "\n".join(lines)
