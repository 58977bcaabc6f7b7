"""Locating the crossover point between two series (Figures 5-7), plus
the sharded extension: a shard-count x inter-region-latency grid that
maps where each protocol (with cross-shard 2PC) dominates."""

from dataclasses import dataclass
from typing import Optional


def find_crossover(result, first="s2pl", second="g2pl"):
    """The x at which ``second`` stops beating ``first``.

    Scans the difference ``first - second`` and linearly interpolates the
    sign change. Returns None if one protocol dominates everywhere.
    """
    a = result.series[first]
    b = result.series[second]
    diffs = [ya - yb for ya, yb in zip(a.ys, b.ys)]
    for index in range(len(diffs) - 1):
        left, right = diffs[index], diffs[index + 1]
        if left == 0:
            return a.xs[index]
        if (left > 0) != (right > 0):
            x_left, x_right = a.xs[index], a.xs[index + 1]
            fraction = left / (left - right)
            return x_left + fraction * (x_right - x_left)
    return None


# ---------------------------------------------------------------------------
# Sharded dominance grid: shard count x inter-region latency
# ---------------------------------------------------------------------------

#: inter-region one-way latencies swept per shard count (Table 2 span)
SHARD_LATENCY_SWEEP = (1.0, 5.0, 25.0, 100.0, 250.0, 500.0, 750.0)


@dataclass
class ShardRegime:
    """One row of the grid: both response-time curves at a fixed shard
    count, with the latency at which dominance flips (if it does)."""

    n_shards: int
    commit_protocol: str
    response: object            # ExperimentResult, mean response time
    aborts: object              # ExperimentResult, % aborted
    crossover: Optional[float]

    @property
    def dominant(self):
        """``"s2pl"`` / ``"g2pl"`` when one protocol's mean response time
        wins at every swept latency; ``None`` when the axis is split."""
        s = self.response.series["s2pl"].ys
        g = self.response.series["g2pl"].ys
        if all(gy <= sy for sy, gy in zip(s, g)):
            return "g2pl"
        if all(sy <= gy for sy, gy in zip(s, g)):
            return "s2pl"
        return None

    def describe(self):
        xs = self.response.series["s2pl"].xs
        low = self._winner_at(0)
        high = self._winner_at(-1)
        if self.dominant is not None:
            regime = (f"{self.dominant} dominates at every swept "
                      f"inter-region latency")
        elif self.crossover is not None and low != high:
            regime = (f"{low} wins below latency ~{self.crossover:.0f}, "
                      f"{high} above")
        else:
            regime = (f"mixed ({low} at latency {xs[0]:g}, "
                      f"{high} at {xs[-1]:g}, no single sign change)")
        return f"shards={self.n_shards}: {regime}"

    def _winner_at(self, index):
        s = self.response.series["s2pl"].ys[index]
        g = self.response.series["g2pl"].ys[index]
        return "g2pl" if g <= s else "s2pl"


def shard_crossover_grid(shard_counts=(1, 2, 4), latencies=SHARD_LATENCY_SWEEP,
                         fidelity="bench", commit_protocol="2pc",
                         cross_shard_probability=0.2, read_probability=0.6,
                         seed=1, jobs=1):
    """Sweep inter-region latency at each shard count, both protocols.

    Single-shard rows reproduce the paper's one-server sweep; sharded rows
    partition the hot items over ``k`` home servers in two regions (the
    client's home shard is near, the rest are an inter-region hop away)
    and commit cross-shard transactions with 2PC (``commit_protocol``
    picks the classic 2m+3-round protocol or the piggybacked ``2pc-opt``).
    Returns one :class:`ShardRegime` per shard count.
    """
    from repro.core.experiments import Sweep, _base_config

    regimes = []
    for n_shards in shard_counts:
        sharded = n_shards > 1
        base, replications = _base_config(
            fidelity,
            read_probability=read_probability,
            n_shards=n_shards,
            n_regions=2 if sharded else 1,
            intra_region_latency=1.0,
            commit_protocol=commit_protocol,
            cross_shard_probability=(cross_shard_probability
                                     if sharded else None))
        results = Sweep(
            experiment_ids={
                "response": f"shard{n_shards}-response",
                "aborts": f"shard{n_shards}-aborts"},
            titles={
                "response": (
                    f"Mean response time vs inter-region latency, "
                    f"{n_shards} shard(s), commit={commit_protocol}"),
                "aborts": (
                    f"Percentage of transactions aborted vs inter-region "
                    f"latency, {n_shards} shard(s), "
                    f"commit={commit_protocol}")},
            x_label="inter-region latency",
            base_config=base, replications=replications, xs=latencies,
            configure=lambda cfg, x: cfg.replace(network_latency=float(x)),
            seed=seed).run(jobs)
        regimes.append(ShardRegime(
            n_shards=n_shards, commit_protocol=commit_protocol,
            response=results["response"], aborts=results["aborts"],
            crossover=find_crossover(results["response"])))
    return regimes


def describe_shard_grid(regimes):
    """Human-readable dominance report over the grid rows."""
    if not regimes:
        return "shard grid: no rows"
    head = (f"shard-count x inter-region-latency dominance "
            f"(commit={regimes[0].commit_protocol}):")
    return "\n".join([head] + [f"  {row.describe()}" for row in regimes])
