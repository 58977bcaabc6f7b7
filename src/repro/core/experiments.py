"""The paper's experiments: one constructor per table/figure.

Every figure in §5 is a sweep: run both protocols over an x-axis
(network latency, read probability, forward-list length, or client count)
with replications, and collect mean response time and abort percentage.
A ``*_plan`` returns one as a :class:`Sweep` (cells and fold) that
:func:`run_sweeps` runs with others, sharing cells; a figure function
runs one. :class:`ExperimentResult` holds the series.

Scale: the paper ran 50,000 transactions x 5 replications per point on a
1997 workstation (34 hours per run). The default scale here is chosen so
the full figure suite finishes in minutes; pass ``fidelity="paper"`` for
the published run lengths.
"""

from dataclasses import dataclass, field, fields
from itertools import islice
from operator import attrgetter
from typing import Dict

from repro.core.config import Fidelity, SimulationConfig
from repro.core.parallel import run_cells
from repro.core.runner import replication_cells
from repro.network.presets import LATENCY_SWEEP, TABLE2_ENVIRONMENTS
from repro.stats.ci import mean_confidence_interval

#: Read probabilities swept in Figures 5-7.
READ_PROBABILITY_SWEEP = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                          0.6, 0.7, 0.8, 0.9, 1.0)

#: Client counts swept in Figures 12-15 (the paper plots 0-150).
CLIENT_SWEEP = (10, 25, 50, 75, 100, 150)

#: Message-loss probabilities swept in the fault-injection experiment
#: (not in the paper, which assumes a reliable network).
LOSS_SWEEP = (0.0, 0.005, 0.01, 0.02, 0.05)


@dataclass
class ExperimentSeries:
    """One curve: y (with CI half-widths) against the x-axis."""

    name: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    half_widths: list = field(default_factory=list)

    def add(self, x, ci):
        self.xs.append(x)
        self.ys.append(ci.mean)
        self.half_widths.append(ci.half_width)

    def y_at(self, x):
        return self.ys[self.xs.index(x)]


@dataclass
class ExperimentResult:
    """Everything a figure/table reproduction produced."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, ExperimentSeries] = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def series_for(self, name):
        return self.series.setdefault(name, ExperimentSeries(name))

    def improvement_at(self, x, baseline="s2pl", contender="g2pl"):
        """Paper-style percentage improvement of contender over baseline."""
        base = self.series[baseline].y_at(x)
        new = self.series[contender].y_at(x)
        return 100.0 * (base - new) / base if base else 0.0


def _resolve_fidelity(fidelity):
    if isinstance(fidelity, Fidelity):
        return fidelity
    return Fidelity[str(fidelity).upper()]


def _base_config(fidelity, **overrides):
    fid = _resolve_fidelity(fidelity)
    defaults = dict(total_transactions=fid.transactions,
                    warmup_transactions=fid.warmup,
                    record_history=False)
    defaults.update(overrides)
    return SimulationConfig(**defaults), fid.replications


@dataclass
class Sweep:
    """One figure's plan: run ``protocols`` x ``xs`` x ``replications``
    (``configure(config, x)`` makes a point's config; replication ``i``
    has one seed under every protocol), then fold each run's mean
    response and abort percentage into ``{"response": ExperimentResult,
    "aborts": ExperimentResult}``, two views of the same runs.
    """

    experiment_ids: dict
    titles: dict
    x_label: str
    base_config: SimulationConfig
    replications: int
    xs: tuple
    configure: object
    protocols: tuple = ("s2pl", "g2pl")
    seed: int = 1

    def cells(self):
        """The sweep's simulation cells, in the order :meth:`fold` reads."""
        return [cell for protocol in self.protocols for x in self.xs
                for cell in replication_cells(self.configure(
                    self.base_config.replace(protocol=protocol), x),
                    self.replications, base_seed=self.seed)]

    def fold(self, numbers):
        """The results from ``(response mean, abort %)`` per cell."""
        results = {metric: ExperimentResult(
                       self.experiment_ids.get(metric, "?"),
                       self.titles.get(metric, ""), self.x_label, y_label)
                   for metric, y_label in (
                       ("response", "mean response time"),
                       ("aborts", "% transactions aborted"))}
        numbers = iter(numbers)
        for protocol in self.protocols:
            for x in self.xs:
                responses, aborts = zip(*islice(numbers, self.replications))
                results["response"].series_for(protocol).add(
                    x, mean_confidence_interval(responses))
                results["aborts"].series_for(protocol).add(
                    x, mean_confidence_interval(aborts))
        return results

    def run(self, jobs=1):
        """Run the cells and fold them (see :func:`run_sweeps`)."""
        return run_sweeps({None: self}, jobs=jobs)[None]


def run_sweeps(sweeps, jobs=1):
    """Fold every :class:`Sweep` of ``{name: sweep}`` from one run of
    their distinct cells; returns ``{name: result}``.

    A cell two sweeps share (every config field and the seed equal) runs
    once. ``jobs>1`` fans all the cells out over one process pool; the
    results are bit-identical to the serial run, and each equals its
    sweep run on its own.
    """
    # Key on every config field, not describe(): that omits
    # max_forward_list_length, so Figure 11's cells would merge.
    planned = {name: [((*(getattr(cell.config, f.name)
                          for f in fields(cell.config)), cell.seed), cell)
                      for cell in sweep.cells()]
               for name, sweep in sweeps.items()}
    distinct = {}
    for cells in planned.values():
        for key, cell in cells:
            distinct.setdefault(key, cell)
    # Only the two numbers a fold reads leave the worker or stay alive.
    numbers = dict(zip(distinct, run_cells(
        distinct.values(), jobs=jobs,
        keep=attrgetter("mean_response_time", "abort_percentage"))))
    return {name: sweeps[name].fold([numbers[key] for key, _ in cells])
            for name, cells in planned.items()}


# ---------------------------------------------------------------------------
# Figures 2-4: mean response time vs network latency (pr = 0.0 / 0.6 / 1.0)
# ---------------------------------------------------------------------------

def latency_sweep_plan(read_probability, fidelity=Fidelity.BENCH, seed=1,
                       latencies=LATENCY_SWEEP):
    """One latency sweep, yielding both metrics.

    The response view is Figure 2/3/4 (pr = 0.0/0.6/1.0); the abort view
    is Figure 8/9 (pr = 0.6/0.8).
    """
    response_fig = {0.0: "2", 0.6: "3", 1.0: "4"}.get(read_probability,
                                                      "2-4")
    abort_fig = {0.6: "8", 0.8: "9"}.get(read_probability, "8-9")
    base, replications = _base_config(fidelity,
                                      read_probability=read_probability)
    return Sweep(
        experiment_ids={"response": f"figure{response_fig}",
                        "aborts": f"figure{abort_fig}"},
        titles={"response": (
                    f"Mean transaction response time vs network latency, "
                    f"pr={read_probability:g} (50 clients, 25 hot items)"),
                "aborts": (
                    f"Percentage of transactions aborted vs network "
                    f"latency, pr={read_probability:g} (50 clients, "
                    f"25 hot items)")},
        x_label="network latency",
        base_config=base, replications=replications, xs=latencies,
        configure=lambda cfg, x: cfg.replace(network_latency=x),
        seed=seed)


def latency_sweep_experiment(read_probability, fidelity=Fidelity.BENCH,
                             seed=1, latencies=LATENCY_SWEEP, jobs=1):
    return latency_sweep_plan(read_probability, fidelity, seed,
                              latencies).run(jobs)


def figure_response_vs_latency(read_probability, fidelity=Fidelity.BENCH,
                               seed=1, latencies=LATENCY_SWEEP, jobs=1):
    return latency_sweep_experiment(read_probability, fidelity, seed,
                                    latencies, jobs=jobs)["response"]


# ---------------------------------------------------------------------------
# Figures 5-7: mean response time vs read probability (ss-LAN / MAN / l-WAN)
# ---------------------------------------------------------------------------

def read_probability_plan(environment, fidelity=Fidelity.BENCH, seed=1,
                          read_probabilities=READ_PROBABILITY_SWEEP):
    figure = {"SS_LAN": "5", "MAN": "6", "L_WAN": "7"}.get(
        environment.name, "5-7")
    base, replications = _base_config(
        fidelity, network_latency=environment.latency)
    return Sweep(
        experiment_ids={"response": f"figure{figure}"},
        titles={"response": (
            f"Mean response time vs read probability in "
            f"{environment.name} (latency {environment.latency:g})")},
        x_label="read probability",
        base_config=base, replications=replications,
        xs=read_probabilities,
        configure=lambda cfg, x: cfg.replace(read_probability=x),
        seed=seed)


def figure_response_vs_read_probability(environment, fidelity=Fidelity.BENCH,
                                        seed=1,
                                        read_probabilities=READ_PROBABILITY_SWEEP,
                                        jobs=1):
    return read_probability_plan(environment, fidelity, seed,
                                 read_probabilities).run(jobs)["response"]


# ---------------------------------------------------------------------------
# Figures 8-9: percentage of transactions aborted vs latency (pr 0.6 / 0.8)
# ---------------------------------------------------------------------------

def figure_aborts_vs_latency(read_probability, fidelity=Fidelity.BENCH,
                             seed=1, latencies=LATENCY_SWEEP, jobs=1):
    return latency_sweep_experiment(read_probability, fidelity, seed,
                                    latencies, jobs=jobs)["aborts"]


# ---------------------------------------------------------------------------
# Figure 10: read-only deadlock aborts vs latency
# ---------------------------------------------------------------------------

def readonly_aborts_plan(fidelity=Fidelity.BENCH, seed=1,
                         latencies=(1, 2, 3, 5, 7, 10, 25, 100),
                         n_clients=5):
    """Read-only system: aborts are exactly the read-deadlocks of §3.3.

    The paper's caption does not pin the client count for this figure; the
    published abort magnitudes (<= a little over 5%) arise at light load
    (default 5 clients here). The `g2pl-ro` series shows the paper's
    proposed read-only optimization eliminating them entirely.
    """
    base, replications = _base_config(fidelity, read_probability=1.0,
                                      n_clients=n_clients)
    return Sweep(
        experiment_ids={"aborts": "figure10"},
        titles={"aborts": (
            f"Read-only system: % transactions aborted vs latency "
            f"({n_clients} clients, 25 hot items)")},
        x_label="network latency",
        base_config=base, replications=replications, xs=latencies,
        configure=lambda cfg, x: cfg.replace(network_latency=float(x)),
        protocols=("g2pl", "g2pl-ro"), seed=seed)


def figure_readonly_aborts_vs_latency(fidelity=Fidelity.BENCH, seed=1,
                                      latencies=(1, 2, 3, 5, 7, 10, 25, 100),
                                      n_clients=5, jobs=1):
    return readonly_aborts_plan(fidelity, seed, latencies,
                                n_clients).run(jobs)["aborts"]


# ---------------------------------------------------------------------------
# Figure 11: aborts vs forward-list length (read-only, ss-LAN)
# ---------------------------------------------------------------------------

def fl_length_plan(fidelity=Fidelity.BENCH, seed=1,
                   lengths=(1, 2, 3, 4, 5, 6, 8, 10), n_clients=50):
    base, replications = _base_config(fidelity, read_probability=1.0,
                                      n_clients=n_clients,
                                      network_latency=1.0)
    return Sweep(
        experiment_ids={"aborts": "figure11"},
        titles={"aborts": (
            "Read-only ss-LAN: % transactions aborted vs forward-list "
            f"length cap ({n_clients} clients)")},
        x_label="forward list length",
        base_config=base, replications=replications, xs=lengths,
        configure=lambda cfg, x: cfg.replace(max_forward_list_length=x),
        protocols=("g2pl",), seed=seed)


def figure_aborts_vs_fl_length(fidelity=Fidelity.BENCH, seed=1,
                               lengths=(1, 2, 3, 4, 5, 6, 8, 10),
                               n_clients=50, jobs=1):
    return fl_length_plan(fidelity, seed, lengths,
                          n_clients).run(jobs)["aborts"]


# ---------------------------------------------------------------------------
# Figures 12-15: response time / aborts vs number of clients (s-WAN)
# ---------------------------------------------------------------------------

def clients_sweep_plan(read_probability, fidelity=Fidelity.BENCH, seed=1,
                       client_counts=CLIENT_SWEEP):
    """One client-count sweep, yielding both metrics.

    pr=0.25 gives Figures 12 (response) and 13 (aborts); pr=0.75 gives
    Figures 14 and 15.
    """
    response_fig = {0.25: "12", 0.75: "14"}.get(read_probability, "12/14")
    abort_fig = {0.25: "13", 0.75: "15"}.get(read_probability, "13/15")
    base, replications = _base_config(
        fidelity, read_probability=read_probability, network_latency=500.0)
    suffix = (f"vs number of clients, pr={read_probability:g}, s-WAN "
              f"(latency 500), 25 hot items")
    return Sweep(
        experiment_ids={"response": f"figure{response_fig}",
                        "aborts": f"figure{abort_fig}"},
        titles={"response": f"Mean response time {suffix}",
                "aborts": f"Percentage of transactions aborted {suffix}"},
        x_label="number of clients",
        base_config=base, replications=replications, xs=client_counts,
        configure=lambda cfg, x: cfg.replace(n_clients=x),
        seed=seed)


def clients_sweep_experiment(read_probability, fidelity=Fidelity.BENCH,
                             seed=1, client_counts=CLIENT_SWEEP, jobs=1):
    return clients_sweep_plan(read_probability, fidelity, seed,
                              client_counts).run(jobs)


def figure_vs_clients(read_probability, metric, fidelity=Fidelity.BENCH,
                      seed=1, client_counts=CLIENT_SWEEP, jobs=1):
    return clients_sweep_experiment(read_probability, fidelity, seed,
                                    client_counts, jobs=jobs)[metric]


# ---------------------------------------------------------------------------
# Fault injection: response time / abort rate vs message-loss probability
# ---------------------------------------------------------------------------

def loss_sweep_experiment(fidelity=Fidelity.BENCH, seed=1,
                          losses=LOSS_SWEEP, read_probability=0.6, jobs=1):
    """Both metrics against per-link message-loss probability.

    The paper assumes a perfect network; this extension quantifies how the
    two protocols degrade when messages are dropped and must be recovered
    by timeout/retransmission — g-2PL's longer dependency chains mean one
    lost handoff stalls more transactions than one lost lock grant.
    """
    from repro.network.faults import FaultSpec

    base, replications = _base_config(fidelity,
                                      read_probability=read_probability)
    suffix = (f"vs message-loss probability, pr={read_probability:g}, "
              f"s-WAN (latency 500), 25 hot items")
    return Sweep(
        experiment_ids={"response": "loss-response", "aborts": "loss-aborts"},
        titles={"response": f"Mean response time {suffix}",
                "aborts": f"Percentage of transactions aborted {suffix}"},
        x_label="message-loss probability",
        base_config=base, replications=replications, xs=losses,
        configure=lambda cfg, x: cfg.replace(
            faults=FaultSpec(message_loss=x) if x else None),
        seed=seed).run(jobs)


def figure_loss_sweep(metric="response", fidelity=Fidelity.BENCH, seed=1,
                      losses=LOSS_SWEEP, jobs=1):
    return loss_sweep_experiment(fidelity=fidelity, seed=seed,
                                 losses=losses, jobs=jobs)[metric]


# ---------------------------------------------------------------------------
# Figure "scale": open-arrival population scalability (extension)
# ---------------------------------------------------------------------------

#: Logical-user populations swept in the scale figure.
POPULATION_SWEEP = (1_000, 4_000, 16_000, 64_000)

#: Hot-key skews contrasted in the scale figure (uniform vs Zipf-hot).
#: 0.5 is tuned so both curves coincide at the smallest population and
#: the skewed one peels off as the population grows — the crossover the
#: figure exists to show; steeper skews are contention-capped from the
#: first point and flatter ones never separate within the sweep.
SCALE_SKEWS = (0.0, 0.5)


def population_scale_experiment(fidelity=Fidelity.BENCH, seed=1,
                                populations=POPULATION_SWEEP,
                                skews=SCALE_SKEWS, protocol="g2pl",
                                arrival_rate=5e-6, n_items=1000,
                                jobs=1, progress=None):
    """Throughput and p99 response time vs population size.

    Not in the paper: the published client model is closed-loop, so its
    offered load self-throttles. With open arrivals at a fixed per-user
    rate, total offered load grows linearly with the population and the
    system visibly saturates. The two series contrast uniform access
    with Zipf hot-key skew — under skew the same population drives far
    more conflicts on the few hot items, so throughput peels off the
    uniform curve earlier (the hot-key contention crossover); a note
    records where.

    Returns ``{"throughput": ExperimentResult, "p99": ExperimentResult}``
    built from the same runs.
    """
    base, replications = _base_config(
        fidelity, protocol=protocol, n_items=n_items,
        network_latency=500.0, arrival_rate=arrival_rate)
    suffix = (f"vs population, {protocol}, arrival {arrival_rate:g}/user, "
              f"{n_items} items, s-WAN (latency 500)")
    results = {
        "throughput": ExperimentResult(
            experiment_id="scale-throughput",
            title=f"Committed throughput {suffix}",
            x_label="population (logical users)",
            y_label="committed txns per time unit"),
        "p99": ExperimentResult(
            experiment_id="scale-p99",
            title=f"p99 response time {suffix}",
            x_label="population (logical users)",
            y_label="p99 response time"),
    }
    points = []
    cells = []
    for skew in skews:
        for population in populations:
            config = base.replace(population=population, access_skew=skew)
            points.append((skew, population, config))
            cells.extend(replication_cells(config, replications,
                                           base_seed=seed))
    runs = run_cells(cells, jobs=jobs, progress=progress)
    for index, (skew, population, config) in enumerate(points):
        chunk = runs[index * replications:(index + 1) * replications]
        name = f"zipf={skew:g}"
        results["throughput"].series_for(name).add(
            population, mean_confidence_interval(
                [run.throughput for run in chunk]))
        results["p99"].series_for(name).add(
            population, mean_confidence_interval(
                [run.metrics.p99_response_time for run in chunk]))
    throughput = results["throughput"]
    if len(skews) >= 2:
        uniform = throughput.series[f"zipf={skews[0]:g}"]
        skewed = throughput.series[f"zipf={skews[-1]:g}"]
        crossover = next(
            (x for x, flat, hot in zip(uniform.xs, uniform.ys, skewed.ys)
             if flat > 0 and hot < 0.9 * flat), None)
        if crossover is not None:
            note = (f"hot-key contention crossover: zipf={skews[-1]:g} "
                    f"throughput falls >10% below uniform from "
                    f"population {crossover:,}")
        else:
            note = ("no hot-key contention crossover within this sweep "
                    "(skewed throughput stays within 10% of uniform)")
        for result in results.values():
            result.notes.append(note)
    return results


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1_parameters():
    """Table 1: the simulation parameters, as configured by default."""
    cfg = SimulationConfig()
    return [
        ("Number of servers", "1 (or n_shards home servers when sharded)"),
        ("Number of clients", f"varying (default {cfg.n_clients})"),
        ("Number of hot data items", str(cfg.n_items)),
        ("Transaction execution pattern", "sequential"),
        ("Data items accessed by a transaction",
         f"{cfg.min_ops}-{cfg.max_ops} (uniform, distinct)"),
        ("Percentage of read accesses", "0.00-1.00"),
        ("Network latency", "1-750 time units (Table 2)"),
        ("Computation time per operation",
         f"{cfg.think_min:g}-{cfg.think_max:g} time units"),
        ("Idle time between transactions",
         f"{cfg.idle_min:g}-{cfg.idle_max:g} time units"),
        ("Multiprogramming level at clients", "1"),
    ]


def table2_environments():
    """Table 2: the networking environments."""
    return [(env.description, env.name, env.latency)
            for env in TABLE2_ENVIRONMENTS]
