"""Command-line interface: run single experiments or whole figures.

Installed as ``repro-experiment``. Examples::

    repro-experiment run --protocol g2pl --clients 50 --pr 0.25 \
        --latency 500 --transactions 1000
    repro-experiment run --protocol s2pl --trace --out trace
    repro-experiment compare --pr 0.6 --latency 500
    repro-experiment figure 3
    repro-experiment figure 11 --fidelity smoke
    repro-experiment list
"""

import argparse
import dataclasses
import sys

from repro.core.config import Fidelity, SimulationConfig
from repro.protocols.registry import available_protocols, capability_table

#: Where a command-line run departs from the config defaults: a shorter
#: run, and no per-operation history (so no serializability check).
CLI_DEFAULTS = {"total_transactions": 1000, "warmup_transactions": 100,
                "record_history": False}

#: The config fields that declare a run flag, in field order.
FLAGGED = tuple(spec for spec in dataclasses.fields(SimulationConfig)
                if "flag" in spec.metadata)


# The verbs reach the runner through these two names (tests replace
# them). Each verb imports what it runs — the runner, the experiments,
# analysis, live mode — so ``list`` and ``--help`` load none of it.
def run_simulation(config):
    """:func:`repro.core.runner.run_simulation`, imported on use."""
    from repro.core.runner import run_simulation

    return run_simulation(config)


def compare_protocols(config, protocols, **kwargs):
    """:func:`repro.core.runner.compare_protocols`, imported on use."""
    from repro.core.runner import compare_protocols

    return compare_protocols(config, protocols, **kwargs)


def _add_workload_args(parser):
    """One option per flagged config field, under the field's own name."""
    groups = {None: parser}
    for spec in FLAGGED:
        options = dict(spec.metadata)
        flag, group = options.pop("flag"), options.pop("group", None)
        if group not in groups:
            groups[group] = parser.add_argument_group(group)
        default = CLI_DEFAULTS.get(spec.name, spec.default)
        if isinstance(default, bool):
            options["action"] = "store_true"
        else:
            options.setdefault("type", type(default))
            # what argparse would print for the flag's own dest
            options.setdefault("metavar", None if "choices" in options
                               else flag[2:].replace("-", "_").upper())
        groups[group].add_argument(flag, dest=spec.name, default=default,
                                   **options)
    parser.set_defaults(config=None)  # built from these by main()


def _jobs_type(value):
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, or 0 for all CPUs (got {jobs})")
    return jobs


def _add_jobs_arg(parser):
    parser.add_argument(
        "--jobs", type=_jobs_type, default=1, metavar="N",
        help="parallel worker processes (0 = all CPUs; results are "
             "bit-identical to --jobs 1 for the same seed)")


def _config_from(args, protocol):
    return SimulationConfig(**{**CLI_DEFAULTS, "protocol": protocol,
                               **{spec.name: getattr(args, spec.name)
                                  for spec in FLAGGED}})


def _profiled(args, label, work):
    """Run ``work()`` under cProfile when ``--profile`` was given, writing
    ``profile_<label>.pstats`` next to the other artifacts."""
    if not getattr(args, "profile", False):
        return work()
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return work()
    finally:
        profiler.disable()
        path = f"profile_{label}.pstats"
        profiler.dump_stats(path)
        print(f"wrote {path} (inspect with python -m pstats {path})",
              file=sys.stderr)


def _cmd_run(args):
    config = args.config
    if args.out and config.probe_interval is None:
        # Without an explicit interval, sample roughly once per round trip
        # so the probe CSV is never empty.
        config = config.replace(
            probe_interval=max(2.0 * config.network_latency, 1.0))
    result = _profiled(args, args.protocol, lambda: run_simulation(config))
    print(result.summary())
    print(f"  duration: {result.duration:,.0f} time units, "
          f"throughput: {result.throughput:.5f} txn/unit")
    for key, value in sorted(result.server_stats.items()):
        print(f"  {key}: {value}")
    if args.verbose:
        print(f"  {result.engine_summary()}")
        print(f"  p50/p95/p99 response: "
              f"{result.metrics.p50_response_time:,.1f} / "
              f"{result.metrics.p95_response_time:,.1f} / "
              f"{result.metrics.p99_response_time:,.1f}")
    if result.trace is None:
        return 0
    return _report_trace(result, config, args.out)


def _report_trace(result, config, prefix):
    """Print a traced run's summary and its phase table, and write its
    exports under ``prefix`` when there is one; 1 when a transaction's
    phases do not sum to its response."""
    from repro.obs.decompose import decompose_records

    trace = result.trace
    records = [record for record in trace.txns if record["measured"]]
    decomposition = decompose_records(
        records, label=f"{config.protocol} seed {result.seed}")
    print(trace.summary.describe())
    print(decomposition.describe())
    if prefix:
        from repro.obs.export import (
            write_chrome_trace,
            write_jsonl,
            write_phases_csv,
            write_probes_csv,
        )

        jsonl = write_jsonl(f"{prefix}.jsonl", trace, config=config,
                            seed=result.seed)
        chrome = write_chrome_trace(f"{prefix}.chrome.json", trace)
        probes = write_probes_csv(f"{prefix}.metrics.csv", trace)
        phases = write_phases_csv(f"{prefix}.phases.csv", records)
        print(f"wrote {jsonl} ({len(trace.events)} events, "
              f"{len(trace.txns)} txn records)")
        print(f"wrote {chrome} (open in Perfetto / chrome://tracing)")
        print(f"wrote {probes} ({len(trace.probes)} probe samples)")
        print(f"wrote {phases} ({len(records)} measured txns)")
    return 1 if _violated(decomposition.violations) else 0


def _cmd_compare(args):
    label = "-".join(args.protocols)
    results = _profiled(
        args, label,
        lambda: compare_protocols(args.config, tuple(args.protocols),
                                  replications=args.replications,
                                  jobs=args.jobs))
    for name, result in results.items():
        print(f"  {name:10} {result.summary()}")
        if result.trace_summary is not None:
            print(f"    mean sequential rounds per commit: "
                  f"{result.trace_summary.mean_rounds_per_commit:.2f}")
    if "s2pl" in results and "g2pl" in results:
        from repro.core.runner import improvement_percentage

        improvement = improvement_percentage(results["s2pl"],
                                             results["g2pl"])
        print(f"g-2PL improvement over s-2PL: {improvement:+.1f}% "
              f"(paper: 19.5%-26.9% with updates)")
    return 0


def _violated(violations):
    """Name the first decomposition invariant violation on stderr; true
    when there was one (the verb then exits 1)."""
    if violations:
        print(f"decomposition invariant violated ({len(violations)}): "
              f"{violations[0]}", file=sys.stderr)
    return bool(violations)


def _cmd_report(args):
    from repro.analysis.report import generate_report

    report = generate_report(fidelity=args.fidelity, seed=args.seed,
                             quick=args.quick, jobs=args.jobs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _cmd_figure(args):
    from repro.analysis import ascii_plot, render_experiment
    from repro.core import experiments as exp
    from repro.network.presets import NetworkEnvironment
    from repro.obs.rounds import run_worked_example

    fidelity = Fidelity[args.fidelity.upper()]
    number = args.number
    jobs = args.jobs

    def show(result, improvement=("s2pl", "g2pl")):
        kwargs = {}
        if improvement and all(p in result.series for p in improvement):
            kwargs["improvement_between"] = improvement
        print(render_experiment(result, **kwargs))
        print()
        print(ascii_plot(result))

    if number == "1":
        print(run_worked_example())
    elif number in ("2", "3", "4"):
        pr = {"2": 0.0, "3": 0.6, "4": 1.0}[number]
        show(exp.figure_response_vs_latency(pr, fidelity=fidelity,
                                            jobs=jobs))
    elif number in ("5", "6", "7"):
        env = {"5": NetworkEnvironment.SS_LAN, "6": NetworkEnvironment.MAN,
               "7": NetworkEnvironment.L_WAN}[number]
        show(exp.figure_response_vs_read_probability(env, fidelity=fidelity,
                                                     jobs=jobs))
    elif number in ("8", "9"):
        pr = {"8": 0.6, "9": 0.8}[number]
        show(exp.figure_aborts_vs_latency(pr, fidelity=fidelity, jobs=jobs))
    elif number == "10":
        show(exp.figure_readonly_aborts_vs_latency(fidelity=fidelity,
                                                   jobs=jobs),
             improvement=None)
    elif number == "11":
        show(exp.figure_aborts_vs_fl_length(fidelity=fidelity, jobs=jobs),
             improvement=None)
    elif number in ("12", "13", "14", "15"):
        pr = 0.25 if number in ("12", "13") else 0.75
        metric = "response" if number in ("12", "14") else "aborts"
        show(exp.figure_vs_clients(pr, metric, fidelity=fidelity,
                                   jobs=jobs))
    elif number in ("loss", "loss-aborts"):
        metric = "aborts" if number == "loss-aborts" else "response"
        show(exp.figure_loss_sweep(metric, fidelity=fidelity, jobs=jobs))
    elif number == "scale":
        results = exp.population_scale_experiment(fidelity=fidelity,
                                                  jobs=jobs)
        show(results["throughput"], improvement=None)
        print()
        show(results["p99"], improvement=None)
        for note in results["throughput"].notes:
            print(note)
    elif number == "shard-crossover":
        from repro.analysis.crossover import (
            describe_shard_grid,
            shard_crossover_grid,
        )

        regimes = shard_crossover_grid(fidelity=args.fidelity, jobs=jobs)
        for row in regimes:
            show(row.response)
            print()
        print(describe_shard_grid(regimes))
    elif number == "adaptive":
        from repro.analysis.adaptive import (
            adaptive_crossover_sweep,
            describe_adaptive,
        )

        regime = adaptive_crossover_sweep(fidelity=args.fidelity, jobs=jobs)
        show(regime.response, improvement=None)
        print()
        show(regime.aborts, improvement=None)
        print()
        print(describe_adaptive(regime))
    elif number == "decompose":
        # Sim-vs-live per-phase divergence for both calibration
        # scenarios: the attributed version of PR 5's raw response gap.
        from repro.live.harness import calibrate
        from repro.live.scenario import ScenarioSpec

        for protocol in ("s2pl", "g2pl"):
            spec = ScenarioSpec(SimulationConfig(
                protocol=protocol, n_clients=4, network_latency=2.0))
            print(calibrate(spec).divergence.describe())
            print()
    else:
        print(f"unknown figure {number!r}; choose 1-15, loss, "
              f"loss-aborts, scale, decompose, shard-crossover, "
              f"or adaptive",
              file=sys.stderr)
        return 2
    return 0


def _cmd_live(args):
    from repro.live.harness import calibrate
    from repro.live.scenario import ScenarioSpec

    try:
        spec = ScenarioSpec(args.config, mode=args.mode,
                            repeats=args.repeats, trace_export=args.trace)
    except ValueError as exc:
        print(f"repro-experiment live: error: {exc}", file=sys.stderr)
        return 2
    report = calibrate(spec, time_scale=args.time_scale)
    divergence = report.divergence
    print(report.describe())
    print(divergence.sim.describe())
    print(divergence.live.describe())
    print(divergence.describe())
    if args.trace:
        from repro.obs.export import (
            write_merged_chrome_trace,
            write_phases_csv,
        )

        merged = report.live.merged
        prefix = args.out
        chrome = f"{prefix}.chrome.json"
        csv_path = f"{prefix}.phases.csv"
        write_merged_chrome_trace(chrome, merged.payloads)
        write_phases_csv(csv_path, merged.records.values())
        print(f"wrote {chrome} (all processes on one timeline; open in "
              f"Perfetto / chrome://tracing)")
        print(f"wrote {csv_path} ({len(merged.records)} txn records)")
    if _violated(divergence.sim.violations + divergence.live.violations):
        return 1
    if not report.ok:
        print("calibration FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_list(_args):
    print("protocols:", ", ".join(available_protocols()))
    print(capability_table())
    print("figures: 1 (worked example), 2-4 (response vs latency), "
          "5-7 (response vs read probability), 8-9 (aborts vs latency), "
          "10 (read-only deadlocks), 11 (forward-list length), "
          "12-15 (client scalability), loss / loss-aborts "
          "(fault injection: metrics vs message-loss probability), "
          "scale (open-arrival population: throughput and p99 vs "
          "logical users, uniform vs Zipf hot keys), "
          "shard-crossover (shard count x inter-region latency "
          "dominance grid), "
          "decompose (sim-vs-live per-phase latency divergence for "
          "both calibration scenarios), "
          "adaptive (hybrid-vs-static contention sweep with the "
          "repro.adapt acceptance gate)")
    print("fidelities:", ", ".join(f.label for f in Fidelity))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce the g-2PL vs s-2PL study (ICDE 1998)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one simulation")
    run_parser.add_argument("--protocol", default="g2pl",
                            choices=available_protocols(),
                            help="what each supports (sharding, crash "
                                 "faults): repro-experiment list")
    run_parser.add_argument("--verbose", "-v", action="store_true",
                            help="also print engine counters and "
                                 "response-time percentiles")
    run_parser.add_argument("--profile", action="store_true",
                            help="wrap the run in cProfile and write "
                                 "profile_<protocol>.pstats")
    run_parser.add_argument("--out", default=None, metavar="PREFIX",
                            help="with --trace: write PREFIX.jsonl, "
                                 ".chrome.json, .metrics.csv (probes, one "
                                 "round trip apart unless "
                                 "--probe-interval) and .phases.csv")
    _add_workload_args(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser("compare",
                                    help="race protocols on one workload")
    compare_parser.add_argument("--protocols", nargs="+",
                                default=["s2pl", "g2pl"],
                                choices=available_protocols())
    compare_parser.add_argument("--replications", type=int, default=2)
    compare_parser.add_argument("--profile", action="store_true",
                                help="wrap the comparison in cProfile and "
                                     "write profile_<protocols>.pstats")
    _add_workload_args(compare_parser)
    _add_jobs_arg(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    figure_parser = sub.add_parser("figure",
                                   help="regenerate a paper figure")
    figure_parser.add_argument("number",
                               help="figure number 1-15, or loss / "
                                    "loss-aborts / scale / decompose / "
                                    "shard-crossover / adaptive")
    figure_parser.add_argument("--fidelity", default="bench",
                               choices=[f.label for f in Fidelity])
    _add_jobs_arg(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    report_parser = sub.add_parser(
        "report", help="regenerate the full reproduction report "
                       "(all figures + round-accounting table)")
    report_parser.add_argument("--fidelity", default="bench",
                               choices=[f.label for f in Fidelity])
    report_parser.add_argument("--seed", type=int, default=101)
    report_parser.add_argument("--quick", action="store_true",
                               help="endpoints-only sweeps (smoke check)")
    report_parser.add_argument("--out", default=None, metavar="PATH",
                               help="write markdown here instead of stdout")
    _add_jobs_arg(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    live_parser = sub.add_parser(
        "live", help="run the protocol over real asyncio TCP processes "
                     "(loopback, shaped latency), calibrate against the "
                     "simulator, and attribute the gap per phase")
    live_parser.add_argument("--protocol", default="s2pl",
                             choices=available_protocols())
    live_parser.add_argument("--mode", default="calibrate",
                             choices=("calibrate", "workload"),
                             help="calibrate: the contended-item epochs "
                                  "(--clients is m contenders + 1 primer);"
                                  " workload: replay a --transactions run "
                                  "of the simulator")
    live_parser.add_argument("--repeats", type=int, default=3,
                             help="calibrate-mode epochs (each commits "
                                  "clients-1 measured transactions)")
    live_parser.add_argument("--time-scale", type=float, default=0.02,
                             metavar="S",
                             help="wall seconds per simulation unit "
                                  "(default 0.02)")
    live_parser.add_argument("--out", default="live-trace",
                             metavar="PREFIX",
                             help="output path prefix for --trace "
                                  "artifacts: every endpoint's events "
                                  "merged onto one clock as a Chrome trace,"
                                  " and a per-phase CSV (default: "
                                  "live-trace)")
    _add_workload_args(live_parser)
    # a loopback-sized run: 40 ms one-way at the default time scale
    live_parser.set_defaults(func=_cmd_live, n_clients=4,
                             network_latency=2.0, total_transactions=20,
                             warmup_transactions=0)

    list_parser = sub.add_parser("list", help="list protocols and figures")
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if "config" in args:
        # A combination nothing implements is a usage error, reported the
        # way argparse reports a bad flag; a failure inside the run is not.
        protocols = getattr(args, "protocols", None) or [args.protocol]
        try:
            args.config = _config_from(args, protocols[0])
            for protocol in protocols[1:]:
                args.config.replace(protocol=protocol)
        except ValueError as exc:
            parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
        if args.command == "run" and args.out and not args.config.trace:
            parser.exit(2, f"{parser.prog} run: error: --out writes a "
                           f"trace's exports; it needs --trace\n")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
