"""The repo's benchmark: one command, every metric, outputs checked.

    python ledger/run.py                      # timed run, all 7 workloads
    python ledger/run.py --trace              # traced run: per-layer ledger
    python ledger/run.py --workload closed_g2pl --seed 5 --seconds 8 --trace 0

The last form is the driver contract (BENCHMARK.json): one workload, and
the last line of stdout is one JSON object ``{correct, attempted, failed,
metrics}``.  Without ``--workload`` every workload runs in turn.  The full
result lands in ``<out>/result.json`` (traced: ``result.traced.json`` and
the phase spans in ``trace.jsonl``); ``<out>`` defaults to ``ledger/out/``.

Measurement rules.  Closed batch work at a fixed input size: one process
at a time, one thread, never two workloads at once.  A timed repeat of a
simulation workload is a fresh child process: set-up (interpreter,
imports, config build, an untimed 1/8-size warm-up run), then the run.
Fresh processes differ from each other by more than repeats inside one
process do (NOISE.md), so the median is taken over processes, and every
repeat yields a set-up sample as well.  ``--seconds`` is the budget for
the whole run of a workload, set-up and verification included, and
decides only how many repeats fit (at least ``MIN_REPEATS``); ``--repeats``
fixes R.  All times are reference-host seconds (calibrate.py); raw wall
seconds appear only as ``host.*`` diagnostics.  The timed run has tracing,
profiling and phase spans off; the traced run is separate, pays for them,
and runs its repeats inside one child.

The parent never imports ``repro``; children do, through surface.py only.
"""

import time

_BOOT = time.perf_counter()  # child: as close to interpreter start as we get

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

from calibrate import REF_OPS_PER_S, Sampler, to_ref_seconds  # noqa: E402
from rollup import LAYERS, roll_up  # noqa: E402
from workloads import SMALL_RUN_SHARE, WORKLOADS, SimWorkload  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BASELINE_JSON = os.path.join(HERE, "BASELINE.json")
DEFAULT_OUT = os.path.join(HERE, "out")

RESULT_SCHEMA = 1
RESULT_FILE = {"timed": "result.json", "traced": "result.traced.json"}
DEFAULT_SEED = 73
DEFAULT_REPEATS = {"timed": 5, "traced": 2}
MIN_REPEATS = 3
SWEEP_REPEATS = {"timed": 3, "traced": 1}
#: two sweeps do not fit in the driver's --seconds, but one report has
#: nothing to be byte-identical to
SWEEP_MIN_REPEATS = 2
#: the contract line carries numbers only; a metric that was not measured
#: (result.json: null + skipped_reason) reads as this there
NOT_MEASURED = -1.0


class BenchmarkError(Exception):
    """The benchmark itself could not run (not: the program is slow)."""


# ---------------------------------------------------------------------------
# child: one workload, in its own process
# ---------------------------------------------------------------------------

class Spans:
    """Phase spans of the traced run, kept in memory until the end."""

    def __init__(self, workload):
        self.workload = workload
        self.rows = []

    def add(self, name, start, end, parent=None):
        self.rows.append({"name": name, "start": start, "end": end,
                          "parent": parent, "workload": self.workload})

    @contextmanager
    def span(self, name, parent=None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent)


def _sim_repeat(surface, workload, config, sampler, scratch):
    """One timed repeat: the run (and, for traced_g2pl, the export)."""
    gc.collect()
    with sampler.timed() as run:
        result = surface.run_simulation(config)
    row = run.as_dict()
    export_lines = None
    if workload.export_trace and result.trace is not None:
        path = os.path.join(scratch, "trace_export.jsonl")
        with sampler.timed() as export:
            surface.write_jsonl(path, result.trace, config=config,
                                seed=config.seed)
        with open(path, "rb") as handle:
            export_lines = sum(1 for _ in handle)
        os.remove(path)
        row["export_ref_s"] = export.ref_s
        row["ref_s"] += export.ref_s
        row["wall_s"] += export.wall_s
        row["cpu_s"] += export.cpu_s
        row["export_span"] = (export.start, export.end)
    facts = surface.read_result(result)
    facts["digest"] = surface.digest_of(result)
    facts["export_lines"] = export_lines
    # the modelled system's own failures: an aborted transaction and a
    # shed arrival are outcomes of the model, exact per seed
    facts["ops_attempted"] = (facts["committed"] + facts["aborted"]
                              + facts["popn_shed"])
    facts["ops_failed"] = facts["aborted"] + facts["popn_shed"]
    facts["ops_failed_pct"] = (100.0 * facts["ops_failed"]
                               / facts["ops_attempted"])
    # the one fact that is a wall-clock reading belongs to the row; the
    # rest repeat exactly and are compared across repeats
    row["sim_run_wall_s"] = facts.pop("sim_run_wall_s")
    # engine wall includes the bursts that fell inside it; what is left of
    # the region is assembly + teardown (core), bursts there are negligible
    row["assembly_ref_s"] = to_ref_seconds(
        max(0.0, (run.end - run.start) - row["sim_run_wall_s"]),
        run.ops_per_s)
    return row, facts


def _repeat_spans(spans, index, row):
    name = f"repeat[{index}]"
    export_span = row.get("export_span")
    spans.add(name, row["start"],
              export_span[1] if export_span else row["end"])
    # the split point is derived from the engine's own wall counter (the
    # public engine_stats), not observed: non-engine time is drawn first
    split = row["end"] - row["sim_run_wall_s"]
    spans.add("assemble+teardown", row["start"], split, parent=name)
    spans.add("sim_run", split, row["end"], parent=name)
    if export_span:
        spans.add("export", *export_span, parent=name)


def _traced_cells(sampler, args, spans, out):
    from cells import CELL_SECONDS, run_cells

    with spans.span("cells"):
        out["cells"], out["cells_skipped"] = run_cells(
            sampler, CELL_SECONDS * min(1.0, args.scale))


def _repeat_until(args, default_repeats, min_repeats, one_repeat, started):
    """Run ``one_repeat`` R times, or as often as fits in what is left of
    ``--seconds`` since ``started`` without overshooting (at least
    ``min_repeats``)."""
    rows = []
    while True:
        before = time.perf_counter()
        rows.append(one_repeat(len(rows)))
        now = time.perf_counter()
        if args.repeats is not None:
            if len(rows) >= args.repeats:
                return rows
        elif args.seconds is None or args.trace:
            if len(rows) >= default_repeats:
                return rows
        elif (len(rows) >= min_repeats
              and now - started + (now - before) > args.seconds):
            return rows


def _verify_sim(surface, workload, args):
    """The 1/8-size run with history on: serializability, strictness,
    2PC atomicity and the window ledger are the runner's own checks and
    raise; tracing must not move the trajectory."""
    checks = {}
    keywords = workload.config_keywords(args.seed, args.scale,
                                        share=SMALL_RUN_SHARE,
                                        record_history=True)
    try:
        result = surface.run_simulation(surface.SimulationConfig(**keywords))
    except AssertionError as exc:
        print(f"ledger: {workload.name}: history check failed: {exc}",
              file=sys.stderr)
        return {"history_checks_pass": False}
    checks["history_checks_pass"] = bool(
        result.serializability is not None and result.serializability.ok)
    if workload.export_trace:
        plain = dict(keywords, trace=False, probe_interval=None)
        untraced = surface.read_result(surface.run_simulation(
            surface.SimulationConfig(**plain)))
        traced = surface.read_result(result)
        checks["trace_agrees_with_untraced"] = all(
            traced[key] == untraced[key] for key in
            ("committed", "aborted", "response_mean", "messages"))
    return checks


def _profile_sim(surface, workload, config, scratch):
    gc.collect()
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = surface.run_simulation(config)
    if workload.export_trace and result.trace is not None:
        path = os.path.join(scratch, "trace_export.jsonl")
        surface.write_jsonl(path, result.trace, config=config,
                            seed=config.seed)
        os.remove(path)
    profiler.disable()
    wall_s = time.perf_counter() - started
    rolled = roll_up(pstats.Stats(profiler).stats, surface.PACKAGE_ROOT)
    rolled["wall_s"] = wall_s
    return rolled


def child_sim(workload, args, sampler):
    spans = Spans(workload.name)
    sampler.start()
    with sampler.timed() as setup:
        import surface

        config = surface.SimulationConfig(
            **workload.config_keywords(args.seed, args.scale))
        warmup_at = time.perf_counter()
        surface.run_simulation(surface.SimulationConfig(
            **workload.config_keywords(args.seed, args.scale,
                                       share=SMALL_RUN_SHARE)))
    # set-up is everything this process has cost so far: the interpreter's
    # own start is in its CPU time, though not in the region
    out = {"setup_ref_s": to_ref_seconds(
        time.process_time() - setup.sampling_s, setup.ops_per_s)}
    spans.add("setup", _BOOT, setup.end)
    spans.add("warmup", warmup_at, setup.end, parent="setup")
    scratch = _scratch_dir(args)
    total, warmup = workload.sized(args.scale)
    facts_seen = []
    pairs = []

    def one_repeat(index):
        row, facts = _sim_repeat(surface, workload, config, sampler, scratch)
        facts_seen.append(facts)
        if args.trace:
            _repeat_spans(spans, index, row)
            if workload.export_trace:  # the pair: same run, tracing off
                gc.collect()
                with sampler.timed() as plain:
                    surface.run_simulation(config.replace(
                        trace=False, probe_interval=None))
                traced_ref_s = row["ref_s"] - row.get("export_ref_s", 0.0)
                pairs.append(100.0 * (traced_ref_s - plain.ref_s)
                             / plain.ref_s)
        return row

    repeats = [one_repeat(index) for index in range(args.repeats)]
    facts = facts_seen[-1]
    out.update(
        repeats=repeats, facts=facts,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        digest=facts["digest"])
    # contract counts: transactions the simulator had to account for and
    # the ones it lost (0 unless the simulator is broken: the contract
    # asks for workloads on which no operation fails, and the model's
    # failure share is the end-to-end metric ops_failed_pct instead)
    out["attempted"] = total - warmup
    out["failed"] = abs(total - warmup
                        - (facts["committed"] + facts["aborted"]))
    checks = {
        "repeats_identical": all(seen == facts for seen in facts_seen),
        "accounting_closes": (out["failed"] == 0
                              and facts["warmup_discarded"] == warmup),
    }
    if workload.export_trace:
        checks["jsonl_line_per_record"] = (
            facts["export_lines"] == facts["trace_records"] + 1)
    if args.trace:
        sampler.stop()  # its handler must not show up in the profile
        with spans.span("profile"):
            out["profile"] = _profile_sim(surface, workload, config, scratch)
        sampler.start()
        _traced_cells(sampler, args, spans, out)
        out["trace_overhead_pct"] = (statistics.median(pairs)
                                     if pairs else None)
    if args.verify:
        with spans.span("verify"):
            checks.update(_verify_sim(surface, workload, args))
    out.update(checks=checks, spans=spans.rows)
    return out


def _children_cpu_s():
    """CPU seconds (user + system) of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run_shimmed(surface, scratch, target):
    """Run ``target`` (argv after ``python``) under shim.py; returns the
    region as a repeat row, in reference seconds."""
    stats_path = os.path.join(scratch, "shim_stats.json")
    argv = [sys.executable, os.path.join(HERE, "shim.py"), stats_path]
    start, before = time.perf_counter(), _children_cpu_s()
    done = subprocess.run(argv + list(target), env=surface.subprocess_env(),
                          stdout=subprocess.DEVNULL, check=False)
    end, after = time.perf_counter(), _children_cpu_s()
    with open(stats_path) as handle:
        stats = json.load(handle)
    os.remove(stats_path)
    wall_s = end - start - stats["sampling_s"]
    cpu_s = after - before - stats["sampling_s"]
    return {"start": start, "end": end, "wall_s": wall_s, "cpu_s": cpu_s,
            "ref_s": to_ref_seconds(cpu_s, stats["ops_per_s"]),
            "ops_per_s": stats["ops_per_s"], "samples": stats["samples"],
            "sampling_s": stats["sampling_s"],
            "peak_rss_kb": stats["peak_rss_kb"],
            "returncode": done.returncode}


def child_sweep(workload, args, sampler):
    import surface

    spans = Spans(workload.name)
    scratch = _scratch_dir(args)
    setup_rows = [_run_shimmed(surface, scratch,
                               ["-m", surface.CLI_MODULE, "list"])
                  for _ in range(workload.setup_round_trips)]
    spans.add("setup", setup_rows[0]["start"], setup_rows[-1]["end"])
    if any(row["returncode"] != 0 for row in setup_rows):
        raise BenchmarkError("`cli list` exited non-zero")
    report_path = os.path.join(scratch, "report.md")
    sweep = [surface.SWEEP_SCRIPT, *surface.SWEEP_FLAGS,
             "--seed", str(args.seed), "--out", report_path]
    reports = []

    def read_report():
        with open(report_path) as handle:
            facts = surface.read_report(handle.read())
        os.remove(report_path)
        return facts

    def one_repeat(index):
        row = _run_shimmed(surface, scratch, sweep)
        spans.add(f"repeat[{index}]", row["start"], row["end"])
        if row["returncode"] != 0:
            raise BenchmarkError(
                f"reproduce_all exited {row['returncode']}")
        reports.append(read_report())
        if None in (reports[-1]["response_mean"], reports[-1]["abort_pct"]):
            raise BenchmarkError(
                "the report lacks the figures the simulated metrics are "
                f"read from: {reports[-1]['missing_sections']}")
        return row

    repeats = _repeat_until(args, SWEEP_REPEATS[args.mode],
                            SWEEP_MIN_REPEATS, one_repeat, _BOOT)
    report = reports[-1]
    out = {
        "setup_samples": [row["ref_s"] for row in setup_rows],
        "repeats": repeats,
        # the sweep's operations are its report sections; the only failure
        # share of the model the report prints is the abort percentage
        "facts": {"response_mean": report["response_mean"],
                  "abort_pct": report["abort_pct"],
                  "ops_failed_pct": report["abort_pct"],
                  "ops_attempted": report["sections"],
                  "ops_failed": len(report["missing_sections"]),
                  "committed": workload.cells * workload.measured_per_cell},
        "peak_rss_kb": max(row["peak_rss_kb"] for row in repeats),
        "digest": hashlib.sha256(report["body"].encode()).hexdigest(),
        "attempted": report["sections"],
        "failed": len(report["missing_sections"]),
    }
    checks = {
        "all_sections_present": not report["missing_sections"],
        "repeats_identical": all(seen["body"] == report["body"]
                                 for seen in reports),
    }
    if args.trace:
        profile_path = os.path.join(scratch, "sweep.pstats")
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", profile_path, *sweep],
            env=surface.subprocess_env(), stdout=subprocess.DEVNULL,
            check=False)
        wall_s = time.perf_counter() - started
        spans.add("profile", started, started + wall_s)
        if done.returncode != 0:
            raise BenchmarkError("profiled reproduce_all exited non-zero")
        out["profile"] = roll_up(pstats.Stats(profile_path).stats,
                                 surface.PACKAGE_ROOT)
        out["profile"]["wall_s"] = wall_s
        os.remove(profile_path)
        # the profiled sweep is the second copy a one-repeat traced run
        # needs to show the report repeats bytewise
        checks["repeats_identical"] &= read_report()["body"] == report["body"]
        sampler.start()  # the grandchildren sampled themselves until here
        _traced_cells(sampler, args, spans, out)
        out["trace_overhead_pct"] = None
    out.update(checks=checks, spans=spans.rows)
    return out


def _scratch_dir(args):
    path = os.path.join(args.out, "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def child_main(args):
    workload = WORKLOADS[args.child]
    sampler = Sampler()
    try:
        run = child_sim if isinstance(workload, SimWorkload) else child_sweep
        payload = run(workload, args, sampler)
    finally:
        sampler.stop()
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# parent: orchestration, metric assembly, output
# ---------------------------------------------------------------------------

def _spawn(name, args, repeats, verify=True):
    """One child of workload ``name`` running ``repeats`` repeats inside
    itself (None: the sweep child fits its own into ``--seconds``)."""
    argv = [sys.executable, os.path.abspath(__file__), "--child", name,
            "--seed", str(args.seed), "--scale", repr(args.scale),
            "--out", args.out, "--trace", str(int(args.trace))]
    if repeats is not None:
        argv += ["--repeats", str(repeats)]
    if args.seconds is not None:
        argv += ["--seconds", repr(args.seconds)]
    if verify:
        argv.append("--verify")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        raise BenchmarkError(
            f"workload {name}: child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values):
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values),
            "iqr": quartiles[2] - quartiles[0]}


def _end_to_end(payload):
    facts = payload["facts"]
    run = _summary([row["ref_s"] for row in payload["repeats"]])
    return {
        "setup_s": _summary(payload["setup_samples"]),
        "run_ref_s": run,
        "commits_per_ref_s": {"value": facts["committed"] / run["value"]},
        "peak_rss_mb": {"value": payload["peak_rss_kb"] / 1024.0},
        "sim_response_mean": {"value": facts["response_mean"]},
        "sim_abort_pct": {"value": facts["abort_pct"]},
        "ops_failed_pct": {"value": facts["ops_failed_pct"]},
    }


_COUNTERS = {
    "sim.events": "events",
    "sim.peak_heap_depth": "peak_heap_depth",
    "sim.cancelled_events": "cancelled_events",
    "network.messages": "messages",
    "network.retransmissions": "retransmissions",
    "network.duplicates_suppressed": "duplicates_suppressed",
    "protocols.aborts_initiated": "aborts_initiated",
    "protocols.deadlocks_found": "deadlocks_found",
    "protocols.avoidance_aborts": "avoidance_aborts",
    "protocols.mean_fl_length": "mean_fl_length",
    "protocols.sharded.twopc_commits": "twopc_commits",
    "protocols.sharded.twopc_aborts": "twopc_aborts",
    "protocols.sharded.distributed_deadlocks": "distributed_deadlocks",
    "workload.arrivals": "popn_arrivals",
    "workload.started": "popn_started",
    "workload.busy_skipped": "popn_busy_skipped",
    "workload.shed": "popn_shed",
    "workload.peak_inflight": "popn_peak_inflight",
    "obs.trace_events": "trace_events",
}
_DERIVED = ("sim.events_per_commit", "sim.events_per_ref_s",
            "network.messages_per_commit", "protocols.commit_ratio",
            "core.assembly_ref_s")
_NO_RESULT = "the workload's only output is its report: no public counters"


def _entry(value, skipped_reason):
    if value is None:
        return {"value": None, "skipped_reason": skipped_reason}
    return {"value": value}


def _per_layer(payload):
    facts = payload["facts"]
    repeats = payload["repeats"]
    refs = [row["ref_s"] for row in repeats]
    run_ref_s = statistics.median(refs)
    run_wall_s = statistics.median(row["wall_s"] for row in repeats)
    profile = payload["profile"]
    metrics = {}
    for layer in LAYERS:
        share = profile["self_s"][layer] / profile["total_s"]
        metrics[f"{layer}.self_share"] = {"value": share}
        metrics[f"{layer}.self_ref_s"] = {"value": share * run_ref_s}
        metrics[f"{layer}.calls_in"] = {"value": profile["calls_in"][layer]}
    for name, value in payload["cells"].items():
        metrics[name] = _entry(value, payload["cells_skipped"].get(name))
    counters = dict.fromkeys([*_COUNTERS, *_DERIVED])
    if "events" in facts:  # a simulation workload: the public result
        committed = facts["committed"]
        counters.update(
            {name: facts[key] for name, key in _COUNTERS.items()})
        counters.update({
            "sim.events_per_commit": facts["events"] / committed,
            "sim.events_per_ref_s": facts["events"] / run_ref_s,
            "network.messages_per_commit": facts["messages"] / committed,
            "protocols.commit_ratio":
                committed / (committed + facts["aborted"]),
            "core.assembly_ref_s": statistics.median(
                row["assembly_ref_s"] for row in repeats),
        })
    for name, value in counters.items():
        metrics[name] = _entry(value, _NO_RESULT)
    exports = [row["export_ref_s"] for row in repeats
               if "export_ref_s" in row]
    metrics["obs.export_ref_s"] = _entry(
        statistics.median(exports) if exports else None,
        "the workload exports no trace")
    metrics["obs.trace_overhead_pct"] = _entry(
        payload["trace_overhead_pct"],
        "paired traced/untraced runs: traced_g2pl only")
    metrics["host.calib_ops_per_s"] = {"value": statistics.fmean(
        row["ops_per_s"] for row in repeats)}
    metrics["host.run_wall_s"] = {"value": run_wall_s}
    metrics["host.repeat_spread_pct"] = {
        "value": 100.0 * (max(refs) - min(refs)) / run_ref_s}
    metrics["host.profile_overhead_x"] = {
        "value": profile["wall_s"] / run_wall_s}
    return metrics


def _run_children(name, args):
    """Run one workload in its child(ren); returns one merged payload."""
    if not isinstance(WORKLOADS[name], SimWorkload):
        return _spawn(name, args, args.repeats)
    if args.trace:
        return _spawn(name, args, args.repeats or DEFAULT_REPEATS["traced"])
    # a timed repeat is a fresh child, the first one also verifies
    children = _repeat_until(
        args, DEFAULT_REPEATS["timed"], MIN_REPEATS,
        lambda index: _spawn(name, args, 1, verify=index == 0),
        time.perf_counter())
    first = children[0]
    first["checks"]["repeats_identical"] = all(
        child["checks"]["repeats_identical"]
        and child["facts"] == first["facts"] for child in children)
    first["checks"]["accounting_closes"] = all(
        child["checks"]["accounting_closes"] for child in children)
    return dict(
        first,
        repeats=[row for child in children for row in child["repeats"]],
        setup_samples=[child["setup_ref_s"] for child in children],
        peak_rss_kb=max(child["peak_rss_kb"] for child in children),
        spans=[span for child in children for span in child["spans"]])


def run_workload(name, args, spec, baseline):
    """Run one workload; returns its result record."""
    payload = _run_children(name, args)
    if args.trace:
        metrics, declared = _per_layer(payload), spec["per_layer"]
    else:
        metrics, declared = _end_to_end(payload), spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(units):
        raise BenchmarkError(
            f"metrics computed and metrics declared in BENCHMARK.json "
            f"differ: {sorted(set(metrics) ^ set(units))}")
    for metric_name, entry in metrics.items():
        entry["unit"] = units[metric_name]
    checks = payload["checks"]
    known = (baseline["digests"].get(name)
             if baseline and baseline["seed"] == args.seed
             and baseline["scale"] == args.scale else None)
    return {
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "ops_attempted": payload["facts"]["ops_attempted"],
        "ops_failed": payload["facts"]["ops_failed"],
        "digest": payload["digest"],
        "trajectory_changed": (None if known is None
                               else known != payload["digest"]),
        "metrics": metrics,
        "repeats": [{key: row[key] for key in
                     ("wall_s", "cpu_s", "ref_s", "ops_per_s", "samples")}
                    for row in payload["repeats"]],
        "spans": payload["spans"],
    }


def _print_workload(name, record):
    for metric_name, entry in record["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        note = ""
        if "n" in entry:
            note = (f"  (median of {entry['n']}: "
                    f"{entry['min']:.6g} .. {entry['max']:.6g})")
        elif value is None:
            note = f"  ({entry['skipped_reason']})"
        print(f"{name:16s} {metric_name:50s} {shown:>12s} "
              f"{entry['unit']}{note}")
    failed_checks = [key for key, value in record["checks"].items()
                     if value is False]
    print(f"{name:16s} attempted={record['attempted']} "
          f"failed={record['failed']} "
          f"ops_failed={record['ops_failed']}"
          f"/{record['ops_attempted']} "
          f"correct={record['correct']} "
          f"trajectory_changed={record['trajectory_changed']}"
          + (f" FAILED CHECKS: {failed_checks}" if failed_checks else ""))


def _load_json(path):
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def parent_main(args):
    spec = _load_json(BENCHMARK_JSON)
    if spec is None:
        raise BenchmarkError(f"{BENCHMARK_JSON} is missing")
    baseline = _load_json(BASELINE_JSON)
    names = args.workload or list(WORKLOADS)
    os.makedirs(args.out, exist_ok=True)
    origin = time.perf_counter()
    result = {
        "schema": RESULT_SCHEMA, "mode": args.mode,
        "seed": args.seed, "scale": args.scale,
        "ref_ops_per_s": REF_OPS_PER_S, "python": sys.version.split()[0],
        "workloads": {},
    }
    spans = []
    try:
        for name in names:
            record = run_workload(name, args, spec, baseline)
            spans.extend(record.pop("spans"))
            result["workloads"][name] = record
            _print_workload(name, record)
    finally:
        shutil.rmtree(os.path.join(args.out, "tmp"), ignore_errors=True)
    with open(os.path.join(args.out, RESULT_FILE[args.mode]), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(args.out, "trace.jsonl"), "w") as handle:
            for span in spans:
                span["start"] -= origin
                span["end"] -= origin
                handle.write(json.dumps(span) + "\n")
    if args.workload and len(args.workload) == 1:
        record = result["workloads"][args.workload[0]]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric_name: {
                    "value": (NOT_MEASURED if entry["value"] is None
                              else entry["value"]),
                    "unit": entry["unit"]}
                for metric_name, entry in record["metrics"].items()},
        }))
    return 0 if all(record["correct"]
                    for record in result["workloads"].values()) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the ledger benchmark (see ledger/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append",
                        help="run only this workload (repeatable; default: "
                             "all, in order); given once, stdout ends with "
                             "the contract's JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="budget for a workload's whole run; fits as "
                             "many timed repeats as it allows (at least "
                             f"{MIN_REPEATS}; figure_sweep "
                             f"{SWEEP_MIN_REPEATS})")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1),
                        help="the traced run: per-layer metrics, "
                             "trace.jsonl (bare flag or 0|1)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every transaction count "
                             "(self-test and sizing only)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed repeat count (overrides --seconds)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for result.json, "
                             "result.traced.json and trace.jsonl")
    parser.add_argument("--child", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--verify", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    args.mode = "traced" if args.trace else "timed"
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        return child_main(args) if args.child else parent_main(args)
    except BenchmarkError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
