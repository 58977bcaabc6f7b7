"""The frozen surface: every ``repro`` name the ledger touches.

Nothing else under ``ledger/`` imports ``repro``.  The benchmark measures
the program from outside, through public functions only, so that a later
change to ``src/`` can be measured by an unchanged benchmark; this file
is the complete list of what "public" means here (README.md repeats it).

Two tiers:

* the end-to-end surface is imported eagerly — a workload that cannot run
  is a hard failure;
* the direct-drive surface (``CELL_SURFACE``) is resolved lazily through
  :func:`need`, so a cell whose symbol has gone reports ``null`` with a
  ``skipped_reason`` instead of aborting the run.
"""

import importlib
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
PACKAGE_ROOT = os.path.join(SRC_DIR, "repro")
#: figure_sweep runs these as ``__main__`` in a subprocess
SWEEP_SCRIPT = os.path.join(REPO_ROOT, "scripts", "reproduce_all.py")
SWEEP_FLAGS = ("--fidelity", "smoke", "--no-plots", "--jobs", "1")
CLI_MODULE = "repro.cli"

if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

from repro.core.config import SimulationConfig  # noqa: E402
from repro.core.runner import run_simulation  # noqa: E402
from repro.obs.export import write_jsonl  # noqa: E402
from repro.perf.fingerprint import (  # noqa: E402
    fingerprint_digest,
    result_fingerprint,
)

#: ``SimulationConfig`` flat keywords the workloads set (workloads.py)
CONFIG_KEYWORDS = (
    "protocol", "n_clients", "n_items", "read_probability",
    "network_latency", "total_transactions", "warmup_transactions", "seed",
    "record_history", "population", "arrival_rate", "access_skew",
    "streaming", "max_inflight_per_site", "n_shards", "n_regions",
    "intra_region_latency", "cross_shard_probability", "commit_protocol",
    "faults", "trace", "probe_interval",
)

#: classes and functions the direct-drive cells call (cells.py)
CELL_SURFACE = {
    "Simulator": "repro.sim.engine:Simulator",
    "Timer": "repro.sim.timers:Timer",
    "RandomStreams": "repro.sim.rng:RandomStreams",
    "Network": "repro.network.transport:Network",
    "Site": "repro.network.topology:Site",
    "UniformTopology": "repro.network.topology:UniformTopology",
    "LockTable": "repro.locking.lock_table:LockTable",
    "LockMode": "repro.locking.modes:LockMode",
    "PrecedenceGraph": "repro.protocols.precedence:PrecedenceGraph",
    "WorkloadGenerator": "repro.workload.generator:WorkloadGenerator",
    "PoissonArrivals": "repro.workload.arrivals:PoissonArrivals",
    "ZipfItemSampler": "repro.workload.population:ZipfItemSampler",
    "MetricsCollector": "repro.stats.collector:MetricsCollector",
    "TxnOutcome": "repro.protocols.transaction:TxnOutcome",
    "Tracer": "repro.obs.tracer:Tracer",
    "encode_frame": "repro.live.codec:encode_frame",
    "decode_frame": "repro.live.codec:decode_frame",
    "GShip": "repro.protocols.messages:GShip",
    "ForwardList": "repro.protocols.forward_list:ForwardList",
    "FLEntry": "repro.protocols.forward_list:FLEntry",
    "TxnRef": "repro.protocols.forward_list:TxnRef",
}


class SurfaceMissing(Exception):
    """A direct-drive symbol is gone; the message is the skipped_reason."""


def need(name):
    """Resolve one ``CELL_SURFACE`` entry or raise :class:`SurfaceMissing`."""
    module_name, _, attribute = CELL_SURFACE[name].partition(":")
    try:
        return getattr(importlib.import_module(module_name), attribute)
    except (ImportError, AttributeError) as exc:
        raise SurfaceMissing(
            f"{CELL_SURFACE[name]} is gone ({exc})") from exc


def subprocess_env():
    """Environment for grandchildren that import ``repro`` themselves."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + extra if extra else "")
    return env


def digest_of(result):
    return fingerprint_digest(result_fingerprint(result))


def read_result(result):
    """Every ``SimulationResult`` / ``engine_stats`` / ``server_stats``
    field the ledger reads, as one flat dict of plain values.

    Statistics a protocol family does not produce (2PC counters on a
    single server, population counters on a closed loop, ...) read 0:
    the thing they count did not happen.
    """
    metrics = result.metrics
    engine = result.engine_stats
    server = result.server_stats
    trace = result.trace
    facts = {
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "warmup_discarded": metrics.warmup_discarded,
        "response_mean": result.mean_response_time,
        "abort_pct": result.abort_percentage,
        "messages": result.messages_sent,
        "events": engine["processed_events"],
        "peak_heap_depth": engine["peak_heap_depth"],
        "cancelled_events": engine["cancelled_events"],
        "sim_run_wall_s": engine["wall_seconds"],
        "aborts_initiated": server["aborts_initiated"],
        "trace_events": len(trace.events) if trace is not None else 0,
        "trace_records": (len(trace.events) + len(trace.txns)
                          + len(trace.probes) if trace is not None else 0),
    }
    for key in ("deadlocks_found", "avoidance_aborts", "mean_fl_length",
                "twopc_commits", "twopc_aborts", "distributed_deadlocks",
                "retransmissions", "duplicates_suppressed",
                "popn_arrivals", "popn_started", "popn_busy_skipped",
                "popn_shed", "popn_peak_inflight"):
        facts[key] = server.get(key, 0)
    return facts


# -- figure_sweep: the report is the program's only output -------------------

#: section headers a complete smoke report carries (prefix match)
SWEEP_SECTIONS = tuple(
    ["## Table 1 ", "## Table 2 ", "## Figure 1 ", "## Round accounting "]
    + [f"## Figure {n} " for n in range(2, 16)])
_FOOTER = "_Generated in"


def _column_mean(section, column):
    """Mean of one named column of the section's table."""
    lines = section.splitlines()
    rule = next(i for i, line in enumerate(lines)
                if line.strip().startswith("---"))
    index = lines[rule - 1].split().index(column) - len(
        lines[rule - 1].split())  # from the right: row labels may hold spaces
    values = []
    for line in lines[rule + 1:]:
        cells = line.split()
        if not cells or line.startswith("```"):
            break
        values.append(float(cells[index].replace(",", "")))
    return sum(values) / len(values)


def read_report(text):
    """What the ledger reads from a ``reproduce_all`` report.

    ``response_mean`` is the mean of the g-2PL columns of Figures 6, 12
    and 14 (response vs read probability and vs clients, 23 independent
    cells; Figure 7 replays Figure 6's trajectories at three times the
    latency and would add nothing) and ``abort_pct`` the mean of the
    g-2PL columns of Figures 13 and 15 (aborts vs clients): the paper's
    two metrics as the report prints them.
    ``body`` drops the wall-time footer so reports compare bytewise.
    """
    sections = {}
    for chunk in text.split("\n## ")[1:]:
        sections["## " + chunk.split("\n", 1)[0]] = chunk

    def find(prefix):
        return next((body for title, body in sections.items()
                     if title.startswith(prefix)), None)

    def column_mean(*prefixes):
        found = [find(prefix) for prefix in prefixes]
        if None in found:
            return None
        return sum(_column_mean(body, "g2pl") for body in found) / len(found)

    return {
        "missing_sections": [prefix.strip() for prefix in SWEEP_SECTIONS
                             if find(prefix) is None],
        "sections": len(SWEEP_SECTIONS),
        "body": text.split(_FOOTER)[0],
        "response_mean": column_mean("## Figure 6 ", "## Figure 12 ",
                                     "## Figure 14 "),
        "abort_pct": column_mean("## Figure 13 ", "## Figure 15 "),
    }
