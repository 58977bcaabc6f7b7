"""Run harness: 1 server + N client processes, then sim-vs-live calibration.

:func:`run_live` launches one OS process per site (``python -m
repro.live.server`` / ``...client``), each talking real asyncio TCP on
loopback with userspace latency shaping, polls them all (the first
endpoint to die fails the run at once, named first), and merges their
result payloads into a :class:`~repro.live.results.MergedRun`.

:func:`calibrate` additionally runs the *same scenario* under the
simulator (:func:`repro.live.scenario.run_reference`) and compares:

* **history** — the merged live history must be serializable and strict
  (checked with the same :mod:`repro.validate` checkers the simulator
  uses);
* **rounds** — per-transaction sequential-round counts (the paper's
  3m vs 2m+1 arithmetic) must match the simulator **exactly**,
  transaction by transaction;
* **response** — live wall-clock response times (in simulation units)
  are compared with the simulator's per transaction; shaped latency
  dominates, loopback TCP and scheduler noise are the residue;
* **phases** — both worlds' per-phase latency decompositions over the
  same transactions, and the response gap attributed phase by phase
  (:class:`~repro.obs.decompose.DivergenceReport`).

Every comparison runs over one population: the transactions committed
and measured in both worlds.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.live.endpoint import HANDSHAKE_TIMEOUT
from repro.live.results import MergedRun, load_payload
from repro.live.scenario import run_reference
from repro.obs.decompose import compare as attribute_gap
from repro.obs.decompose import decompose_records
from repro.protocols.base import SERVER_SITE_ID
from repro.validate.serializability import check_history
from repro.validate.strictness import check_strictness

#: default wall seconds per simulation time unit: latency 2.0 units =
#: 40 ms one-way, calibrate-mode stagger margins >= 10 ms
DEFAULT_TIME_SCALE = 0.02

#: wall seconds between polls of the endpoint processes
POLL_INTERVAL = 0.05


def free_ports(count, host="127.0.0.1"):
    """Distinct currently-free TCP ports (bind-to-zero trick)."""
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def _python_env():
    """Subprocess environment with ``repro``'s parent dir on PYTHONPATH."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_dir if not existing
                         else f"{src_dir}{os.pathsep}{existing}")
    return env


@dataclass
class LiveRunResult:
    """A finished live run, merged."""

    spec: object
    merged: MergedRun
    time_scale: float
    wall_seconds: float

    @property
    def committed(self):
        return self.merged.committed


def _stderr_of(workdir, site_id):
    with open(os.path.join(workdir, f"site-{site_id}.err"),
              encoding="utf-8", errors="replace") as handle:
        return handle.read().strip()


def _wait_all(procs, deadline, workdir):
    """Poll every endpoint until all exit 0. The first non-zero exit, or
    the deadline, raises; the caller kills whatever is still running."""
    running = dict(procs)
    while running:
        for site_id, proc in list(running.items()):
            code = proc.poll()
            if code is None:
                continue
            del running[site_id]
            if code != 0:
                raise RuntimeError(
                    f"live run failed: site {site_id} (exit {code}) failed "
                    f"first; killing sites {sorted(running)}\n"
                    f"-- site {site_id} stderr --\n"
                    f"{_stderr_of(workdir, site_id)}")
        if running and time.monotonic() >= deadline:
            detail = "\n".join(
                f"-- site {site_id} stderr --\n{_stderr_of(workdir, site_id)}"
                for site_id in sorted(running))
            raise RuntimeError(
                f"live run failed: sites {sorted(running)} still running "
                f"at the deadline (timeout)\n{detail}")
        time.sleep(POLL_INTERVAL)


def run_live(spec, time_scale=DEFAULT_TIME_SCALE, workdir=None,
             lead=1.0, grace=None, timeout=None):
    """Execute ``spec`` across real processes; returns a
    :class:`LiveRunResult`.

    Every endpoint is polled, so a dead one fails the run at once: the
    first to exit non-zero is named first, with its stderr, and the rest
    are killed. A run still going ``timeout`` wall seconds after launch
    fails naming the endpoints that had not finished. Each endpoint's
    stdout and stderr go to ``site-<id>.out`` / ``site-<id>.err`` in the
    workdir, so no pipe can fill and stall it."""
    if grace is None:
        # Long enough for a full round trip plus scheduling noise.
        grace = max(1.0, 4.0 * spec.latency * time_scale)
    site_ids = [SERVER_SITE_ID] + spec.client_ids
    ports = free_ports(len(site_ids))
    port_map = dict(zip(site_ids, ports))
    if timeout is None:
        timeout = 3 * HANDSHAKE_TIMEOUT + lead \
            + spec.horizon() * time_scale + grace
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-live-")
    procs = []
    wall_start = time.monotonic()
    try:
        for site_id in site_ids:
            role = "server" if site_id == SERVER_SITE_ID else "client"
            config = {
                "role": role,
                "site_id": site_id,
                "spec": spec.to_dict(),
                "port_map": {str(s): p for s, p in port_map.items()},
                "time_scale": time_scale,
                "result_path": os.path.join(workdir,
                                            f"result-{site_id}.json"),
                "lead": lead,
                "grace": grace,
            }
            config_path = os.path.join(workdir, f"config-{site_id}.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            base = os.path.join(workdir, f"site-{site_id}")
            with open(f"{base}.out", "w") as out, \
                    open(f"{base}.err", "w") as err:
                procs.append((site_id, subprocess.Popen(
                    [sys.executable, "-m", f"repro.live.{role}",
                     config_path],
                    env=_python_env(), stdout=out, stderr=err)))
        _wait_all(procs, wall_start + timeout, workdir)
        payloads = [load_payload(os.path.join(workdir,
                                              f"result-{site_id}.json"))
                    for site_id in site_ids]
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return LiveRunResult(spec=spec, merged=MergedRun(payloads),
                         time_scale=time_scale,
                         wall_seconds=time.monotonic() - wall_start)


# -- calibration --------------------------------------------------------------


@dataclass
class CalibrationReport:
    """Live-vs-sim comparison for one scenario."""

    spec: object
    live: LiveRunResult
    reference: object                    # SimReference
    serializable: bool = False
    strict: bool = False
    committed_match: bool = False
    n_compared: int = 0
    rounds_matched: int = 0
    round_mismatches: list = field(default_factory=list)
    live_mean_response: float = 0.0
    sim_mean_response: float = 0.0
    mean_abs_delta: float = 0.0          # sim units, mean |live - sim|
    max_abs_delta: float = 0.0
    mean_relative_delta: float = 0.0     # vs sim response, mean |.|/sim
    divergence: object = None            # DivergenceReport, per phase

    @property
    def rounds_exact(self):
        return (self.n_compared > 0
                and self.rounds_matched == self.n_compared
                and not self.round_mismatches)

    @property
    def ok(self):
        """Calibrate mode is fully deterministic, so the committed sets
        must be identical. Workload mode is horizon-bounded: wall-clock
        jitter can move the last transaction of a client across the
        ``duration`` boundary, so only the commonly-committed
        transactions are held to the exact-rounds bar."""
        if not (self.serializable and self.strict and self.rounds_exact):
            return False
        if self.spec.mode == "calibrate":
            return self.committed_match
        return True

    def describe(self):
        lines = [
            f"calibration {self.spec.protocol} ({self.spec.mode}, "
            f"{self.spec.n_clients} clients, latency "
            f"{self.spec.latency:g}, time scale {self.live.time_scale:g}"
            f" s/unit):",
            f"  serializable: {self.serializable}   strict: {self.strict}"
            f"   committed sets match: {self.committed_match}",
            f"  committed (live): {len(self.live.committed)}   compared "
            f"measured txns: {self.n_compared}",
            f"  per-txn rounds exact-match: {self.rounds_matched}/"
            f"{self.n_compared}",
        ]
        for txn, live_rounds, sim_rounds in self.round_mismatches[:5]:
            lines.append(f"    txn {txn}: live {live_rounds} != sim "
                         f"{sim_rounds}")
        lines += [
            f"  response mean: live {self.live_mean_response:.3f} vs sim "
            f"{self.sim_mean_response:.3f} units",
            f"  response delta: mean |Δ| {self.mean_abs_delta:.3f} "
            f"units ({100 * self.mean_relative_delta:.2f}% of sim), "
            f"max |Δ| {self.max_abs_delta:.3f} units",
            f"  wall time: {self.live.wall_seconds:.1f}s for "
            f"{self.reference.duration:.0f} simulated units",
        ]
        return "\n".join(lines)


def compare(live, reference):
    """Build the :class:`CalibrationReport` for a finished live run."""
    merged = live.merged
    serializability = check_history(merged.history)
    strictness = check_strictness(merged.history)
    live_records = merged.measured_committed()
    sim_records = {txn: record
                   for txn, record in reference.records_by_txn.items()
                   if record["measured"] and record["committed"]}
    common = sorted(set(live_records) & set(sim_records))
    protocol = live.spec.protocol
    report = CalibrationReport(
        spec=live.spec, live=live, reference=reference,
        serializable=serializability.ok, strict=strictness.ok,
        committed_match=(merged.history.committed
                         == reference.history.committed),
        n_compared=len(common),
        divergence=attribute_gap(
            decompose_records([sim_records[txn] for txn in common],
                              label=f"sim:{protocol}"),
            decompose_records([live_records[txn] for txn in common],
                              label=f"live:{protocol}")))
    deltas = []
    live_sum = sim_sum = 0.0
    for txn in common:
        live_rec, sim_rec = live_records[txn], sim_records[txn]
        if (live_rec["rounds"] == sim_rec["rounds"]
                and live_rec["rounds_sequential"]
                == sim_rec["rounds_sequential"]):
            report.rounds_matched += 1
        else:
            report.round_mismatches.append(
                (txn, live_rec["rounds"], sim_rec["rounds"]))
        live_sum += live_rec["response"]
        sim_sum += sim_rec["response"]
        delta = abs(live_rec["response"] - sim_rec["response"])
        deltas.append((delta, sim_rec["response"]))
    if common:
        report.live_mean_response = live_sum / len(common)
        report.sim_mean_response = sim_sum / len(common)
        report.mean_abs_delta = sum(d for d, _ in deltas) / len(deltas)
        report.max_abs_delta = max(d for d, _ in deltas)
        report.mean_relative_delta = (
            sum(d / r for d, r in deltas if r > 0) / len(deltas))
    return report


def calibrate(spec, time_scale=DEFAULT_TIME_SCALE, workdir=None,
              lead=1.0, grace=None, timeout=None):
    """Run ``spec`` live and against the simulator; return the report."""
    live = run_live(spec, time_scale=time_scale, workdir=workdir,
                    lead=lead, grace=grace, timeout=timeout)
    return compare(live, run_reference(spec))
