"""End-to-end live smoke: real processes, real TCP, calibrated vs sim.

Each case launches 1 server + N client OS processes over loopback with
userspace-shaped latency, merges their results, and compares against the
simulator running the *same scenario code*:

* the merged history is serializable and strict,
* the committed transaction sets are identical (calibrate mode is fully
  deterministic by construction),
* per-transaction sequential round counts match the simulator exactly
  (s-2PL: 3 per commit; g-2PL: 2m+1 per epoch over the contenders),
* live response times track the simulator within the documented
  tolerance (see EXPERIMENTS.md appendix C),
* both worlds' per-phase decompositions are clean and the shaped
  network phase agrees with the simulator's prediction.

A dead endpoint must fail the run within seconds, named first.

CI's ``live-smoke`` job runs every ``live``-marked test.
"""

import subprocess
import sys
import threading
import time

import pytest

from repro.live.harness import calibrate, run_live
from repro.live.scenario import ScenarioSpec
from repro.obs.rounds import expected_rounds

#: documented smoke tolerance on the mean relative response-time delta;
#: loopback runs typically land near 3-5% (EXPERIMENTS.md appendix C)
RESPONSE_TOLERANCE = 0.25

pytestmark = pytest.mark.live


@pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
def test_live_calibrate_matches_simulator(protocol):
    spec = ScenarioSpec(protocol=protocol, mode="calibrate", n_clients=4,
                        latency=2.0, think=1.0, repeats=2)
    report = calibrate(spec, time_scale=0.02)
    assert report.serializable, "merged live history not serializable"
    assert report.strict, "merged live history not strict"
    assert report.committed_match, (
        "live committed set differs from simulator")
    m = spec.n_clients - 1
    assert report.n_compared == m * spec.repeats
    assert report.rounds_exact, (
        f"round mismatches: {report.round_mismatches}")
    # the per-txn totals are the paper's arithmetic
    live_total = sum(
        record["rounds_sequential"]
        for record in report.live.merged.measured_committed().values())
    assert live_total == expected_rounds(protocol, m) * spec.repeats
    assert report.mean_relative_delta < RESPONSE_TOLERANCE
    # no round charge may be left without an owning transaction record
    assert report.live.merged.orphans == []
    divergence = report.divergence
    assert divergence.sim.violations == []
    assert divergence.live.violations == []
    assert divergence.sim.n_txns == divergence.live.n_txns \
        == report.n_compared > 0
    # live wire time tracks the simulator's prediction: both worlds
    # charge the same shaped flights
    assert divergence.network_agreement <= 0.05
    # the live-only overhead phase is real (scheduling + codec time)
    assert divergence.live.phases["overhead"]["total"] >= 0.0


def test_live_workload_history_is_serializable_and_rounds_match():
    spec = ScenarioSpec(protocol="g2pl", mode="workload", n_clients=3,
                        latency=2.0, duration=60.0, seed=7)
    report = calibrate(spec, time_scale=0.01)
    assert report.serializable and report.strict
    assert report.n_compared > 0
    assert report.rounds_exact, (
        f"round mismatches: {report.round_mismatches}")
    assert report.mean_relative_delta < RESPONSE_TOLERANCE


@pytest.mark.parametrize("fault", ["killed", "exit-3"])
def test_a_dead_endpoint_fails_the_run_fast_and_is_named_first(
        fault, monkeypatch, tmp_path):
    """Client site 2 is SIGKILLed 2.5 s after launch, or exits 3 at
    startup (writing to stderr); either way the run raises within 10 s,
    naming site 2 first. A hung peer is not covered."""
    real_popen = subprocess.Popen
    timers = []

    def popen(args, **kwargs):
        if not args[-1].endswith("config-2.json"):
            return real_popen(args, **kwargs)
        if fault == "exit-3":
            args = [sys.executable, "-c",
                    "import sys; sys.stderr.write('site two gave up');"
                    " sys.exit(3)"]
        proc = real_popen(args, **kwargs)
        if fault == "killed":
            timers.append(threading.Timer(2.5, proc.kill))
            timers[-1].start()
        return proc

    monkeypatch.setattr(subprocess, "Popen", popen)
    spec = ScenarioSpec(protocol="s2pl", mode="calibrate", n_clients=3,
                        latency=2.0, think=1.0, repeats=6)
    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError) as failure:
            run_live(spec, time_scale=0.02, workdir=str(tmp_path))
    finally:
        for timer in timers:
            timer.cancel()
    assert time.monotonic() - start < 10.0
    code = -9 if fault == "killed" else 3
    assert f"site 2 (exit {code}) failed first" in str(failure.value)
    if fault == "exit-3":
        assert "site two gave up" in str(failure.value)
