#!/usr/bin/env python
"""The CI ``obs-smoke`` gate: decomposition exactness, sim vs live.

Two checks, artifacts under ``obs/``:

1. **Traced sharded cells** (both protocols, 2PC + 2PC-opt), each run
   as ``repro-experiment run --trace --out obs/<cell>``: every measured
   transaction's phase spans must sum exactly to its measured response
   time and no phase may go negative (committed transactions
   additionally require a non-negative lock-wait residual), or the
   command exits 1. It prints the decomposition table and writes the
   trace's exports, the per-transaction phase CSV among them.

2. **Loopback live decompose** (both protocols, the calibrate-mode
   scenario): the live calibration replays one schedule in the simulator
   and as real endpoint processes over TCP and decomposes the common
   committed population in both worlds; this requires (a) zero
   invariant violations in either world — the live
   merge additionally enforces this with a hard ``AssertionError`` —
   and (b) the shaped ``network`` phase (propagation + transmission +
   slack net of coordination carve-outs) to agree with the simulator
   within NETWORK_TOLERANCE relative. Exports both decompositions, the
   divergence report, and the merged per-process Chrome trace.

Exit status is non-zero on any violation, so the job fails loudly.

Usage::

    python scripts/obs_smoke.py [--out obs] [--skip-live]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.core.config import SimulationConfig  # noqa: E402
from repro.live.harness import calibrate  # noqa: E402
from repro.live.scenario import ScenarioSpec  # noqa: E402
from repro.obs.export import (  # noqa: E402
    write_merged_chrome_trace,
    write_phases_csv,
)

#: acceptance gate on the live network phase's relative disagreement
NETWORK_TOLERANCE = 0.05


def sharded_cells(out_dir):
    failures = []
    for protocol in ("s2pl", "g2pl"):
        for commit in ("2pc", "2pc-opt"):
            name = f"{protocol}-{commit}"
            code = cli_main([
                "run", "--trace", "--protocol", protocol, "--clients", "6",
                "--items", "12", "--shards", "4", "--regions", "2",
                "--intra-latency", "1", "--latency", "100",
                "--cross-shard", "0.5", "--commit", commit,
                "--transactions", "120", "--warmup", "20", "--seed", "11",
                "--out", os.path.join(out_dir, name)])
            if code != 0:
                failures.append(f"{name}: `run --trace` exited {code}")
    return failures


def live_decompose(out_dir):
    failures = []
    for protocol in ("s2pl", "g2pl"):
        spec = ScenarioSpec(SimulationConfig(
            protocol=protocol, n_clients=4, network_latency=2.0,
            probe_interval=50.0), repeats=3, trace_export=True)
        calibration = calibrate(spec, time_scale=0.02)
        live, report = calibration.live, calibration.divergence
        text = "\n".join([report.sim.describe(), report.live.describe(),
                          report.describe()])
        print(text)
        with open(os.path.join(out_dir, f"{protocol}-divergence.txt"),
                  "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        write_merged_chrome_trace(
            os.path.join(out_dir, f"{protocol}-live.chrome.json"),
            live.merged.payloads)
        write_phases_csv(
            os.path.join(out_dir, f"{protocol}-live.phases.csv"),
            live.merged.records.values())
        bad = report.sim.violations + report.live.violations
        if bad:
            failures.append(f"live {protocol}: {len(bad)} invariant "
                            f"violations (first: {bad[0]})")
        if report.network_agreement > NETWORK_TOLERANCE:
            failures.append(
                f"live {protocol}: network phase diverges "
                f"{100.0 * report.network_agreement:.2f}% from the "
                f"simulator (gate {100.0 * NETWORK_TOLERANCE:.0f}%)")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="obs",
                        help="artifact directory (default: obs/)")
    parser.add_argument("--skip-live", action="store_true",
                        help="skip the multi-process loopback half")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    failures = sharded_cells(args.out)
    if not args.skip_live:
        failures.extend(live_decompose(args.out))
    if failures:
        print("\nobs-smoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nobs-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
