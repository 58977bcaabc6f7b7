#!/usr/bin/env python
"""The CI ``obs-smoke`` gate: decomposition exactness, sim vs live.

Two checks, artifacts under ``obs/``:

1. **Traced sharded cells** (both protocols, 2PC + 2PC-opt): every
   finished transaction's phase spans must sum exactly to its measured
   response time and no phase may go negative (committed transactions
   additionally require a non-negative lock-wait residual). Exports the
   decomposition table and the per-transaction phase CSV.

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

from repro.core.config import SimulationConfig  # noqa: E402
from repro.core.runner import run_simulation  # noqa: E402
from repro.live.harness import calibrate  # noqa: E402
from repro.live.scenario import ScenarioSpec  # noqa: E402
from repro.obs.decompose import decompose_records  # noqa: E402
from repro.obs.export import (  # noqa: E402
    write_merged_chrome_trace,
    write_phases_csv,
)
from repro.obs.spans import check_records  # noqa: E402

#: acceptance gate on the live network phase's relative disagreement
NETWORK_TOLERANCE = 0.05


def sharded_cells(out_dir):
    failures = []
    for protocol in ("s2pl", "g2pl"):
        for commit in ("2pc", "2pc-opt"):
            config = SimulationConfig(
                protocol=protocol, n_clients=6, n_items=12,
                n_shards=4, n_regions=2, intra_region_latency=1.0,
                network_latency=100.0, cross_shard_probability=0.5,
                commit_protocol=commit, total_transactions=120,
                warmup_transactions=20, record_history=False,
                trace=True)
            result = run_simulation(config, seed=11)
            finished = [r for r in result.trace.txns
                        if not r.get("unfinished")]
            violations = check_records(finished)
            name = f"{protocol}-{commit}"
            decomposition = decompose_records(
                [r for r in finished if r["measured"]], label=name)
            print(decomposition.describe())
            write_phases_csv(
                os.path.join(out_dir, f"{name}.phases.csv"), finished)
            if violations:
                failures.append(f"{name}: {violations[0]} "
                                f"(+{len(violations) - 1} more)")
            coordinated = sum(1 for r in finished
                              if r["commit_coord"] > 0.0)
            print(f"  {name}: {len(finished)} txns, "
                  f"{coordinated} paid 2PC wire, "
                  f"{len(violations)} violations")
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
