#!/usr/bin/env python
"""Regenerate every table and figure of the paper and write a markdown
report.

    python scripts/reproduce_all.py [--fidelity smoke|bench|paper]
                                    [--out report.md] [--seed N] [--jobs N]

At `bench` fidelity the full suite takes a few minutes on one core; at
`paper` fidelity it matches the published run lengths (50,000 transactions
x 5 replications per point) and takes correspondingly long.  Every
figure's simulation cells are planned first and each distinct (config,
seed) cell runs once, however many figures share it; `--jobs N` fans them
all out over one pool of N worker processes (`--jobs 0` uses every CPU).
The report is bit-identical to a serial run for the same seed.
"""

import argparse
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fidelity", default="bench",
                        choices=["smoke", "bench", "paper"])
    parser.add_argument("--out", default=None,
                        help="write markdown here (default: stdout)")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the report's cells "
                        "(0 = all CPUs)")
    parser.add_argument("--no-plots", action="store_true")
    args = parser.parse_args()

    from repro.analysis.report import generate_report

    started = time.time()
    report = generate_report(fidelity=args.fidelity, seed=args.seed,
                             include_plots=not args.no_plots,
                             jobs=args.jobs)
    elapsed = time.time() - started
    report += f"\n\n_Generated in {elapsed:,.0f}s wall time._\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out} ({elapsed:,.0f}s)")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
