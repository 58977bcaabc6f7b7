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

With `--out`, the line printed on stdout gives the wall time and the peak
resident set of this process and of its largest worker; neither goes into
the report, which stays byte-identical across runs and job counts.
"""

import argparse
import resource
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

    children_before = _children_maxrss()
    started = time.time()
    report = generate_report(fidelity=args.fidelity, seed=args.seed,
                             include_plots=not args.no_plots,
                             jobs=args.jobs)
    elapsed = time.time() - started
    report += f"\n\n_Generated in {elapsed:,.0f}s wall time._\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out} ({elapsed:,.0f}s, "
              f"{_peak_rss(children_before)})")
    else:
        print(report)
    return 0


def _children_maxrss():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _peak_rss(children_before):
    """Peak RSS of this process and of its largest worker. The children's
    figure survives ``exec``, so it can hold what a launcher (a pyenv
    shim, say) waited for before starting Python: a worker is reported
    only if the figure rose during the run."""
    # ru_maxrss counts KiB on Linux, bytes on macOS
    per_mb = 1024 * 1024 if sys.platform == "darwin" else 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / per_mb
    children = _children_maxrss()
    worker = (f"{children / per_mb:.1f} MB" if children > children_before
              else "none")
    return f"peak RSS {own:.1f} MB, largest worker {worker}"


if __name__ == "__main__":
    sys.exit(main())
