"""Run an unmodified script or module as ``__main__`` under the sampler.

    python shim.py STATS.json script.py [args...]
    python shim.py STATS.json -m package.module [args...]

figure_sweep times whole subprocesses (interpreter start to report on
disk), and host speed has to be read *while* they run; this wrapper arms
the calibration sampler, hands control to the target through ``runpy``,
and on the way out writes what the parent needs to convert the wall time
it measured: the mean burst rate, the seconds the bursts took, and the
process's peak RSS.
"""

import json
import resource
import runpy
import sys

from calibrate import Sampler


def main(argv):
    stats_path, target = argv[1], argv[2:]
    sampler = Sampler()
    sampler.start()
    try:
        with sampler.timed() as reading:
            if target[0] == "-m":
                sys.argv = target[1:]
                runpy.run_module(target[1], run_name="__main__",
                                 alter_sys=True)
            else:
                sys.argv = target
                runpy.run_path(target[0], run_name="__main__")
    finally:
        sampler.stop()
        with open(stats_path, "w") as handle:
            json.dump({
                "ops_per_s": reading.ops_per_s,
                "sampling_s": reading.sampling_s,
                "samples": reading.samples,
                "peak_rss_kb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss,
            }, handle)


if __name__ == "__main__":
    main(sys.argv)
