"""Compare ledger results: is B worse than A, by the benchmark's own bounds?

    python ledger/compare.py A.json B.json       # two timed result.json files
    python ledger/compare.py --pairs DIR         # NN.a.json / NN.b.json pairs

Two files: one row per workload x end-to-end metric with both values, the
ratio B/A (base: A), and a verdict —

* ``regressed``    B is worse than A by more than the metric's bound
* ``improved``     B is better than A by more than the bound; it does not
                   count when B's ``ops_failed_pct`` on that workload is
                   above A's (a gain bought with more failed operations)
* ``unresolved``   the change is inside the bound but either side's own
                   repeat-to-repeat spread (quartile distance over median)
                   is wider than the bound, so "unchanged" cannot be claimed
* ``within bound`` otherwise

followed by the failure counts and whether every deterministic value
(digest, simulated metrics, counts) agrees exactly.  Exit status 1 when
any row is regressed or unresolved.

``--pairs`` applies the gain rule of the choosing-metrics guide to >= 10
alternating pairs: B wins at least nine tenths of all pairs (ties count
for neither), the medians differ by more than the distance between A's
own quartiles, and B's median ``ops_failed_pct`` is not above A's.

Bounds, units and directions are read from ``BENCHMARK.json``.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: end-to-end metrics that repeat exactly for one seed and one program
DETERMINISTIC = ("sim_response_mean", "sim_abort_pct", "ops_failed_pct")
#: the metric that voids a gain when it got worse (simplicity-review guide:
#: "a gain does not count when more operations fail")
FAILURE_SHARE = "ops_failed_pct"
VOID = " (does not count: more operations fail)"
#: time metrics derived from the timed repeats share their spread
SPREAD_SOURCE = {"commits_per_ref_s": "run_ref_s"}


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _end_to_end_spec():
    return {metric["name"]: metric
            for metric in _load(BENCHMARK_JSON)["end_to_end"]}


def _worse_by(spec, base, other):
    """Share of ``base`` by which ``other`` is worse (negative: better)."""
    change = (other - base) / base
    return change if spec["better"] == "lower" else -change


def _spread(record, name):
    """Quartile distance over median of the metric's own samples within
    the run (timed repeats, set-ups); 0 for a single reading."""
    entry = record["metrics"][SPREAD_SOURCE.get(name, name)]
    return entry.get("iqr", 0.0) / entry["value"]


def verdict(spec, base, other, spread, more_fail=False):
    worse = _worse_by(spec, base, other)
    if worse > spec["bound"]:
        return "regressed"
    if worse < -spec["bound"]:
        return "improved" + (VOID if more_fail else "")
    return "unresolved" if spread > spec["bound"] else "within bound"


def compare_two(path_a, path_b):
    specs = _end_to_end_spec()
    a, b = _load(path_a), _load(path_b)
    if a["mode"] != "timed" or b["mode"] != "timed":
        raise SystemExit("compare.py reads timed results (run.py without "
                         "--trace); per-layer numbers have no bounds")
    bad = 0
    print(f"{'workload':16s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:16s} missing from B")
            bad += 1
            continue
        rec_a, rec_b = a["workloads"][name], b["workloads"][name]
        more_fail = (rec_b["metrics"][FAILURE_SHARE]["value"]
                     > rec_a["metrics"][FAILURE_SHARE]["value"])
        for metric, spec in specs.items():
            base = rec_a["metrics"][metric]["value"]
            other = rec_b["metrics"][metric]["value"]
            spread = max(_spread(rec_a, metric), _spread(rec_b, metric))
            word = verdict(spec, base, other, spread, more_fail)
            bad += word in ("regressed", "unresolved")
            print(f"{name:16s} {metric:20s} {base:12.5g} {other:12.5g} "
                  f"{other / base:7.3f} {spec['bound']:6.2f} "
                  f"{spread:7.3f}  {word}")
    print()
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        rec_a, rec_b = a["workloads"][name], b["workloads"][name]
        exact = (rec_a["digest"] == rec_b["digest"]
                 and rec_a["ops_attempted"] == rec_b["ops_attempted"]
                 and rec_a["ops_failed"] == rec_b["ops_failed"]
                 and all(rec_a["metrics"][m]["value"]
                         == rec_b["metrics"][m]["value"]
                         for m in DETERMINISTIC))
        print(f"{name:16s} failed A {rec_a['failed']}/{rec_a['attempted']} "
              f"B {rec_b['failed']}/{rec_b['attempted']}; ops_failed "
              f"A {rec_a['ops_failed']}/{rec_a['ops_attempted']} "
              f"B {rec_b['ops_failed']}/{rec_b['ops_attempted']}"
              f"; correct A {rec_a['correct']} B {rec_b['correct']}; "
              + ("deterministic values "
                 + ("identical" if exact else "DIFFER (trajectory_changed)")
                 if same_inputs else "different seed or scale"))
        bad += not (rec_a["correct"] and rec_b["correct"])
    return 1 if bad else 0


def _sides(pairs, name, metric):
    """The metric's values on workload ``name``: all A's, all B's."""
    return ([result["workloads"][name]["metrics"][metric]["value"]
             for result in side] for side in zip(*pairs))


def compare_pairs(directory):
    specs = _end_to_end_spec()
    firsts = sorted(glob.glob(os.path.join(directory, "*.a.json")))
    pairs = [(_load(path), _load(path[:-len("a.json")] + "b.json"))
             for path in firsts]
    if len(pairs) < MIN_PAIRS:
        raise SystemExit(f"need >= {MIN_PAIRS} pairs in {directory}, "
                         f"found {len(pairs)}")
    print(f"{len(pairs)} pairs; gain = B wins >= {WIN_SHARE:.0%} of pairs "
          f"and |median gap| > A's interquartile distance")
    print(f"{'workload':16s} {'metric':20s} {'median A':>12s} "
          f"{'median B':>12s} {'B/A':>7s} {'A iqr':>10s} {'wins':>7s}  "
          f"verdict")
    bad = 0
    for name in pairs[0][0]["workloads"]:
        fail_a, fail_b = _sides(pairs, name, FAILURE_SHARE)
        more_fail = statistics.median(fail_b) > statistics.median(fail_a)
        for metric, spec in specs.items():
            side_a, side_b = _sides(pairs, name, metric)
            wins = sum(_worse_by(spec, x, y) < 0
                       for x, y in zip(side_a, side_b))
            losses = sum(_worse_by(spec, x, y) > 0
                         for x, y in zip(side_a, side_b))
            med_a, med_b = (statistics.median(side_a),
                            statistics.median(side_b))
            quartiles = statistics.quantiles(side_a, n=4)
            iqr = quartiles[2] - quartiles[0]
            gap = abs(med_b - med_a)
            if _worse_by(spec, med_a, med_b) > spec["bound"]:
                word = "regressed"
                bad += 1
            elif wins >= WIN_SHARE * len(pairs) and gap > iqr:
                word = "gain" + (VOID if more_fail else "")
            elif iqr / med_a > spec["bound"]:
                word = "unresolved"
                bad += 1
            else:
                word = "no gain shown, within bound"
            print(f"{name:16s} {metric:20s} {med_a:12.5g} {med_b:12.5g} "
                  f"{med_b / med_a:7.3f} {iqr:10.4g} "
                  f"{wins:3d}/{wins + losses:<3d}  {word}")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", help="A.json B.json")
    parser.add_argument("--pairs", metavar="DIR")
    args = parser.parse_args(argv)
    if args.pairs:
        return compare_pairs(args.pairs)
    if len(args.results) != 2:
        parser.error("give exactly two result files, or --pairs DIR")
    return compare_two(*args.results)


if __name__ == "__main__":
    sys.exit(main())
