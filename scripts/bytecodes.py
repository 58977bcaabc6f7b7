#!/usr/bin/env python
"""Count the bytecodes and C calls one closed-loop run executes.

A deterministic instrument for sizing and locating interpreter work: the
same seed gives the same counts on the same interpreter version, however
noisy the host.  It runs 1,500 Table-1 transactions (50 clients, 25
items, read probability 0.6, latency 500 — the ledger's ``closed_*``
configuration) of the named protocol under ``sys.settrace`` with opcode
events on, and prints the total, the share spent inside ``repro``, the
share spent in dataclass-generated ``__init__`` bodies, and the top
functions.  Beside it a ``sys.setprofile`` hook tallies every call into
a C callable (``sorted``, ``set.union``, a type's constructor ...):
work one opcode starts and the opcode count cannot see.  It prints their
total and the top callables by count.

    python scripts/bytecodes.py g2pl --seed 37
    python scripts/bytecodes.py s2pl --top 30 --faults loss=0.03,dup=0.01
    python scripts/bytecodes.py s2pl --sharded
    python scripts/bytecodes.py g2pl --faulted
    python scripts/bytecodes.py g2pl --traced

``--sharded`` swaps Table 1 for the ledger's ``sharded_2pc`` shape (40
clients, 32 items, 4 shards x 4 regions, cross-shard 0.3, classic 2PC,
latency 100 / 1), where the union deadlock sweeps run.  ``--faulted``
swaps it for the ledger's ``faulted_g2pl`` shape (12 clients, 10 items,
latency 100, loss 3%, duplication 1%, jitter 25 and client 2 down over
[4000, 8000)), where the reliable channel and the faulted send loop run.
``--traced`` is the ledger's ``traced_g2pl`` shape: Table 1 with tracing
and 200-unit probes armed, then ``write_jsonl`` to a temporary file
inside the counted region; it prints the traced run, then the untraced
total of the same seed and the ratio of the two (what tracing and the
export cost in interpreter work).

Counts are specific to the interpreter version (3.11 and 3.12 compile
the same source to different instruction streams), so compare two trees
under one interpreter and never gate on an absolute number.  What the
count cannot see — inline-cache misses, attribute-layout cliffs — is in
EXPERIMENTS.md appendix M.
"""

import argparse
import os
import sys
import tempfile
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.core.config import SimulationConfig  # noqa: E402
from repro.core.runner import run_simulation  # noqa: E402
from repro.obs.export import write_jsonl  # noqa: E402

TRANSACTIONS = 1500
TABLE_1 = dict(n_clients=50, n_items=25, read_probability=0.6,
               network_latency=500.0)
SHARDED_2PC = dict(n_clients=40, n_items=32, n_shards=4, n_regions=4,
                   cross_shard_probability=0.3, commit_protocol="2pc",
                   network_latency=100.0, intra_region_latency=1.0)
FAULTED = dict(n_clients=12, n_items=10, read_probability=0.6,
               network_latency=100.0,
               faults="loss=0.03,dup=0.01,jitter=25,crash=2@4000:8000")


def c_callable_name(function):
    """``sorted``, ``set.union``, ``time.perf_counter``: a C callable's
    name as its module and qualified name spell it."""
    name = getattr(function, "__qualname__", None) or repr(function)
    module = getattr(function, "__module__", None)
    return name if module in (None, "builtins") else f"{module}.{name}"


def count_bytecodes(protocol, seed, faults=None, shape=TABLE_1,
                    traced=False):
    """``(opcodes, c_calls, result)`` for one run: opcodes counted by
    ``(file, line, function)``, C calls by callable name. ``traced`` arms
    the tracer and 200-unit probes and counts the JSONL export with the
    run."""
    keywords = dict(shape, protocol=protocol, record_history=False,
                    total_transactions=TRANSACTIONS,
                    warmup_transactions=TRANSACTIONS // 10)
    if faults is not None:
        keywords["faults"] = faults
    if traced:
        keywords.update(trace=True, probe_interval=200.0)
    config = SimulationConfig(**keywords)
    counts = Counter()
    c_calls = Counter()

    def profile(_frame, event, function):
        if event == "c_call":
            c_calls[c_callable_name(function)] += 1

    def local_trace(frame, event, _arg):
        if event == "opcode":
            code = frame.f_code
            counts[code.co_filename, code.co_firstlineno, code.co_name] += 1
        return local_trace

    def global_trace(frame, _event, _arg):
        frame.f_trace_opcodes = True
        return local_trace

    with tempfile.TemporaryDirectory() as scratch:
        sys.settrace(global_trace)
        sys.setprofile(profile)
        try:
            result = run_simulation(config, seed=seed)
            if traced:
                write_jsonl(os.path.join(scratch, "trace.jsonl"),
                            result.trace, config, seed)
        finally:
            sys.setprofile(None)
            sys.settrace(None)
    # the hook's own removal is no work of the run's
    c_calls["sys.setprofile"] -= 1
    return counts, +c_calls, result


def describe(counts, c_calls, result, top):
    total = sum(counts.values())
    src = os.path.join("src", "repro") + os.sep
    in_repro = sum(n for (path, _, _), n in counts.items() if src in path)
    # dataclass-generated methods are compiled from a "<string>" source
    generated = sum(n for (path, _, name), n in counts.items()
                    if path == "<string>" and name == "__init__")
    lines = [
        f"{result.config.protocol}: {total:,} bytecodes for "
        f"{result.metrics.finished + result.metrics.warmup_discarded:,} "
        f"transactions ({result.metrics.committed:,} measured commits, "
        f"{result.engine_stats['processed_events']:,} heap entries)",
        f"  inside src/repro: {in_repro:,} ({in_repro / total:.1%})",
        f"  dataclass __init__: {generated:,} ({generated / total:.1%})",
        f"  top {top} functions:",
    ]
    for (path, line, name), n in counts.most_common(top):
        where = path.split(src)[-1] if src in path else os.path.basename(path)
        lines.append(f"    {n:>12,}  {n / total:6.1%}  {where}:{line} {name}")
    c_total = sum(c_calls.values())
    lines.append(f"  C calls: {c_total:,}; top {top} callables:")
    for name, n in c_calls.most_common(top):
        lines.append(f"    {n:>12,}  {n / c_total:6.1%}  {name}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("protocol", help="protocol name, e.g. s2pl or g2pl")
    parser.add_argument("--seed", type=int, default=37)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--faults", default=None,
                        help="fault spec, e.g. loss=0.03,dup=0.01")
    shape = parser.add_mutually_exclusive_group()
    shape.add_argument("--sharded", action="store_const", dest="shape",
                       const=SHARDED_2PC, default=TABLE_1,
                       help="the ledger's sharded_2pc shape, not Table 1")
    shape.add_argument("--faulted", action="store_const", dest="shape",
                       const=FAULTED,
                       help="the ledger's faulted_g2pl shape (its own "
                            "fault spec unless --faults is given)")
    parser.add_argument("--traced", action="store_true",
                        help="the ledger's traced_g2pl shape: tracing, "
                             "200-unit probes and the JSONL export counted, "
                             "then the untraced total and the ratio")
    args = parser.parse_args(argv)
    counts, c_calls, result = count_bytecodes(
        args.protocol, args.seed, faults=args.faults, shape=args.shape,
        traced=args.traced)
    print(describe(counts, c_calls, result, args.top))
    if args.traced:
        plain, _, _ = count_bytecodes(args.protocol, args.seed,
                                      faults=args.faults, shape=args.shape)
        traced, untraced = sum(counts.values()), sum(plain.values())
        print(f"  untraced, same seed: {untraced:,} bytecodes; traced + "
              f"export is {traced / untraced:.3f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
