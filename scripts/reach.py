"""List the functions of ``src/repro`` that no user-facing entry point enters.

Every command a person can run — each CLI verb and figure, the report
script, the examples, the ledger and the benchmark suite at smoke size,
loopback live runs — is run as a subprocess with a profile hook armed
in every Python process it starts: a ``sitecustomize.py`` on
``PYTHONPATH`` (which the live harness and the ledger pass on to their
children) calls ``sys.setprofile`` and ``threading.setprofile``, keeps
the ``call`` events of code under ``src/repro``, and dumps them at exit
and inside ``os._exit``. A code object is matched to the function the
AST declares by ``(file, first decorator-or-def line, name)``.

What no command entered is written to ``reach.txt``, one function a line,
as ``module.qualname`` with its place and size. With ``--check`` the
script exits 1 when a function on that list is not in
``scripts/reach_allowlist.txt``, whose ``name: reason`` lines explain
what stays without an entry point (validators, test oracles). The
drive takes some minutes::

    python scripts/reach.py --check
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"
OUT = "reach.txt"   # the unentered list, in the working directory

#: armed in every process of the drive; ``{root}``/``{dumps}`` filled in
HOOK = '''\
import atexit, os, sys, threading

_ROOT = {root!r}
_DUMPS = {dumps!r}
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_ROOT):
            _seen.add((code.co_filename, code.co_firstlineno, code.co_name))


def _dump():
    path = os.path.join(_DUMPS, f"{{os.getpid()}}-{{len(_seen)}}.txt")
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(f"{{f}}\\t{{l}}\\t{{n}}\\n" for f, l, n in _seen)


def _exit(code, _os_exit=os._exit):
    _dump()
    _os_exit(code)


os._exit = _exit
atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

PROTOCOLS = ("2v2pl", "c2pl", "g2pl", "g2pl-basic", "g2pl-ro", "hybrid",
             "s2pl")
#: the protocols that shard and survive a client crash
CRASH_CAPABLE = ("g2pl", "g2pl-basic", "g2pl-ro", "hybrid", "s2pl")
FIGURES = (*map(str, range(1, 16)), "loss", "loss-aborts", "scale",
           "decompose", "shard-crossover", "adaptive")
SMALL = ("--clients", "6", "--items", "10", "--transactions", "150",
         "--warmup", "10", "--latency", "50")
#: 16 clients on 4 shards, 15 of them crashing in turn: long enough that
#: some coordinator dies holding a prepared transaction (2PC termination)
#: and some reader dies inside a read group (a g-2PL release waiver)
CRASHING = ("--clients", "16", "--items", "32", "--transactions", "800",
            "--warmup", "10", "--latency", "100", "--shards", "4",
            "--cross-shard", "1", "--faults", ",".join(
                f"crash={client}@{1000 + 900 * client}:{2500 + 900 * client}"
                for client in range(1, 16)))


def drive(work):
    """``[(label, argv, extra env)]``: every command the audit runs, with
    outputs under ``work``."""
    cli = [sys.executable, "-m", "repro.cli"]
    commands = [("list", [*cli, "list"], {})]
    for protocol in PROTOCOLS:
        run = [*cli, "run", "--protocol", protocol, *SMALL]
        commands += [
            (f"run {protocol}", run, {}),
            (f"run {protocol} traced", [*run, "--trace", "--out",
                                        str(work / protocol)], {}),
            (f"run {protocol} lossy", [*run, "--faults",
                                       "loss=0.05,dup=0.02,jitter=10"], {}),
            (f"run {protocol} population",
             [*run, "--population", "40", "--arrival-rate", "0.002"], {}),
        ]
    population = [*cli, "run", "--protocol", "g2pl", *SMALL, "--population",
                  "40", "--arrival-rate", "0.002"]
    commands += [
        ("run population burst", [*population, "--arrival", "burst"], {}),
        ("run population diurnal", [*population, "--arrival", "diurnal"],
         {}),
        ("run population txn mix",
         [*population, "--txn-mix", "browse:6:1-3:0.9,update:3:2-5:0.3"],
         {}),
    ]
    for protocol in CRASH_CAPABLE:
        run = [*cli, "run", "--protocol", protocol, *SMALL]
        commands += [
            (f"run {protocol} crash",
             [*run, "--faults", "loss=0.02,crash=2@3000:9000"], {}),
            (f"run {protocol} sharded 2pc",
             [*run, "--shards", "2", "--regions", "2", "--cross-shard",
              "0.5", "--trace", "--faults", "loss=0.02,crash=2@3000:9000"],
             {}),
            (f"run {protocol} sharded 2pc-opt",
             [*run, "--shards", "2", "--cross-shard", "0.5", "--commit",
              "2pc-opt"], {}),
        ]
    compare = [*cli, "compare", "--clients", "6", "--items", "8",
               "--transactions", "100", "--warmup", "10", "--latency", "20",
               "--replications", "2"]
    commands += [
        ("compare", compare, {}),
        ("compare traced jobs 2", [*compare, "--trace", "--jobs", "2"], {}),
        ("run profiled", [*cli, "run", "--protocol", "s2pl", *SMALL,
                          "--profile"], {}),
        ("run verbose", [*cli, "run", "--protocol", "s2pl", *SMALL, "-v"],
         {}),
        ("run streaming traced verbose",
         [*cli, "run", "--protocol", "g2pl", *SMALL, "--streaming", "on",
          "--trace", "-v"], {}),
        ("run traced loss and dup",
         [*cli, "run", "--protocol", "g2pl", *SMALL, "--trace", "--faults",
          "loss=0.05,dup=0.05"], {}),
        ("run partition", [*cli, "run", "--protocol", "g2pl", *SMALL,
                           "--faults", "part=2000:5000:1+2"], {}),
        ("run s2pl crashing shards",
         [*cli, "run", "--protocol", "s2pl", *CRASHING], {}),
        *((f"run g2pl crashing shards seed {seed}",
           [*cli, "run", "--protocol", "g2pl", *CRASHING, "--seed",
            str(seed)], {}) for seed in (1, 3)),
        ("run traced past the streaming threshold",
         [*cli, "run", "--protocol", "s2pl", "--clients", "4", "--items",
          "50", "--latency", "1", "--transactions", "20100", "--warmup",
          "10", "--trace"], {}),
        ("report quick", [*cli, "report", "--fidelity", "smoke", "--quick",
                          "--out", str(work / "report.md")], {}),
    ]
    commands += [(f"figure {name}", [*cli, "figure", name, "--fidelity",
                                     "smoke", "--jobs", "2"], {})
                 for name in FIGURES]
    for protocol in ("s2pl", "g2pl"):
        live = [*cli, "live", "--protocol", protocol]
        commands += [
            (f"live {protocol} calibrate", [*live, "--repeats", "1"], {}),
            (f"live {protocol} workload",
             [*live, "--mode", "workload", "--trace", "--out",
              str(work / f"live-{protocol}")], {}),
        ]
    scripts = ROOT / "scripts"
    commands += [
        (f"reproduce_all jobs {jobs}",
         [sys.executable, str(scripts / "reproduce_all.py"), "--fidelity",
          "smoke", "--no-plots", "--jobs", str(jobs), "--out",
          str(work / f"report_j{jobs}.md")], {})
        for jobs in (1, 2)]
    commands.append(("obs_smoke", [sys.executable,
                                   str(scripts / "obs_smoke.py"), "--out",
                                   str(work / "obs")], {}))
    commands += [(f"example {path.stem}", [sys.executable, str(path)], {})
                 for path in sorted((ROOT / "examples").glob("*.py"))]
    ledger = [sys.executable, str(ROOT / "ledger" / "run.py"), "--scale",
              "0.2", "--repeats", "1", "--out", str(work / "ledger")]
    commands += [("ledger timed", ledger, {}),
                 ("ledger traced", [*ledger, "--trace"], {})]
    commands.append(("benchmarks smoke",
                     [sys.executable, "-m", "pytest", str(ROOT / "benchmarks"),
                      "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
                     {"REPRO_BENCH_FIDELITY": "smoke",
                      "REPRO_BENCH_JOBS": "2"}))
    return commands


def run_drive(dumps):
    """Run every command of :func:`drive` with the hook armed; the
    labels of the ones that failed."""
    hook = Path(tempfile.mkdtemp(prefix="reach-hook-"))
    work = Path(tempfile.mkdtemp(prefix="reach-work-"))
    failed = []
    try:
        (hook / "sitecustomize.py").write_text(HOOK.format(
            root=str(PACKAGE) + os.sep, dumps=str(dumps)), encoding="utf-8")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(hook), str(SRC), *([path] if path else [])]))
        for label, argv, extra in drive(work):
            start = time.monotonic()
            done = subprocess.run(argv, cwd=work, env={**env, **extra},
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  check=False)
            took = time.monotonic() - start
            print(f"{took:6.1f} s  exit {done.returncode}  {label}",
                  file=sys.stderr, flush=True)
            if done.returncode != 0:
                failed.append(label)
                print(done.stderr[-2000:], file=sys.stderr)
    finally:
        shutil.rmtree(hook, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)
    return failed


def functions():
    """``{(file, first line, name): (qualified name, lines)}`` for every
    function the package's AST declares."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qualname = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno, *(
                            d.lineno for d in child.decorator_list)])
                        found[(str(path), first, child.name)] = (
                            qualname, child.end_lineno - first + 1)
                    visit(child, qualname)
                else:
                    visit(child, prefix)

        visit(tree, module.removesuffix(".__init__"))
    return found


def entered(dumps):
    """The ``(file, first line, name)`` of every code object a dump in
    ``dumps`` records."""
    seen = set()
    for path in Path(dumps).glob("*.txt"):
        for line in path.read_text(encoding="utf-8").splitlines():
            file, first, name = line.split("\t")
            seen.add((file, int(first), name))
    return seen


def read_allowlist(path=ALLOWLIST):
    """``[(qualified name, reason)]`` in file order (blank lines and
    ``#`` comments skipped)."""
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(":")
            entries.append((name.strip(), reason.strip()))
    return entries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when an unentered function is not on "
                             "the allowlist, or a drive command failed")
    args = parser.parse_args(argv)
    dumps = Path(tempfile.mkdtemp(prefix="reach-dumps-"))
    try:
        failed = run_drive(dumps)
        found, seen = functions(), entered(dumps)
    finally:
        shutil.rmtree(dumps, ignore_errors=True)
    missed = sorted((qualname, lines, key) for key, (qualname, lines)
                    in found.items() if key not in seen)
    allowed = dict(read_allowlist())
    with open(OUT, "w", encoding="utf-8") as out:
        for qualname, lines, (file, first, _) in missed:
            where = Path(file).relative_to(SRC)
            note = "allowed" if qualname in allowed else "UNEXPLAINED"
            out.write(f"{qualname}  {where}:{first}  {lines} lines  "
                      f"{note}\n")
    unexplained = [qualname for qualname, _, _ in missed
                   if qualname not in allowed]
    missed_names = {qualname for qualname, _, _ in missed}
    print(f"{len(missed)} of {len(found)} functions "
          f"({sum(lines for _, lines, _ in missed)} lines) unentered, "
          f"{len(unexplained)} not on the allowlist; list in {OUT}")
    for name in sorted(set(allowed) - missed_names):
        print(f"allowlisted but entered: {name}")
    for label in failed:
        print(f"drive command failed: {label}")
    if args.check and (unexplained or failed):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
