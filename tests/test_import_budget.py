"""A process imports what it runs.

Every check starts a fresh interpreter and reads its ``sys.modules``:
``repro-experiment list`` simulates nothing, so it must load no runner,
no protocol and no process pool; a closed-loop s-2PL run must load none
of the layers its config leaves off; a package facade imports nothing
until one of its names is asked for, and then every name resolves. No
simulator process maps OpenSSL: stream seeds and fingerprints take
SHA-256 from the interpreter's built-in module, not ``hashlib``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PACKAGES = sorted(
    "repro" + root[len(os.path.join(SRC, "repro")):].replace(os.sep, ".")
    for root, _dirs, files in os.walk(os.path.join(SRC, "repro"))
    if "__init__.py" in files)

#: what the package facades may import at package import, beyond
#: ``repro`` itself and the facade helper
FACADE_EXTRAS = {
    # ``ascii_plot`` shares its submodule's name (see the facade)
    "repro.analysis": {"repro.analysis.ascii_plot", "repro.analysis.tables"},
}

PROTOCOL_MODULES = {f"repro.protocols.{name}" for name in (
    "s2pl", "g2pl", "adaptive", "c2pl", "twoversion", "sharded",
    "sharding")}
POOL_MODULES = {"multiprocessing", "concurrent.futures"}
#: ``hashlib`` maps OpenSSL's libcrypto through ``_hashlib``; ``_ssl``
#: would map it too
OPENSSL_MODULES = {"hashlib", "_hashlib", "_ssl"}


def loaded_after(code):
    """The module names a fresh interpreter holds after running ``code``
    (stdout is swallowed; the names come back through a file)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "json.dump(sorted(sys.modules), sys.stdout)\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def repro_modules(modules):
    return {name for name in modules
            if name == "repro" or name.startswith("repro.")}


def test_cli_list_loads_no_runner_protocol_or_pool():
    modules = loaded_after(
        "import runpy\n"
        "sys.argv = ['repro-experiment', 'list']\n"
        "try:\n"
        "    runpy.run_module('repro.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n")
    assert "repro.core.runner" not in modules
    assert not modules & PROTOCOL_MODULES
    assert not modules & POOL_MODULES
    assert len(repro_modules(modules)) <= 8, sorted(repro_modules(modules))


def test_a_closed_loop_s2pl_run_loads_no_optional_layer():
    modules = loaded_after(
        "from repro.core.config import SimulationConfig\n"
        "from repro.core.runner import run_simulation\n"
        "result = run_simulation(SimulationConfig(\n"
        "    protocol='s2pl', n_clients=4, n_items=8,\n"
        "    total_transactions=40, warmup_transactions=4))\n"
        "assert result.metrics.committed > 0\n")
    assert "repro.protocols.s2pl" in modules
    unused = {
        "repro.protocols.g2pl", "repro.protocols.adaptive",
        "repro.protocols.c2pl", "repro.protocols.twoversion",
        "repro.network.faults", "repro.network.reliable",
        "repro.obs.tracer", "repro.obs.probes",
        "repro.workload.population", "repro.workload.arrivals",
        "repro.live", "multiprocessing", *OPENSSL_MODULES,
    }
    assert not modules & unused, sorted(modules & unused)


def test_the_exporters_load_no_trace_layer():
    # the ledger's child and the CLI import the exporters whatever they
    # run; the trace's own modules come with a trace
    modules = loaded_after("import repro.obs.export\n")
    unused = {"repro.obs.tracer", "repro.obs.probes", "repro.obs.columns",
              "repro.obs.schema", "repro.obs.summary"}
    assert not modules & unused, sorted(modules & unused)


def test_the_figure_sweep_maps_no_openssl():
    # what a serial sweep process loads: the report module, then a cell
    # (traced, so the tracer loads too) through the pool's serial path;
    # and the other digest the package takes, a result's fingerprint
    modules = loaded_after(
        "import repro.analysis.report\n"
        "from repro.core.config import SimulationConfig\n"
        "from repro.core.parallel import SimulationCell, run_cells\n"
        "from repro.perf.fingerprint import (\n"
        "    fingerprint_digest, result_fingerprint)\n"
        "[result] = run_cells([SimulationCell(SimulationConfig(\n"
        "    protocol='g2pl', n_clients=4, n_items=8, trace=True,\n"
        "    total_transactions=40, warmup_transactions=4), 1)])\n"
        "assert len(fingerprint_digest(result_fingerprint(result))) == 64\n")
    assert "repro.obs.tracer" in modules
    assert not modules & OPENSSL_MODULES, sorted(modules & OPENSSL_MODULES)


@pytest.mark.parametrize("package", PACKAGES)
def test_a_facade_imports_nothing_until_asked(package):
    modules = loaded_after(f"import {package}\n")
    expected = {"repro", "repro._lazy", package} | FACADE_EXTRAS.get(
        package, set())
    assert repro_modules(modules) == expected


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    # a fresh interpreter per package: which submodules happen to be
    # loaded already must not decide what a name resolves to
    loaded_after(
        "import importlib, types\n"
        f"package = importlib.import_module({package!r})\n"
        "names = getattr(package, '__all__', [])\n"
        "for name in names:\n"
        "    value = getattr(package, name)\n"
        "    assert not isinstance(value, types.ModuleType), name\n"
        "    assert name in dir(package), name\n"
        f"exec('from {package} import *', {{}})\n")
