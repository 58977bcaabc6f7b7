"""Self-test of the ledger benchmark (not part of tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest ledger/test_ledger.py -q

Drives ``run.py`` at 1/20 scale and checks the shape of what it reports:
every declared metric present with its unit, names and counts inside the
contract's limits, layer shares summing to one, exact counters repeating,
and the package -> layer map covering every package of ``src/repro``.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import cells
import compare
import rollup
import surface
from calibrate import Sampler
from workloads import WORKLOADS, SimWorkload

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SIM_WORKLOADS = [name for name, workload in WORKLOADS.items()
                 if isinstance(workload, SimWorkload)]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(out_dir, *flags, result_file="result.json"):
    # the timeout is the contract's cap on one run: a guard against a
    # hang, not a speed assertion (this host changes speed by 2x)
    done = subprocess.run(
        [sys.executable, RUN, "--out", str(out_dir), *flags],
        stdout=subprocess.PIPE, text=True, check=False, timeout=180)
    assert done.returncode == 0, done.stdout
    with open(os.path.join(out_dir, result_file)) as handle:
        result = json.load(handle)
    return result, done.stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    flags = ["--scale", "0.05", "--repeats", "2", "--trace"]
    for name in SIM_WORKLOADS:
        flags += ["--workload", name]
    out_dir = tmp_path_factory.mktemp("traced")
    result, _ = _run(out_dir, *flags, result_file="result.traced.json")
    return result, out_dir


def test_benchmark_json_is_inside_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_traced_run_reports_every_per_layer_metric(spec, traced):
    result, out_dir = traced
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(result["workloads"]) == sorted(SIM_WORKLOADS)
    for name, record in result["workloads"].items():
        assert record["correct"], (name, record["checks"])
        assert record["failed"] == 0
        assert {key: entry["unit"] for key, entry in
                record["metrics"].items()} == declared
        for key, entry in record["metrics"].items():
            if entry["value"] is None:
                assert entry["skipped_reason"], (name, key)
    assert os.path.getsize(os.path.join(out_dir, "trace.jsonl")) > 0


def test_layer_shares_sum_to_one(traced):
    for name, record in traced[0]["workloads"].items():
        shares = [record["metrics"][f"{layer}.self_share"]["value"]
                  for layer in rollup.LAYERS]
        assert abs(sum(shares) - 1.0) <= 0.01, name
        assert record["metrics"]["other.self_share"]["value"] < 0.05, name


def test_exact_counters_repeat(traced):
    # the child compares every deterministic fact of its two repeats
    for name, record in traced[0]["workloads"].items():
        assert record["checks"]["repeats_identical"] is True, name
        assert record["checks"]["accounting_closes"] is True, name
        assert record["checks"]["history_checks_pass"] is True, name
    checks = traced[0]["workloads"]["traced_g2pl"]["checks"]
    assert checks["trace_agrees_with_untraced"] is True
    assert checks["jsonl_line_per_record"] is True


def test_trace_spans_name_their_parents(traced):
    with open(os.path.join(traced[1], "trace.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]
    assert {span["workload"] for span in spans} == set(SIM_WORKLOADS)
    for span in spans:
        assert set(span) == {"name", "start", "end", "parent", "workload"}
        assert span["end"] >= span["start"]
    names = {(span["workload"], span["name"]) for span in spans}
    assert all((span["workload"], span["parent"]) in names
               for span in spans if span["parent"])
    assert {"setup", "warmup", "repeat[0]", "sim_run", "profile", "cells",
            "verify"} <= {span["name"] for span in spans}


def test_contract_line(spec, tmp_path):
    _, stdout = _run(tmp_path, "--workload", "closed_s2pl", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--scale", "0.05")
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {key: entry["unit"] for key, entry in line["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(set(entry) == {"value", "unit"} and entry["value"] > 0
               for entry in line["metrics"].values())


def test_figure_sweep_end_to_end(spec, tmp_path):
    result, _ = _run(tmp_path, "--workload", "figure_sweep",
                     "--repeats", "1")
    record = result["workloads"]["figure_sweep"]
    assert record["correct"], record["checks"]
    assert (record["attempted"], record["failed"]) == (
        len(surface.SWEEP_SECTIONS), 0)
    assert set(record["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(entry["value"] > 0 for entry in record["metrics"].values())


def test_every_package_has_a_layer():
    packages = {entry for entry in os.listdir(surface.PACKAGE_ROOT)
                if os.path.isdir(os.path.join(surface.PACKAGE_ROOT, entry))
                and not entry.startswith("__")}
    assert packages == set(rollup.PACKAGE_LAYERS)
    modules = {os.path.splitext(entry)[0] for entry in os.listdir(
        os.path.join(surface.PACKAGE_ROOT, "protocols"))}
    assert set(rollup.PROTOCOL_MODULE_LAYERS) <= modules
    assert rollup.layer_of(
        os.path.join(surface.PACKAGE_ROOT, "sim", "engine.py"),
        surface.PACKAGE_ROOT) == "sim"
    assert rollup.layer_of(
        os.path.join(surface.PACKAGE_ROOT, "protocols", "c2pl.py"),
        surface.PACKAGE_ROOT) == "protocols.other"
    assert rollup.layer_of(os.__file__, surface.PACKAGE_ROOT) is None


def test_workloads_stay_inside_the_listed_surface():
    for name in SIM_WORKLOADS:
        keywords = WORKLOADS[name].config_keywords(seed=1, scale=1.0)
        assert set(keywords) <= set(surface.CONFIG_KEYWORDS), name
        surface.SimulationConfig(**keywords)


def test_missing_cell_symbol_is_skipped_not_fatal(monkeypatch):
    monkeypatch.setitem(surface.CELL_SURFACE, "Timer",
                        "repro.sim.timers:NoSuchTimer")
    monkeypatch.setitem(surface.CELL_SURFACE, "Simulator",
                        "repro.sim.no_such_module:Simulator")
    sampler = Sampler()
    sampler.start()
    try:
        values, skipped = cells.run_cells(sampler, seconds=0.005)
    finally:
        sampler.stop()
    assert set(values) == set(cells.CELLS)
    assert values["sim.ns_per_timer_cancel"] is None
    assert "is gone" in skipped["sim.ns_per_timer_cancel"]
    # the rung above a skipped rung cannot be subtracted either
    assert values["network.ns_per_send"] is None
    assert values["locking.ns_per_acquire_release"] > 0


def test_verdicts():
    lower = {"better": "lower", "bound": 0.1}
    higher = {"better": "higher", "bound": 0.1}
    assert compare.verdict(lower, 1.0, 1.2, 0.0) == "regressed"
    assert compare.verdict(lower, 1.0, 0.8, 0.0) == "improved"
    assert compare.verdict(lower, 1.0, 1.05, 0.0) == "within bound"
    assert compare.verdict(lower, 1.0, 1.05, 0.3) == "unresolved"
    assert compare.verdict(higher, 100.0, 85.0, 0.0) == "regressed"
    assert compare.verdict(higher, 100.0, 120.0, 0.0) == "improved"
    assert compare.verdict(higher, 100.0, 120.0, 0.0, more_fail=True) \
        == "improved" + compare.VOID
    assert compare.verdict(lower, 1.0, 1.05, 0.0, more_fail=True) \
        == "within bound"
