"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "g2pl" in out and "s2pl" in out
    assert "figures" in out


def test_run_single_simulation(capsys):
    code = main(["run", "--protocol", "s2pl", "--clients", "5",
                 "--items", "8", "--transactions", "100",
                 "--warmup", "10", "--latency", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "s2pl: response=" in out
    assert "throughput" in out


def test_compare(capsys):
    code = main(["compare", "--clients", "6", "--items", "8",
                 "--transactions", "100", "--warmup", "10",
                 "--latency", "20", "--replications", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "improvement over s-2PL" in out


def test_compare_with_jobs(capsys):
    code = main(["compare", "--clients", "6", "--items", "8",
                 "--transactions", "100", "--warmup", "10",
                 "--latency", "20", "--replications", "2", "--jobs", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "improvement over s-2PL" in out


def test_run_with_jobs_notes_serial(capsys):
    code = main(["run", "--protocol", "s2pl", "--clients", "5",
                 "--items", "8", "--transactions", "100",
                 "--warmup", "10", "--latency", "20", "--jobs", "4"])
    assert code == 0
    captured = capsys.readouterr()
    assert "s2pl: response=" in captured.out
    assert "runs serially" in captured.err


def test_compare_builds_its_base_from_the_protocols_it_names(capsys):
    code = main(["compare", "--protocols", "hybrid", "g2pl-ro",
                 "--clients", "4", "--items", "6",
                 "--transactions", "40", "--warmup", "5", "--latency", "20",
                 "--replications", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hybrid" in out and "g2pl-ro" in out


@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "c2pl", "--shards", "2"],
    ["compare", "--protocols", "g2pl", "c2pl", "--shards", "2"]])
def test_a_rejected_combination_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "single-server" in err and "Traceback" not in err


def test_a_live_spec_that_splits_its_window_is_a_usage_error(
        capsys, monkeypatch):
    # 10 clients at the default spacing: the last contender's request
    # would reach the server after the primer's release
    import repro.live.harness

    def launch(*_args, **_kwargs):
        raise AssertionError("a rejected spec must launch no process")

    monkeypatch.setattr(repro.live.harness, "calibrate", launch)
    assert main(["live", "--clients", "10"]) == 2
    err = capsys.readouterr().err
    assert "window splits" in err and "Traceback" not in err


@pytest.mark.parametrize("field, argv", [
    ("faults", ["--faults", "loss=0.1"]),
    ("n_shards", ["--shards", "2"]),
    ("n_regions", ["--shards", "2", "--regions", "2"]),
    ("population", ["--population", "100"]),
])
def test_a_live_run_of_a_field_sockets_cannot_honour_is_a_usage_error(
        capsys, monkeypatch, field, argv):
    # (bandwidth has no flag: tests/test_live_scenario.py)
    import repro.live.harness

    def launch(*_args, **_kwargs):
        raise AssertionError("a rejected spec must launch no process")

    monkeypatch.setattr(repro.live.harness, "calibrate", launch)
    assert main(["live", "--mode", "workload", "--protocol", "g2pl",
                 *argv]) == 2
    err = capsys.readouterr().err
    assert "cannot honour" in err and field in err
    assert "Traceback" not in err


def test_live_takes_its_run_from_the_config_flags(monkeypatch):
    import repro.live.harness

    specs = []

    def launch(spec, **_kwargs):
        specs.append(spec)
        raise SystemExit(0)

    monkeypatch.setattr(repro.live.harness, "calibrate", launch)
    with pytest.raises(SystemExit):
        main(["live", "--mode", "workload", "--pr", "0.3", "--seed", "4"])
    [spec] = specs
    config = spec.config
    # live's own defaults, then the flags
    assert (config.n_clients, config.network_latency) == (4, 2.0)
    assert (config.read_probability, config.seed) == (0.3, 4)
    assert config.trace and config.record_history
    assert spec.mode == "workload" and not spec.trace_export


# -- every run flag parses to the config the flag-by-flag parser built --------

BASE = dict(total_transactions=1000, warmup_transactions=100,
            record_history=False)
HYBRID = ["--protocol", "hybrid"]

#: argv -> the fields it moves off BASE
PARITY = [
    ([], {}),
    (["--clients", "7", "--items", "9"], dict(n_clients=7, n_items=9)),
    (["--pr", "0.3", "--latency", "40"],
     dict(read_probability=0.3, network_latency=40.0)),
    (["--transactions", "500", "--warmup", "50"],
     dict(total_transactions=500, warmup_transactions=50)),
    (["--seed", "9", "--faults", "loss=0"], dict(seed=9, faults="loss=0")),
    (["--shards", "2", "--regions", "2"], dict(n_shards=2, n_regions=2)),
    (["--intra-latency", "3", "--commit", "2pc-opt", "--cross-shard", "0.5"],
     dict(intra_region_latency=3.0, commit_protocol="2pc-opt",
          cross_shard_probability=0.5)),
    (["--population", "100", "--arrival", "burst", "--arrival-rate", "0.002"],
     dict(population=100, arrival="burst", arrival_rate=0.002)),
    (["--zipf", "0.5", "--max-inflight", "8", "--txn-mix", "a:1:1-2:0.5"],
     dict(access_skew=0.5, max_inflight_per_site=8, txn_mix="a:1:1-2:0.5")),
    (["--streaming", "on"], dict(streaming=True)),
    (["--streaming", "off"], dict(streaming=False)),
    (["--streaming", "auto"], {}),
    (["--trace"], dict(trace=True)),
    (["--probe-interval", "50"], dict(probe_interval=50.0)),
    (HYBRID + ["--hybrid-low", "0.1", "--hybrid-high", "0.9",
               "--hybrid-scale", "2", "--adapt-ewma", "0.5"],
     dict(protocol="hybrid", hybrid_low=0.1, hybrid_high=0.9,
          hybrid_scale=2.0, adapt_ewma=0.5)),
]


class _Ran(Exception):
    pass


def _configs_run_by(monkeypatch, argv):
    import repro.cli as cli

    def run(config):
        raise _Ran({config.protocol: config})

    def compare(config, protocols, **_kwargs):
        raise _Ran({p: config.replace(protocol=p) for p in protocols})

    monkeypatch.setattr(cli, "run_simulation", run)
    monkeypatch.setattr(cli, "compare_protocols", compare)
    with pytest.raises(_Ran) as ran:
        main(argv)
    return ran.value.args[0]


@pytest.mark.parametrize("command", ["run", "compare", "trace", "decompose"])
@pytest.mark.parametrize("argv,fields", PARITY,
                         ids=[" ".join(argv) or "[]" for argv, _ in PARITY])
def test_each_flag_parses_to_the_config_it_always_did(monkeypatch, command,
                                                      argv, fields):
    from repro.core.config import SimulationConfig

    kwargs = {**BASE, **fields}
    if command == "compare":
        if "protocol" in kwargs:
            return  # compare names its protocols with --protocols
        expected = {p: SimulationConfig(**kwargs, protocol=p)
                    for p in ("s2pl", "g2pl")}
    else:
        if command != "run":
            kwargs["trace"] = True
        if command == "trace" and "probe_interval" not in fields:
            kwargs["probe_interval"] = 2.0 * kwargs.get("network_latency",
                                                        500.0)
        config = SimulationConfig(**kwargs)
        expected = {config.protocol: config}
    assert _configs_run_by(monkeypatch, [command, *argv]) == expected


def test_every_run_option_is_still_offered():
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    offered = {option for action in run._actions
               for option in action.option_strings}
    assert offered == {
        "--adapt-ewma", "--arrival", "--arrival-rate",
        "--clients", "--commit", "--cross-shard", "--faults", "--help",
        "--hybrid-high", "--hybrid-low", "--hybrid-scale",
        "--intra-latency", "--items", "--jobs", "--latency",
        "--max-inflight", "--population", "--pr", "--probe-interval",
        "--profile", "--protocol", "--regions", "--seed", "--shards",
        "--streaming", "--trace",
        "--transactions", "--txn-mix", "--verbose", "--warmup",
        "--zipf", "-h", "-v"}


def test_figure_with_jobs(capsys):
    code = main(["figure", "11", "--fidelity", "smoke", "--jobs", "2"])
    assert code == 0
    assert "forward" in capsys.readouterr().out.lower()


def test_jobs_defaults_to_serial():
    args = build_parser().parse_args(["compare"])
    assert args.jobs == 1
    args = build_parser().parse_args(["figure", "3", "--jobs", "0"])
    assert args.jobs == 0  # 0 = all CPUs, resolved by the engine


def test_figure_1(capsys):
    assert main(["figure", "1"]) == 0
    assert "Figure 1" in capsys.readouterr().out


def test_figure_unknown(capsys):
    assert main(["figure", "99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_bad_protocol_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--protocol", "mystery"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_with_profile_writes_pstats(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--protocol", "s2pl", "--clients", "4",
                 "--items", "6", "--transactions", "40", "--warmup", "5",
                 "--latency", "20", "--profile"])
    assert code == 0
    pstats_file = tmp_path / "profile_s2pl.pstats"
    assert pstats_file.exists()
    import pstats

    stats = pstats.Stats(str(pstats_file))
    assert stats.total_calls > 0


def test_compare_with_profile_writes_pstats(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["compare", "--clients", "4", "--items", "6",
                 "--transactions", "40", "--warmup", "5", "--latency", "20",
                 "--replications", "1", "--profile"])
    assert code == 0
    assert (tmp_path / "profile_s2pl-g2pl.pstats").exists()
