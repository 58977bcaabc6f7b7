"""Test the one-shot reproduction report generator and its one plan."""

import zlib
from types import SimpleNamespace

import pytest
from helpers import report_figure_by_figure

import repro.core.runner as runner
from repro.analysis.report import generate_report
from repro.core import experiments as exp


def _counting(monkeypatch, run):
    """Route every simulation cell through ``run``; returns the seeds of
    the calls, in call order (serial runs only: workers do not see it)."""
    calls = []

    def counted(config, seed=None, check_serializability=None):
        calls.append(seed)
        return run(config, seed=seed,
                   check_serializability=check_serializability)

    monkeypatch.setattr(runner, "run_simulation", counted)
    return calls


def _stand_in(config, seed=None, check_serializability=None):
    # Two numbers that depend on every config field and the seed, so a
    # cell merged with a different one, or folded into the wrong point,
    # changes the report.
    digest = zlib.crc32(repr((sorted(vars(config).items()), seed)).encode())
    return SimpleNamespace(mean_response_time=digest % 100_003 / 7.0,
                           abort_percentage=digest % 1_009 / 11.0)


@pytest.fixture(scope="module")
def quick_report():
    """One quick smoke report with plots, rendered once for every test
    here that reads it, with its simulation count."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting(monkeypatch, runner.run_simulation)
        report = generate_report(fidelity="smoke", quick=True,
                                 include_plots=True)
    return report, len(calls)


def test_quick_report_contains_every_figure_and_table(quick_report):
    report, _ = quick_report
    assert "# Reproduction report" in report
    assert "Table 1" in report and "Table 2" in report
    for figure in range(1, 16):
        assert f"Figure {figure} " in report, figure
    assert "measured crossover" in report
    assert "improvement" in report
    assert "Round accounting" in report
    assert "2m+1" in report


def test_quick_report_with_plots_renders_legends(quick_report):
    report, _ = quick_report
    assert "legend:" in report
    assert "*=s2pl" in report


def test_quick_report_shrinks_every_sweep_and_runs_shared_cells_once(
        quick_report):
    # Figures 2-4/8 12, 5-7 12 (8 of them Figure 2/4 cells again), 9 4,
    # 10 4 (its endpoints, not all eight latencies), 11 2, 12-15 8.
    _, cells = quick_report
    assert cells == 12 + 12 - 8 + 4 + 4 + 2 + 8 == 34


def test_quick_report_equals_figure_by_figure_and_jobs_2(quick_report):
    report, _ = quick_report
    assert report_figure_by_figure(fidelity="smoke", quick=True,
                                   include_plots=True) == report
    assert generate_report(fidelity="smoke", quick=True, include_plots=True,
                           jobs=2) == report


def test_smoke_report_runs_138_distinct_cells_and_equals_figure_by_figure(
        monkeypatch):
    # 162 planned cells: Figures 5-7 at pr 0, 0.6 and 1.0 repeat Figures
    # 2-4's cells at latency 1, 250 and 750 (18), and Figure 9 there
    # repeats Figures 5-7's pr 0.8 cells (6).
    calls = _counting(monkeypatch, _stand_in)
    planned = generate_report(fidelity="smoke", seed=73, include_plots=False)
    assert len(calls) == 138
    del calls[:]
    assert report_figure_by_figure(fidelity="smoke", seed=73,
                                   include_plots=False) == planned
    assert len(calls) == 162


def test_figure11_cells_are_not_merged(monkeypatch):
    # describe() omits max_forward_list_length; the cell key must not
    calls = _counting(monkeypatch, _stand_in)
    result = exp.run_sweeps({11: exp.fl_length_plan(fidelity="smoke")})[11]
    assert len(calls) == 8
    assert len(set(result["aborts"].series["g2pl"].ys)) == 8
