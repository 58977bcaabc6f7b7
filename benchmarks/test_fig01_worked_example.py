"""Figure 1: the worked example of exclusive access (3 clients).

Paper: total execution time 15 units under s-2PL vs 12 under g-2PL (20%
reduction). Measured from "lock first available" to "final release at the
server" the implementation gives exactly 15 vs 11 — the paper's own round
arithmetic (m·(2L+P) vs (m+1)·L+m·P) counts one extra unit for g-2PL; see
EXPERIMENTS.md.
"""

import pytest

from repro.obs.rounds import run_worked_example

from conftest import emit


def test_fig01_worked_example(benchmark, report):
    result = benchmark.pedantic(run_worked_example, rounds=1, iterations=1)
    emit(report,
         "Figure 1: worked example, 3 exclusive-access clients "
         "(latency 2, processing 1)",
         f"  s-2PL: {result.s2pl_span:g} units, {result.s2pl_rounds} rounds"
         f"  (paper: 15 units)",
         f"  g-2PL: {result.g2pl_span:g} units, {result.g2pl_rounds} rounds"
         f"  (paper: 12 units)",
         f"  improvement: {result.improvement_percentage:.1f}% "
         f"(paper: 20%)")
    assert result.s2pl_span == pytest.approx(15.0)
    assert result.g2pl_span == pytest.approx(11.0)
    assert result.g2pl_rounds < result.s2pl_rounds


def test_fig01_scaling_in_clients(benchmark, report):
    """The round saving grows with the chain: (m-1) hops saved."""
    spans = benchmark.pedantic(
        lambda: {m: run_worked_example(n_clients=m) for m in (2, 3, 5, 8)},
        rounds=1, iterations=1)
    lines = ["Figure 1 (extended): span vs number of chained clients"]
    for m, result in spans.items():
        lines.append(f"  m={m}: s-2PL {result.s2pl_span:g} vs g-2PL "
                     f"{result.g2pl_span:g} "
                     f"({result.improvement_percentage:.1f}%)")
    emit(report, *lines)
    for m, result in spans.items():
        assert result.s2pl_span == pytest.approx(m * (2 * 2 + 1))
        assert result.g2pl_span == pytest.approx((m + 1) * 2 + m * 1)
