"""One-shot reproduction report: every figure and table as markdown.

Used by ``scripts/reproduce_all.py`` to regenerate the material behind
EXPERIMENTS.md at any fidelity.
"""

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.crossover import find_crossover
from repro.analysis.tables import (
    render_experiment,
    render_pairs,
    render_rounds_table,
)
from repro.core import experiments as exp
from repro.network.presets import NetworkEnvironment
from repro.obs.rounds import round_table, run_worked_example


def _block(title, body):
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(fidelity="bench", seed=101, include_plots=True,
                    quick=False, jobs=1):
    """Run the full figure suite; returns a markdown string.

    ``quick`` shrinks every sweep to its endpoints (for tests and smoke
    checks of the reporting pipeline itself).  Every figure's cells are
    planned first and run once together (:func:`repro.core.experiments.
    run_sweeps`): a cell several figures share runs once, and ``jobs>1``
    fans all of them out over one process pool.  The report is
    bit-identical to a serial run, and to running each figure on its own,
    for the same seed.
    """
    sections = []

    def args(**endpoints):  # quick: the sweep's x-axis is its endpoints
        return dict(fidelity=fidelity, seed=seed,
                    **(endpoints if quick else {}))

    def render(result, improvement=True):
        parts = [render_experiment(
            result,
            improvement_between=("s2pl", "g2pl") if improvement
            and "s2pl" in result.series and "g2pl" in result.series
            else None)]
        if include_plots:
            parts.append(ascii_plot(result))
        return "\n\n".join(parts)

    environments = {5: NetworkEnvironment.SS_LAN, 6: NetworkEnvironment.MAN,
                    7: NetworkEnvironment.L_WAN}
    latency_prs = {2: 0.0, 3: 0.6, 4: 1.0, 9: 0.8}
    clients_prs = {12: 0.25, 14: 0.75}
    # keyed by the figure whose response view (or only view) each sweep is
    plans = {figure: exp.latency_sweep_plan(pr, **args(latencies=(1.0, 750.0)))
             for figure, pr in latency_prs.items()}
    plans.update({figure: exp.read_probability_plan(
                      env, **args(read_probabilities=(0.0, 1.0)))
                  for figure, env in environments.items()})
    plans[10] = exp.readonly_aborts_plan(**args(latencies=(1, 100)))
    plans[11] = exp.fl_length_plan(**args(lengths=(1, 8)))
    plans.update({figure: exp.clients_sweep_plan(
                      pr, **args(client_counts=(10, 50)))
                  for figure, pr in clients_prs.items()})
    results = exp.run_sweeps(plans, jobs=jobs)

    sections.append(_block(
        "Table 1 — Simulation parameters",
        render_pairs("", exp.table1_parameters())))
    sections.append(_block(
        "Table 2 — Networking environments",
        render_pairs("", exp.table2_environments())))
    sections.append(_block(
        "Figure 1 — Worked example", str(run_worked_example())))
    sections.append(_block(
        "Round accounting — 3m vs 2m+1 (traced)",
        render_rounds_table(round_table(ms=(2, 4, 8)))))

    for figure in (2, 3, 4):
        sections.append(_block(
            f"Figure {figure} — response vs latency "
            f"(pr={latency_prs[figure]:g})",
            render(results[figure]["response"])))
        if figure == 3:
            sections.append(_block(
                "Figure 8 — aborts vs latency (pr=0.6)",
                render(results[figure]["aborts"], improvement=False)))

    for figure, env in environments.items():
        result = results[figure]["response"]
        crossover = find_crossover(result)
        body = render(result)
        body += (f"\n\nmeasured crossover: "
                 f"{crossover if crossover is None else round(crossover, 3)}")
        sections.append(_block(
            f"Figure {figure} — response vs read probability "
            f"({env.name})", body))

    sections.append(_block("Figure 9 — aborts vs latency (pr=0.8)",
                           render(results[9]["aborts"], improvement=False)))
    sections.append(_block(
        "Figure 10 — read-only deadlocks vs latency",
        render(results[10]["aborts"], improvement=False)))
    sections.append(_block(
        "Figure 11 — aborts vs forward-list length",
        render(results[11]["aborts"], improvement=False)))

    for figure, pr in clients_prs.items():
        sections.append(_block(
            f"Figure {figure} — response vs clients (pr={pr:g})",
            render(results[figure]["response"])))
        sections.append(_block(
            f"Figure {figure + 1} — aborts vs clients (pr={pr:g})",
            render(results[figure]["aborts"], improvement=False)))

    header = (f"# Reproduction report (fidelity: {fidelity}, seed {seed})\n")
    return header + "\n" + "\n".join(sections)
