"""Result analysis and rendering: text tables, ASCII plots, crossovers."""

from repro._lazy import lazy_exports

# The one eager export: the function is named like its own submodule, and
# importing ``repro.analysis.ascii_plot`` binds the module under that name
# in this package, where a lazy export would never be asked for.
from repro.analysis.ascii_plot import ascii_plot

__all__ = ["ascii_plot", "describe_shard_grid", "find_crossover",
           "render_experiment", "render_pairs", "shard_crossover_grid"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.crossover": ("describe_shard_grid", "find_crossover",
                                 "shard_crossover_grid"),
    "repro.analysis.tables": ("render_experiment", "render_pairs"),
})
