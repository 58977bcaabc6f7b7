"""Process-pool execution engine for simulation sweeps.

Every point of every figure is an independent (config, seed) simulation
cell, so the whole figure suite is embarrassingly parallel.  This module
fans cells out over a :class:`concurrent.futures.ProcessPoolExecutor`
(spawn context, so it is safe under any start method and on any
platform) while preserving the headline guarantee of the serial runner:

* **Determinism** — seed assignment is exactly the serial scheme
  (:func:`replication_seed`, ``base_seed + 7919 * index``) and results
  are reassembled in submission order, so a parallel run is bit-identical
  to a serial run of the same cells.  ``tests/test_parallel_runner.py``
  enforces this.
* **Serial bypass** — ``jobs=1`` never touches the pool (no pickling, no
  subprocesses), so the default path is byte-for-byte the old one.
* **Error propagation** — a failed cell cancels the rest of the pool and
  re-raises as :class:`CellError` carrying the cell's config description
  and seed, instead of hanging or silently dropping the point.
"""

import gc
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from multiprocessing import get_context

#: Multiplier spacing replication seeds apart (prime, matching the
#: original serial scheme in ``run_replications``).
SEED_STRIDE = 7919


def replication_seed(base_seed, index):
    """Seed for replication ``index`` of a run family (serial scheme)."""
    return base_seed + SEED_STRIDE * index


@dataclass(frozen=True)
class SimulationCell:
    """One picklable unit of work: a single simulation run."""

    config: object                     # SimulationConfig
    seed: int
    check_serializability: object = None

    def describe(self):
        return f"{self.config.describe()} seed={self.seed}"


class CellError(RuntimeError):
    """A simulation cell failed; carries which cell and why."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


def resolve_jobs(jobs):
    """Normalise a jobs request: ``None``/``0``/``"auto"`` means one
    worker per CPU; anything below 1 is an error."""
    if jobs is None or jobs == 0 or jobs == "auto":
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0/'auto'), got {jobs}")
    return jobs


def _execute_cell(cell, keep=None):
    # Top-level so the spawn pickler can find it; the import is deferred
    # to avoid a circular import with repro.core.runner.
    from repro.core.runner import run_simulation

    result = run_simulation(cell.config, seed=cell.seed,
                            check_serializability=cell.check_serializability)
    # The finished assembly is cyclic garbage (sites, processes and events
    # refer to each other) in the young generations. Collect it now: the
    # next cell's run relaxes the collector's thresholds, so left alone it
    # survives that run, and a sweep's garbage piles up across cells.
    gc.collect(1)
    return result if keep is None else keep(result)


def _run_serial(cells, progress, keep):
    results = []
    for index, cell in enumerate(cells):
        try:
            results.append(_execute_cell(cell, keep))
        except Exception as exc:
            raise CellError(
                f"simulation cell {index} failed "
                f"({cell.describe()}): {exc}", cell=cell) from exc
        if progress is not None:
            progress(len(results), len(cells))
    return results


def run_cells(cells, jobs=1, progress=None, keep=None):
    """Run simulation cells and return their results in input order.

    ``jobs=1`` runs serially in-process (no pool, no pickling);
    ``jobs>1`` fans out over a spawn-context process pool.  ``0``,
    ``None`` or ``"auto"`` use every CPU.  ``progress(done, total)``,
    when given, is called after each cell completes (from this process).
    ``keep``, a picklable callable, maps each result where its cell ran
    (in the worker at ``jobs>1``); only what it returns is kept.

    A failing cell cancels the outstanding work and raises
    :class:`CellError` naming the cell's configuration and seed.
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    if not cells:
        return []
    if jobs == 1 or len(cells) == 1:
        return _run_serial(cells, progress, keep)

    workers = min(jobs, len(cells))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(_execute_cell, cell, keep) for cell in cells]
        index_of = {future: index for index, future in enumerate(futures)}
        done_count = 0
        for future in as_completed(futures):
            exc = future.exception()
            if exc is not None:
                for other in futures:
                    other.cancel()
                index = index_of[future]
                raise CellError(
                    f"simulation cell {index} failed "
                    f"({cells[index].describe()}): {exc}",
                    cell=cells[index]) from exc
            done_count += 1
            if progress is not None:
                progress(done_count, len(cells))
        return [future.result() for future in futures]
