"""Immutable transaction specifications."""

from dataclasses import dataclass
from typing import Tuple

from repro.locking.modes import LockMode

READ = LockMode.READ


@dataclass(slots=True)
class Operation:
    """One sequential data access: which item, which mode, how long the
    client computes after the data arrives."""

    item_id: int
    mode: LockMode
    think_time: float

    @property
    def is_read(self):
        return self.mode is READ


@dataclass(slots=True)
class TransactionSpec:
    """The full access list of one transaction, fixed at generation time."""

    operations: Tuple[Operation, ...]

    def __post_init__(self):
        if not self.operations:
            raise ValueError("a transaction needs at least one operation")
        items = [op.item_id for op in self.operations]
        if len(set(items)) != len(items):
            raise ValueError(f"duplicate items in transaction: {items}")

    @property
    def n_ops(self):
        return len(self.operations)

    @property
    def items(self):
        return tuple(op.item_id for op in self.operations)

    @property
    def n_writes(self):
        return sum(1 for op in self.operations if not op.is_read)

    @property
    def is_read_only(self):
        return self.n_writes == 0
