"""The server's versioned data-item store."""

from dataclasses import dataclass


@dataclass
class DataItem:
    """An installed data item: identity, committed version, opaque value."""

    item_id: int
    version: int = 0
    value: object = None
    installed_at: float = 0.0


class VersionedStore:
    """Holds the committed state of every data item at the server.

    Versions increase by one per installed update; reads return the current
    committed version. The version numbers let the serializability validator
    reconstruct reads-from relationships exactly.
    """

    def __init__(self, item_ids=()):
        self._items = {}
        for item_id in item_ids:
            self.create(item_id)
        self.installs = 0

    def create(self, item_id):
        """Register a new data item at version 0."""
        if item_id in self._items:
            raise ValueError(f"item {item_id!r} already exists")
        item = DataItem(item_id=item_id)
        self._items[item_id] = item
        return item

    def item_ids(self):
        return list(self._items)

    def read(self, item_id):
        """Return the committed :class:`DataItem` (not a copy)."""
        return self._items[item_id]

    def version(self, item_id):
        return self._items[item_id].version

    def install(self, item_id, value=None, now=0.0):
        """Install a new committed version; returns the new version number."""
        item = self._items[item_id]
        item.version += 1
        item.value = value
        item.installed_at = now
        self.installs += 1
        return item.version

    def install_as(self, item_id, version, value=None, now=0.0):
        """Install an explicit version number (g-2PL: a returning item may
        carry several chained committed updates at once)."""
        item = self._items[item_id]
        if version <= item.version:
            raise ValueError(
                f"item {item_id}: cannot install version {version} over "
                f"{item.version}")
        item.version = version
        item.value = value
        item.installed_at = now
        self.installs += 1
        return item.version
