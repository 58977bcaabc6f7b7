"""Unit tests for the versioned store."""

import pytest

from repro.storage import VersionedStore


class TestVersionedStore:
    def test_create_and_read(self):
        store = VersionedStore(range(3))
        assert store.item_ids() == [0, 1, 2]
        assert store.read(0).version == 0

    def test_duplicate_create_rejected(self):
        store = VersionedStore([1])
        with pytest.raises(ValueError):
            store.create(1)

    def test_install_bumps_version(self):
        store = VersionedStore([7])
        assert store.install(7, value="v1", now=3.0) == 1
        assert store.install(7, value="v2", now=5.0) == 2
        item = store.read(7)
        assert item.version == 2
        assert item.value == "v2"
        assert item.installed_at == 5.0
        assert store.installs == 2

    def test_missing_item_read_raises(self):
        store = VersionedStore()
        with pytest.raises(KeyError):
            store.read(5)
