"""Module-level store read path: dataset_path and open_sealed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DatasetStore
from repro.data.store import dataset_path, open_sealed
from repro.errors import PersistenceError
from repro.serve.metrics import MetricsRegistry


@pytest.fixture()
def store(tmp_path):
    return DatasetStore(tmp_path / "store", metrics=MetricsRegistry())


def _items(n):
    rng = np.random.default_rng(11)
    return [
        (index, 1, rng.random((4 + index, 2)), f"fp-{index}")
        for index in range(n)
    ]


def test_dataset_path_validates_keys(tmp_path):
    assert dataset_path(tmp_path, "abcd1234").parent.name == "ab"
    for bad in ("", "a/b", "a\\b", "a.b"):
        with pytest.raises(ValueError, match="malformed dataset key"):
            dataset_path(tmp_path, bad)


def test_open_sealed_matches_store_open(store):
    key = "beef0sealed"
    store.ingest(key, _items(3))
    via_store = store.open(key)
    via_module = open_sealed(store.root, key)
    assert len(via_module) == len(via_store) == 3
    for ours, theirs in zip(via_module.sequences, via_store.sequences):
        np.testing.assert_array_equal(ours, theirs)


def test_open_sealed_refuses_missing_dataset(store):
    with pytest.raises(PersistenceError, match="no sealed dataset"):
        open_sealed(store.root, "beef1absent")
