"""Tests for the directory-level table catalog (repro.io.catalog)."""

import json

import numpy as np
import pytest

from repro.api import col, dataset
from repro.errors import StorageError
from repro.io import CATALOG_FILE, Catalog
from repro.schemes import NullSuppression, RunLengthEncoding
from repro.storage import Table


def small_table(seed: int = 1, rows: int = 5_000) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_pydict(
        {
            "k": np.sort(rng.integers(0, 100, rows)).astype(np.int64),
            "v": rng.integers(0, 1_000, rows).astype(np.int64),
        },
        schemes={"k": RunLengthEncoding(), "v": NullSuppression()},
        chunk_size=1_024,
    )


class TestCatalogBasics:
    def test_save_and_list(self, tmp_path):
        catalog = Catalog(tmp_path / "warehouse")
        catalog.save("orders", small_table(1))
        catalog.save("customers", small_table(2, rows=2_000))
        assert catalog.names() == ["customers", "orders"]
        assert "orders" in catalog
        assert len(catalog) == 2
        assert list(catalog) == ["customers", "orders"]

    def test_info_is_metadata_only(self, tmp_path):
        catalog = Catalog(tmp_path)
        table = small_table()
        path = catalog.save("orders", table)
        info = catalog.info("orders")
        assert info["row_count"] == table.row_count
        assert info["columns"] == ["k", "v"]
        assert info["file"] == "orders.rpk"
        assert info["file_size"] == path.stat().st_size

    def test_open_lazily_and_query(self, tmp_path):
        catalog = Catalog(tmp_path)
        table = small_table()
        catalog.save("orders", table)
        handle = catalog.open("orders")
        assert handle.bytes_mapped == 0
        got = (dataset(catalog.table("orders")).filter(col("k").between(10, 20))
               .agg(col("v").sum()).collect())
        want = (dataset(table).filter(col("k").between(10, 20))
                .agg(col("v").sum()).collect())
        assert got.scalars == want.scalars
        assert 0 < handle.bytes_mapped < handle.file_size

    def test_open_handle_is_cached(self, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.save("orders", small_table())
        assert catalog.open("orders") is catalog.open("orders")

    def test_persists_across_instances(self, tmp_path):
        Catalog(tmp_path).save("orders", small_table())
        reopened = Catalog(tmp_path, create=False)
        assert reopened.names() == ["orders"]
        assert reopened.table("orders").row_count == 5_000

    def test_drop_removes_file_and_entry(self, tmp_path):
        catalog = Catalog(tmp_path)
        path = catalog.save("orders", small_table())
        catalog.drop("orders")
        assert catalog.names() == []
        assert not path.exists()

    def test_overwrite_refreshes_open_handle(self, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.save("orders", small_table(1))
        first = catalog.open("orders")
        catalog.save("orders", small_table(2, rows=3_000))
        second = catalog.open("orders")
        assert second is not first
        assert second.row_count == 3_000


class TestCatalogErrors:
    def test_unknown_table(self, tmp_path):
        catalog = Catalog(tmp_path)
        with pytest.raises(StorageError, match="no table 'missing'"):
            catalog.table("missing")

    def test_invalid_name_rejected(self, tmp_path):
        catalog = Catalog(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(StorageError, match="invalid table name"):
                catalog.save(bad, small_table())

    def test_no_overwrite_mode(self, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.save("orders", small_table())
        with pytest.raises(StorageError, match="already has a table"):
            catalog.save("orders", small_table(), overwrite=False)

    def test_missing_directory_without_create(self, tmp_path):
        with pytest.raises(StorageError, match="does not exist"):
            Catalog(tmp_path / "nope", create=False)

    def test_corrupt_catalog_file(self, tmp_path):
        (tmp_path / CATALOG_FILE).write_text("{not json")
        with pytest.raises(StorageError, match="corrupt catalog"):
            Catalog(tmp_path)

    def test_unknown_catalog_version(self, tmp_path):
        (tmp_path / CATALOG_FILE).write_text(
            json.dumps({"catalog_version": 99, "tables": {}}))
        with pytest.raises(StorageError, match="unsupported catalog version 99"):
            Catalog(tmp_path)

    def test_refresh_picks_up_external_writes(self, tmp_path):
        catalog = Catalog(tmp_path)
        other = Catalog(tmp_path)
        other.save("orders", small_table())
        assert "orders" not in catalog
        catalog.refresh()
        assert "orders" in catalog

    def test_concurrent_saves_do_not_lose_entries(self, tmp_path):
        """save() merges the on-disk listing first: two Catalog instances
        saving different tables must not overwrite each other's entries."""
        first = Catalog(tmp_path)
        second = Catalog(tmp_path)
        first.save("orders", small_table(1))
        second.save("customers", small_table(2, rows=2_000))
        assert Catalog(tmp_path).names() == ["customers", "orders"]

    def test_drop_does_not_lose_external_entries(self, tmp_path):
        first = Catalog(tmp_path)
        first.save("orders", small_table(1))
        second = Catalog(tmp_path)
        first.save("customers", small_table(2, rows=2_000))
        second.drop("orders")
        assert Catalog(tmp_path).names() == ["customers"]
