"""Property tests (hypothesis): the packed v2 format round-trips everything.

Every *registered* scheme (``repro.schemes.registry.SCHEME_FACTORIES``),
plus representative cascades, is pushed through a save → load cycle on
hypothesis-generated columns stored with odd chunk sizes.  The invariants:

* the loaded column materialises **bit-identically** to the stored one
  (for lossy model schemes: identical to the stored approximation);
* queries over the loaded table answer exactly like the in-memory table;
* a selective scan over a multi-chunk packed table maps fewer bytes than
  the file holds (the format's reason to exist);
* zero-length constituent segments (e.g. outlier-free PFOR) survive.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import col, count, dataset
from repro.columnar import Column
from repro.io import load_table, open_table, save_table
from repro.schemes import Cascade, Delta, NullSuppression, RunLengthEncoding
from repro.schemes.registry import SCHEME_FACTORIES, make_scheme
from repro.storage import Table
from repro.storage.column_store import StoredColumn

#: Bounded values so signed intermediate arithmetic can never overflow.
VALUE = st.integers(min_value=-(2**40), max_value=2**40)

#: Chunk sizes deliberately misaligned with everything.
ODD_CHUNK_SIZES = st.sampled_from([1, 3, 7, 61, 250, 977])

#: Every registered stand-alone scheme under its default construction.
REGISTERED = sorted(SCHEME_FACTORIES)

#: Cascades covering nested forms (single and double re-compression).
CASCADES = {
    "RLE∘DELTA": lambda: Cascade(RunLengthEncoding(), {"values": Delta()}),
    "RLE∘[DELTA,NS]": lambda: Cascade(
        RunLengthEncoding(), {"values": Delta(), "lengths": NullSuppression()}),
    "DELTA∘NS": lambda: Cascade(Delta(narrow=False),
                                {"deltas": NullSuppression()}),
}


def int_columns(min_size=1, max_size=400):
    return st.lists(VALUE, min_size=min_size, max_size=max_size).map(
        lambda xs: Column(np.array(xs, dtype=np.int64), name="v")
    )


def _roundtrip(stored: StoredColumn) -> StoredColumn:
    with tempfile.TemporaryDirectory() as tmp:
        path = save_table(Table({"v": stored}), Path(tmp) / "t.rpk")
        loaded = load_table(path)
        # Materialise before the memmap's file disappears with the tempdir.
        for chunk in loaded.column("v").chunks:
            chunk.decompress()
        return loaded.column("v")


@pytest.mark.parametrize("scheme_name", REGISTERED)
@given(column=int_columns(), chunk_size=ODD_CHUNK_SIZES)
@settings(max_examples=15, deadline=None)
def test_registered_scheme_roundtrips_through_v2(scheme_name, column, chunk_size):
    scheme = make_scheme(scheme_name)
    stored = StoredColumn.from_column(column, scheme=scheme,
                                      chunk_size=chunk_size)
    loaded = _roundtrip(stored)
    assert loaded.num_chunks == stored.num_chunks
    assert loaded.encodings() == stored.encodings()
    # Bit-identical to what was *stored* — exact for lossless schemes,
    # the identical approximation for lossy model schemes.
    assert loaded.materialize().equals(stored.materialize(), check_dtype=True)
    if scheme.is_lossless:
        assert loaded.materialize().equals(column)


@pytest.mark.parametrize("cascade_name", sorted(CASCADES))
@given(column=int_columns(), chunk_size=ODD_CHUNK_SIZES)
@settings(max_examples=15, deadline=None)
def test_cascades_roundtrip_through_v2(cascade_name, column, chunk_size):
    scheme = CASCADES[cascade_name]()
    stored = StoredColumn.from_column(column, scheme=scheme,
                                      chunk_size=chunk_size)
    loaded = _roundtrip(stored)
    assert loaded.materialize().equals(column, check_dtype=True)


@given(column=int_columns(min_size=2), chunk_size=ODD_CHUNK_SIZES,
       window=st.tuples(VALUE, st.integers(min_value=0, max_value=2**20)))
@settings(max_examples=25, deadline=None)
def test_query_results_bit_identical_after_roundtrip(column, chunk_size, window):
    lo, width = window
    table = Table({"v": StoredColumn.from_column(column, scheme=Delta(),
                                                 chunk_size=chunk_size)})
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_table(save_table(table, Path(tmp) / "t.rpk"))
        predicate = col("v").between(lo, lo + width)
        want = dataset(table).filter(predicate).agg(count()).collect()
        got = dataset(loaded).filter(predicate).agg(count()).collect()
        assert got.scalars == want.scalars
        assert got.row_count == want.row_count


@given(num_chunks=st.integers(min_value=4, max_value=12),
       chunk_rows=st.integers(min_value=64, max_value=300))
@settings(max_examples=10, deadline=None)
def test_selective_scan_maps_fewer_bytes_than_file(num_chunks, chunk_rows):
    """Zone-map pruning must translate into strictly partial file I/O."""
    values = np.repeat(np.arange(num_chunks, dtype=np.int64) * 1_000,
                       chunk_rows)
    payload = np.arange(values.size, dtype=np.int64)
    table = Table.from_pydict(
        {"k": values, "v": payload},
        schemes={"k": RunLengthEncoding(), "v": NullSuppression()},
        chunk_size=chunk_rows,
    )
    with tempfile.TemporaryDirectory() as tmp:
        packed = open_table(save_table(table, Path(tmp) / "t.rpk"))
        result = (dataset(packed.table).filter(col("k") == 0)
                  .agg(col("v").sum()).collect())
        assert result.row_count == chunk_rows
        assert 0 < packed.bytes_mapped < packed.file_size
        assert result.scan_stats.chunks_skipped > 0


@given(segment_length=st.integers(min_value=8, max_value=120),
       rows=st.integers(min_value=1, max_value=900))
@settings(max_examples=15, deadline=None)
def test_empty_constituents_roundtrip(segment_length, rows):
    """Outlier-free PFOR yields zero-length exception segments; they must
    survive the packed format on any chunking."""
    column = Column(np.arange(rows, dtype=np.int64) % 7, name="v")
    scheme = make_scheme("PFOR", segment_length=segment_length)
    stored = StoredColumn.from_column(column, scheme=scheme, chunk_size=250)
    assert any(
        len(chunk.form.constituent(name)) == 0
        for chunk in stored.iter_chunks()
        for name in chunk.form.columns
    )
    loaded = _roundtrip(stored)
    assert loaded.materialize().equals(column, check_dtype=True)
