"""Output checkers. Each compares what the program returned with a result
computed apart from it (pyarrow, numpy, zlib or DuckDB) and raises
``CheckError`` naming the first difference; nothing here imports the
program."""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa


class CheckError(AssertionError):
    pass


def _fail(what: str, detail: str) -> None:
    raise CheckError(f"{what}: {detail}")


def same_rows(what: str, actual: pa.Table, expected: pa.Table, sort_keys: list[str]) -> None:
    """Row multiset equality on ``expected``'s columns and types, after
    sorting both sides by ``sort_keys`` (which must identify rows)."""
    missing = [c for c in expected.column_names if c not in actual.column_names]
    if missing:
        _fail(what, f"columns {missing} missing (have {actual.column_names})")
    if actual.num_rows != expected.num_rows:
        _fail(what, f"{actual.num_rows} rows, expected {expected.num_rows}")
    try:
        actual = actual.select(expected.column_names).cast(expected.schema)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
        _fail(what, f"schema {actual.schema} does not cast to {expected.schema}: {e}")
    order = [(k, "ascending") for k in sort_keys]
    a = actual.sort_by(order)
    b = expected.sort_by(order)
    for name in expected.column_names:
        if not a[name].equals(b[name]):
            x = a[name].combine_chunks()
            y = b[name].combine_chunks()
            bad = next(i for i in range(len(y)) if x[i] != y[i])
            _fail(what, f"column {name!r} differs at sorted row {bad}: {x[bad]} != {y[bad]}")


def int_aggregates(what: str, actual: dict, flat: np.ndarray) -> None:
    """``{n, sum, min, max}`` against numpy over the flattened values."""
    expected = {
        "n": int(len(flat)),
        "sum": int(flat.astype(np.int64).sum()),
        "min": int(flat.min()) if len(flat) else None,
        "max": int(flat.max()) if len(flat) else None,
    }
    for k, v in expected.items():
        if actual.get(k) != v:
            _fail(what, f"{k} = {actual.get(k)}, expected {v}")


def histogram(what: str, values: np.ndarray, counts: np.ndarray, expected: np.ndarray) -> None:
    """``(value, count)`` pairs against ``np.bincount`` of the values."""
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if len(np.unique(values)) != len(values):
        _fail(what, "a value appears in more than one row")
    if len(values) and (values.min() < 0 or values.max() >= len(expected)):
        _fail(what, f"value out of range [0, {len(expected)})")
    got = np.zeros(len(expected), dtype=np.int64)
    got[values] = counts
    if not np.array_equal(got, expected):
        bad = int(np.flatnonzero(got != expected)[0])
        _fail(what, f"count of {bad} is {got[bad]}, expected {expected[bad]}")


def stripe_files(lake: str) -> list[str]:
    return sorted(os.path.join(lake, n) for n in os.listdir(lake) if n.endswith(".stripe"))


def digests(lake: str) -> dict[str, tuple[int, int]]:
    """stripe file name -> (size, crc32) of its bytes."""
    out = {}
    for p in stripe_files(lake):
        with open(p, "rb") as f:
            blob = f.read()
        out[os.path.basename(p)] = (len(blob), zlib.crc32(blob))
    return out


def lineage(what: str, records: list[dict], lake: str, input_rows: int) -> None:
    """Lineage records against the stripe files on disk and the input row
    count: one record per stripe, rows summing to the input, each
    ``blob_crc32`` the zlib CRC of its stripe and ``encoded_bytes`` its size."""
    files = {os.path.basename(p): p for p in stripe_files(lake)}
    if len(records) != len(files):
        _fail(what, f"{len(records)} lineage records for {len(files)} stripe files")
    rows = 0
    total = 0
    for rec in records:
        name = f"part-{rec['pid']:05d}.stripe"
        if name not in files:
            _fail(what, f"record {rec['pid']} has no stripe file")
        with open(files[name], "rb") as f:
            blob = f.read()
        if zlib.crc32(blob) != rec["blob_crc32"]:
            _fail(what, f"{name}: blob_crc32 {rec['blob_crc32']} != zlib {zlib.crc32(blob)}")
        if len(blob) != rec["encoded_bytes"]:
            _fail(what, f"{name}: encoded_bytes {rec['encoded_bytes']} != size {len(blob)}")
        rows += rec["num_rows"]
        total += len(blob)
    if rows != input_rows:
        _fail(what, f"lineage rows sum to {rows}, input has {input_rows}")
    if total != sum(os.path.getsize(p) for p in files.values()):
        _fail(what, "encoded_bytes do not sum to the stripe files' sizes")


def identical(what: str, actual: dict, expected: dict) -> None:
    """Two ``digests`` maps name the same files with the same bytes."""
    if actual.keys() != expected.keys():
        _fail(what, f"stripe sets differ: {sorted(actual.keys() ^ expected.keys())[:5]}")
    for name, d in expected.items():
        if actual[name] != d:
            _fail(what, f"{name} differs: (size, crc) {actual[name]} != {d}")


def resume(what: str, before: dict, after: dict, deleted: set[str], reference: dict, encoded: int) -> None:
    """``before``/``after`` map each stripe to (size, crc, mtime_ns). Exactly
    the deleted stripes come back, equal to ``reference``; every other
    stripe keeps its bytes and mtime."""
    if encoded != len(deleted):
        _fail(what, f"re-encoded {encoded} partitions, {len(deleted)} were deleted")
    if after.keys() != reference.keys():
        _fail(what, f"lake after resume holds {len(after)} stripes, expected {len(reference)}")
    for name, (size, crc, mtime) in after.items():
        if (size, crc) != reference[name]:
            _fail(what, f"{name} differs from the first encode")
        if name not in deleted and before[name][2] != mtime:
            _fail(what, f"{name} was not deleted but its mtime changed")
