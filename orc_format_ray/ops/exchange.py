"""Hash exchange: move rows between tasks by key hash.

Every keyed operator that needs a whole group on one worker (`hash_join`,
`asof_join`, `hash_aggregate`/`fast_groupby`, `fast_map_groups`) moves its
rows through this module in three steps:

  1. ``tag``, inside the caller's ``map_batches``: hash the key columns, sort
     the batch by ``hash % B`` and emit one Arrow-IPC blob per non-empty
     bucket as a ``(_bucket[, _side], blob)`` table;
  2. ``shuffle``, wave one: one split task per tagged block returns B
     objects, so a bucket's reduce task fetches exactly its bytes;
  3. ``shuffle``, wave two: one task per bucket runs the caller's
     ``reduce_fn(parts, *args)`` over that bucket's tagged rows.

Ray Data's sort-based ``groupby`` pays seconds of fixed overhead per call
(boundary sampling, per-block sort, reduce scheduling); the two-wave task
exchange runs the same joins and aggregates ~10x faster at TPC-H scale. It
holds B object refs per tagged block on the driver, so past
``_RAW_EXCHANGE_MAX_BUCKETS`` buckets or ``_RAW_EXCHANGE_MAX_REFS``
(blocks x buckets) refs ``shuffle`` sends the same materialized tagged
blocks through Ray's groupby on ``_bucket`` + ``map_groups`` instead, which
calls the same ``reduce_fn``. That is the one fallback, and it never re-runs
the tag.

``key_hash`` takes integer, date, timestamp and string keys. Float and nested
keys are not admitted (``hashable``): Ray's groupby merges -0.0 with 0.0 but
Arrow's ``group_by`` keeps them apart, so aggregates over such keys stay on
Ray's native groupby.
"""

from __future__ import annotations

import hashlib
import io
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._rayutil import remote_args

_RAW_EXCHANGE_MAX_BUCKETS = 64
_RAW_EXCHANGE_MAX_REFS = 1 << 16  # driver-side (blocks x buckets) ref bound
# Auto-sizing: file bytes from read metadata expand ~4x when decoded to
# in-memory Arrow; one bucket (a join's BOTH sides plus the pandas merge
# output) should stay well under a worker's heap share.
_JOIN_EXPANSION = 4
_BUCKET_MEM_BUDGET = 128 << 20  # target in-memory bytes per bucket

_GOLDEN = 0x9E3779B97F4A7C15


def _ipc_bytes(tbl: pa.Table) -> bytes:
    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return sink.getvalue()


def _ipc_table(blob) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(blob)).read_all()


def key_hash(col) -> np.ndarray:
    """Deterministic uint64 hash of one key column. Strings hash their
    DICTIONARY (blake2b per unique value, so the per-row cost is a gather);
    integer, date and timestamp keys hash as their int64 value, so an int32
    and an int64 side of a join agree; nulls map to one fixed value (Arrow
    group_by, Ray groupby and pandas merge all keep null keys together)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        d = col.dictionary_encode()
        uh = np.array(
            [int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "little")
             for s in d.dictionary.to_pylist()],
            dtype=np.uint64,
        )
        idx = pc.fill_null(d.indices, -1).to_numpy(zero_copy_only=False).astype(np.int64)
        out = np.full(len(idx), np.uint64(_GOLDEN), dtype=np.uint64)
        m = idx >= 0
        out[m] = uh[idx[m]]
        return out
    if pa.types.is_date32(t):
        col = col.view(pa.int32())  # Arrow has no date32 -> int64 cast
    v = pc.fill_null(col.cast(pa.int64()), np.iinfo(np.int64).min + 7)
    return v.to_numpy(zero_copy_only=False).view(np.uint64)


def combined_hash(tbl: pa.Table, keys: list[str]) -> np.ndarray:
    """Order-sensitive uint64 hash of the key columns."""
    h = np.zeros(len(tbl), dtype=np.uint64)
    for i, k in enumerate(keys):
        # wrap the per-key salt in Python ints (numpy warns on intended
        # uint64 scalar wraparound; array ops wrap silently)
        salt = np.uint64((_GOLDEN * (i + 1)) % (1 << 64))
        h ^= (key_hash(tbl[k]) + salt) * np.uint64(0xC2B2AE3D27D4EB4F)
        h ^= h >> np.uint64(29)
    return h


def hashable(ds, keys: list[str]) -> bool:
    """Whether ``key_hash`` takes every key column of ``ds``: integer, date,
    timestamp or string. A schema the probe cannot read counts as hashable."""
    try:
        schema = ds.schema()
        schema = getattr(schema, "base_schema", schema)
        types = [schema.field(k).type for k in keys]
    except Exception:  # noqa: BLE001 — the schema probe is best-effort
        return True
    return all(
        pa.types.is_integer(t) or pa.types.is_date(t) or pa.types.is_timestamp(t)
        or pa.types.is_string(t) or pa.types.is_large_string(t)
        for t in types
    )


def _estimate_bytes(ds) -> int | None:
    """Lazy byte estimate for a Dataset: walk the logical DAG from the sink
    upward, summing the first `size_bytes` each branch reports (reads know
    their file bytes without executing; transforms report None and we keep
    walking). Never triggers execution; returns None when nothing knows."""
    try:
        total = 0
        found = False
        stack = [ds._plan._logical_plan.dag]
        while stack:
            node = stack.pop()
            meta = node.infer_metadata()
            if meta is not None and meta.size_bytes is not None:
                total += meta.size_bytes
                found = True
                continue
            stack.extend(node.input_dependencies)
        return total if found else None
    except Exception:  # noqa: BLE001 — estimation is best-effort only
        return None


def auto_buckets(*datasets, floor: int, unknown: int) -> int:
    """Bucket count targeting ~``_BUCKET_MEM_BUDGET`` in-memory bytes per
    bucket from the inputs' lazily estimated bytes (read metadata, no
    execution), so the call that moves 60 MB in ``floor`` buckets moves
    1 TB in 4096. ``unknown`` when no input reports a size."""
    ests = [e for e in map(_estimate_bytes, datasets) if e is not None]
    if not ests:
        return unknown
    return min(4096, max(floor, math.ceil(sum(ests) * _JOIN_EXPANSION / _BUCKET_MEM_BUDGET)))


def tag(batch: pa.Table, keys: list[str], num_buckets: int, side: int | None = None) -> pa.Table:
    """Split one batch into per-bucket Arrow-IPC blobs: a ``(_bucket[, _side],
    blob)`` table sorted by bucket, one row per non-empty bucket. The common
    schema lets tagged Datasets with different columns (a join's two sides)
    travel together. Empty and column-less batches (Ray passes a prior
    exchange's empty buckets through) tag to no rows."""
    bko, blobs = [], []
    if len(batch) and all(k in batch.column_names for k in keys):
        b = (combined_hash(batch, keys) % np.uint64(num_buckets)).astype(np.int64)
        order = np.argsort(b, kind="stable")
        bs = b[order]
        starts = np.flatnonzero(np.r_[True, bs[1:] != bs[:-1]])
        ends = np.r_[starts[1:], len(bs)]
        sb = batch.take(pa.array(order, type=pa.int64()))
        bko = bs[starts].tolist()
        blobs = [_ipc_bytes(sb.slice(s, e - s)) for s, e in zip(starts, ends)]
    out = {"_bucket": pa.array(bko, pa.int64())}
    if side is not None:
        out["_side"] = pa.array([side] * len(bko), pa.int8())
    out["blob"] = pa.array(blobs, pa.large_binary())
    return pa.table(out)


def unpack(parts: list[pa.Table], side: int | None = None) -> list[pa.Table]:
    """Decode a bucket's tagged rows into tables, keeping only ``side`` when
    given."""
    tbls = []
    for p in parts:
        if side is not None:
            p = p.filter(pc.equal(p["_side"], side))
        tbls.extend(_ipc_table(s.as_buffer()) for s in p["blob"])
    return tbls


def _split_task(blk: pa.Table, num_buckets: int):
    """Wave one: one tagged block -> num_buckets objects, None for a bucket
    with no rows."""
    outs = [None] * num_buckets
    # Ray passes empty input blocks through map_batches unchanged
    if len(blk) and "_bucket" in blk.column_names:
        bc = blk["_bucket"].to_numpy(zero_copy_only=False)
        for b in np.unique(bc):
            outs[b] = blk.filter(pa.array(bc == b))
    return outs[0] if num_buckets == 1 else tuple(outs)


def _reduce_task(reduce_fn, args, *parts):
    """Wave two: one bucket's parts from every split task."""
    return reduce_fn([p for p in parts if p is not None], *args)


def shuffle(tagged, num_buckets: int, reduce_fn, *args):
    """Run ``reduce_fn(parts, *args) -> pa.Table`` once per bucket and return
    the Dataset of its outputs. ``tagged`` is a Dataset of ``tag`` output, or
    a list of them (a join's two sides); ``parts`` is a list of tagged tables
    holding one bucket's rows (decode with ``unpack``). Raw two-wave task
    exchange within the bucket and ref bounds; past them, one Ray groupby on
    ``_bucket`` + ``map_groups`` over the same materialized blocks. The
    raw path calls ``reduce_fn`` for every bucket, empty ones included."""
    import ray
    import ray.data as rd

    tagged = [t.materialize() for t in (tagged if isinstance(tagged, list) else [tagged])]
    refs = [r for t in tagged for bundle in t.iter_internal_ref_bundles() for r in bundle.block_refs]
    if not refs:
        return rd.from_arrow(pa.table({}))
    if num_buckets <= _RAW_EXCHANGE_MAX_BUCKETS and len(refs) * num_buckets <= _RAW_EXCHANGE_MAX_REFS:
        split = ray.remote(**remote_args())(_split_task).options(num_returns=num_buckets)
        cols = [split.remote(r, num_buckets) for r in refs]
        if num_buckets == 1:
            cols = [[c] for c in cols]
        reduce_t = ray.remote(**remote_args())(_reduce_task)
        return rd.from_arrow_refs(
            [reduce_t.remote(reduce_fn, args, *[c[b] for c in cols]) for b in range(num_buckets)]
        )
    union = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return union.groupby("_bucket").map_groups(
        lambda g: reduce_fn([g], *args), batch_format="pyarrow", **remote_args()
    )
