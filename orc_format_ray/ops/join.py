"""Join operators over Ray Data.

The reference has no joins (it is an encoder); a complete data-processing
engine needs them, and at 100 TB the join strategy IS the scale story:

* `broadcast_join` — the dimension-table pattern: the small side is collected
  once, `ray.put` into the object store, and every batch of the big side
  probes it with vectorized Arrow/numpy kernels. NO shuffle of the big side;
  the small side ships once per node (plasma dedups per-node), not per batch.
  This is the right plan whenever one side fits in memory (TPC-H dimensions,
  vocab tables, survivor sets).
* `hash_join` — both sides large: move both by key hash into B buckets
  over the hash exchange (`ops/exchange.py`), then join bucket-by-bucket.
  Use only when neither side fits; prefer pre-bucketing the stored layout
  so repeated joins reuse the partitioning.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._rayutil import pool_size, remote_args
from .exchange import auto_buckets, combined_hash, shuffle, tag, unpack


class _BroadcastProbe:
    """Actor-pool stage: fetch the broadcast build table once per actor,
    build an int64->row-index map, probe each batch vectorized."""

    def __init__(self, build_ref, key: str, build_key: str, how: str):
        import ray

        build: pa.Table = ray.get(build_ref)
        self.build = build
        self.key = key
        self.build_key = build_key
        self.how = how
        bk = build[build_key].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(bk, kind="stable")
        self.sorted_keys = bk[order]
        self.row_of = order  # position in sorted_keys -> build row index

    def __call__(self, batch: pa.Table) -> pa.Table:
        probe = batch[self.key].combine_chunks().to_numpy(zero_copy_only=False)
        if len(self.sorted_keys) == 0:
            # empty build side: inner/semi -> no rows, anti -> everything,
            # left -> all-null build cols
            if self.how in ("inner", "semi"):
                batch = batch.slice(0, 0)
            elif self.how not in ("left", "anti"):
                raise ValueError(f"how={self.how!r}")
            if self.how in ("semi", "anti"):
                return batch
            out = batch
            for f in self.build.schema:
                if f.name == self.build_key:
                    continue
                name = f.name if f.name not in out.schema.names else f"{f.name}_r"
                out = out.append_column(name, pa.nulls(out.num_rows, f.type))
            return out
        pos = np.searchsorted(self.sorted_keys, probe)
        pos_c = np.minimum(pos, len(self.sorted_keys) - 1)  # build non-empty: early-returned above
        hit = self.sorted_keys[pos_c] == probe
        if self.how == "semi":
            return batch.filter(pa.array(hit))
        if self.how == "anti":
            return batch.filter(pa.array(~hit))
        build_rows = self.row_of[pos_c]
        if self.how == "inner":
            batch = batch.filter(pa.array(hit))
            build_rows = build_rows[hit]
            take = pa.array(build_rows, type=pa.int64())
            picked = self.build.take(take)
        elif self.how == "left":
            idx = np.where(hit, build_rows, 0).astype(np.int64)
            picked = self.build.take(pa.array(idx, type=pa.int64()))
            # null out non-matching rows column-by-column
            mask = pa.array(~hit)
            picked = pa.table(
                {c: pc.if_else(mask, pa.scalar(None, picked[c].type), picked[c]) for c in picked.schema.names}
            )
        else:
            raise ValueError(f"how={self.how!r}")
        out = batch
        for c in picked.schema.names:
            if c == self.build_key:
                continue  # key already present on the probe side
            name = c if c not in out.schema.names else f"{c}_r"
            out = out.append_column(name, picked[c])
        return out


def broadcast_join(big_ds, small: pa.Table, key: str, small_key: str | None = None, how: str = "inner"):
    """Join a (large, streaming) Dataset against a small in-memory table.

    ``how``: inner / left (append build columns), semi / anti (pure
    existence filter — no build columns appended, duplicate build keys
    allowed). For inner/left the small side must have UNIQUE keys
    (dimension-table contract; checked). Returns a Dataset; the big side
    never shuffles.
    """
    import ray

    small_key = small_key or key
    if how in ("semi", "anti"):
        # existence check only: dedupe keys, drop payload columns
        small = pa.table({small_key: pc.unique(small[small_key])})
    else:
        nk = len(pc.unique(small[small_key]))
        if nk != small.num_rows:
            raise ValueError(f"small side has duplicate keys ({small.num_rows - nk} dups) — broadcast_join requires unique build keys")
    ref = ray.put(small.combine_chunks())
    return big_ds.map_batches(
        _BroadcastProbe,
        fn_constructor_kwargs={"build_ref": ref, "key": key, "build_key": small_key, "how": how},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=pool_size(),
        **remote_args(),
    )


class _RangeProbe:
    """Actor-pool stage for broadcast range join: band edges fetched once per
    actor; each batch classifies via one searchsorted against the sorted
    lower edges."""

    def __init__(self, bands_ref, value_col: str, lo_col: str, hi_col: str, how: str):
        import ray

        bands: pa.Table = ray.get(bands_ref)
        lo = bands[lo_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(lo, kind="stable")
        self.lo = lo[order]
        self.hi = bands[hi_col].to_numpy(zero_copy_only=False).astype(np.float64)[order]
        self.bands = bands.take(pa.array(order, type=pa.int64()))
        self.value_col = value_col
        self.lo_col = lo_col
        self.hi_col = hi_col
        self.how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        v = batch[self.value_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.searchsorted(self.lo, v, side="right") - 1
        idx_c = np.maximum(idx, 0)
        hit = (idx >= 0) & (v < self.hi[idx_c])
        if self.how == "inner":
            batch = batch.filter(pa.array(hit))
            idx_c = idx_c[hit]
            picked = self.bands.take(pa.array(idx_c, type=pa.int64()))
        else:
            import pyarrow.compute as pc_

            picked = self.bands.take(pa.array(idx_c, type=pa.int64()))
            mask = pa.array(~hit)
            picked = pa.table({c: pc_.if_else(mask, pa.scalar(None, picked[c].type), picked[c]) for c in picked.schema.names})
        out = batch
        for c in picked.schema.names:
            name = c if c not in out.schema.names else f"{c}_r"
            out = out.append_column(name, picked[c])
        return out


def range_join_broadcast(big_ds, bands: pa.Table, value_col: str, lo_col: str = "lo", hi_col: str = "hi", how: str = "inner"):
    """Range (interval) join of a streaming Dataset against a small table of
    NON-OVERLAPPING [lo, hi) bands: each row matches the band containing its
    value. Bands broadcast once; the probe is one vectorized searchsorted per
    batch — the big side never shuffles. Overlapping bands are rejected
    (multi-match semantics would need a different plan: explode per band).
    """
    import ray

    lo = bands[lo_col].to_numpy(zero_copy_only=False).astype(np.float64)
    hi = bands[hi_col].to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.argsort(lo, kind="stable")
    if np.any(hi[order][:-1] > lo[order][1:]):
        raise ValueError("range_join_broadcast requires non-overlapping bands")
    ref = ray.put(bands.combine_chunks())
    return big_ds.map_batches(
        _RangeProbe,
        fn_constructor_kwargs={"bands_ref": ref, "value_col": value_col, "lo_col": lo_col, "hi_col": hi_col, "how": how},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=pool_size(),
        **remote_args(),
    )


def asof_join(left_ds, right_ds, on: str, by: str, suffix: str = "_r",
              right_value_cols: list[str] | None = None,
              direction: str = "backward", tolerance=None):
    """As-of join in three directions, per ``by`` group:

    - ``backward`` (default): the right row with the LARGEST ``on`` <= the
      left row's (DuckDB ``ASOF LEFT JOIN ... AND l.on >= r.on``).
    - ``forward``: the SMALLEST ``on`` >= the left row's (DuckDB ``ASOF
      LEFT JOIN ... AND l.on <= r.on``).
    - ``nearest``: whichever of the two is closer by |on diff|; exact ties
      take the BACKWARD row (keep the SQL mirror's CASE in sync).

    Left rows with no candidate keep nulls. ``tolerance`` (optional)
    additionally requires the matched row's |on diff| <= tolerance — pass
    a value comparable with the diff of two ``on`` values (an int for
    integer/epoch columns, ``np.timedelta64`` for datetimes); too-far
    matches revert to nulls, mirroring pandas ``merge_asof(tolerance=...)``
    and the SQL ``CASE WHEN dist <= tol`` post-filter.

    Ray Data has no as-of join; this composes one from the hash exchange
    (bucket by the ``by`` key) + per-``by``-value sort + searchsorted. The
    right side should be unique on (by, on) — with duplicates the last row
    in sort order wins, matching no particular engine. Null ``by`` values
    never match. Partitioning assumption: one bucket's rows (both sides) fit
    a worker; pre-bucket by (by, time-range) when a key outgrows that.
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"direction must be backward/forward/nearest, got {direction!r}")
    nb = auto_buckets(left_ds, right_ds, floor=8, unknown=64)
    tagged = [
        ds.map_batches(tag, fn_args=([by], nb, side), batch_format="pyarrow",
                       zero_copy_batch=True, **remote_args())
        for side, ds in enumerate((left_ds, right_ds))
    ]
    return shuffle(tagged, nb, _asof_bucket, on, by, suffix, right_value_cols, direction, tolerance)


def _asof_match(r_on, l_on, direction, tolerance):
    """Index into the sorted ``r_on`` and a matched mask for each ``l_on``."""
    bidx = np.searchsorted(r_on, l_on, side="right") - 1
    fidx = np.searchsorted(r_on, l_on, side="left")
    if direction == "backward":
        idx, matched = bidx, bidx >= 0
        if tolerance is not None:
            dist = l_on - r_on[np.maximum(bidx, 0)]
            matched = matched & (dist <= tolerance)
    elif direction == "forward":
        matched = fidx < len(r_on)
        idx = np.minimum(fidx, len(r_on) - 1)
        if tolerance is not None:
            dist = r_on[idx] - l_on
            matched = matched & (dist <= tolerance)
    else:  # nearest: closer |diff| wins, exact tie -> backward
        has_b = bidx >= 0
        has_f = fidx < len(r_on)
        bc = np.maximum(bidx, 0)
        fc = np.minimum(fidx, len(r_on) - 1)
        # diffs are only meaningful where the side exists; the
        # boolean gates below never read the garbage lanes (and no
        # sentinel keeps datetime64 columns working)
        diff_b = l_on - r_on[bc]
        diff_f = r_on[fc] - l_on
        take_f = (~has_b & has_f) | (has_b & has_f & (diff_f < diff_b))
        idx = np.where(take_f, fc, bc)
        matched = has_b | has_f
        if tolerance is not None:
            dist = np.where(take_f, diff_f, diff_b)
            matched = matched & (dist <= tolerance)
    return idx, matched


def _asof_bucket(parts, on, by, suffix, right_value_cols, direction, tolerance) -> pa.Table:
    """Reduce step of `asof_join`: a bucket holds several ``by`` values, so
    the searchsorted match runs once per value."""
    import pandas as pd

    lg = unpack(parts, 0)
    if not lg:
        return pa.table({})
    ldf = pa.concat_tables(lg).to_pandas()
    rg = unpack(parts, 1)
    if rg:
        rdf = pa.concat_tables(rg).to_pandas().sort_values([by, on], kind="stable").reset_index(drop=True)
        r_rows = rdf.groupby(by, sort=False).indices  # by value -> contiguous rows
        r_on_all, l_on_all = rdf[on].to_numpy(), ldf[on].to_numpy()
        idx = np.zeros(len(ldf), dtype=np.int64)
        matched = np.zeros(len(ldf), dtype=bool)
        for v, li in ldf.groupby(by, sort=False).indices.items():
            ri = r_rows.get(v)
            if ri is None:
                continue
            i, m = _asof_match(r_on_all[ri[0]:ri[-1] + 1], l_on_all[li], direction, tolerance)
            idx[li] = ri[0] + np.maximum(i, 0)
            matched[li] = m
        for c in rdf.columns:
            if c == by:
                continue
            name = c if c not in ldf.columns else f"{c}{suffix}"
            ldf[name] = pd.Series(rdf[c].to_numpy()[idx]).where(pd.Series(matched)).to_numpy()
    elif right_value_cols:
        # keep a stable output schema when a bucket has no right rows
        for c in right_value_cols:
            name = c if c not in ldf.columns else f"{c}{suffix}"
            ldf[name] = pd.Series([pd.NA] * len(ldf), dtype="object")
    return pa.Table.from_pandas(ldf, preserve_index=False)


_SUBSPLIT_BUDGET = 256 << 20    # in-bucket payload above this sub-splits


def _join_bucket(parts, key, how, left_cols, right_cols, out_order, subsplit_budget) -> pa.Table:
    """Reduce step of `hash_join`: join one bucket's two sides."""
    import pandas as pd

    lg, rg = unpack(parts, 0), unpack(parts, 1)
    if (not lg and (how != "full" or not rg)) or (how == "inner" and not rg):
        return pa.table({})
    if not lg:  # full, right-only bucket: right rows with null left cols
        rdf = pa.concat_tables(rg).to_pandas()
        out = pd.DataFrame(index=rdf.index)
        for c in left_cols:
            out[c] = rdf[key] if c == key else np.nan
        for c in right_cols:
            name = c if c not in left_cols else f"{c}_r"
            out[name] = rdf[c]
        return pa.Table.from_pandas(out[out_order], preserve_index=False)
    lt = pa.concat_tables(lg)
    ldf = lt.to_pandas()
    if not rg:  # left or full: left rows with null right cols
        for c in right_cols:
            name = c if c not in ldf.columns else f"{c}_r"
            ldf[name] = np.nan
        return pa.Table.from_pandas(ldf[out_order] if how == "full" else ldf, preserve_index=False)
    rt = pa.concat_tables(rg)
    rdf = rt.to_pandas()
    how_pd = "outer" if how == "full" else how
    total = lt.nbytes + rt.nbytes
    if total > subsplit_budget:
        # Skew / estimate-miss guard: partition the bucket by the key hash's
        # HIGH bits (the bucket came from its low bits) and merge per part —
        # parts partition the key space, so inner/left/outer merges
        # concatenate exactly; peak memory is one part's merge.
        n_parts = np.uint64(math.ceil(total / subsplit_budget) + 1)
        lk = (combined_hash(lt, [key]) >> np.uint64(32)) % n_parts
        rk = (combined_hash(rt, [key]) >> np.uint64(32)) % n_parts
        outs = [
            ldf.loc[lk == p].merge(rdf.loc[rk == p], on=key, how=how_pd, suffixes=("", "_r"))
            for p in range(int(n_parts))
        ]
        out = pd.concat(outs, ignore_index=True)
    else:
        out = ldf.merge(rdf, on=key, how=how_pd, suffixes=("", "_r"))
    return pa.Table.from_pandas(out[out_order] if how == "full" else out, preserve_index=False)


def hash_join(left_ds, right_ds, key: str, num_buckets: int | None = None, how: str = "inner",
              subsplit_budget: int | None = None):
    """Large-large join over the hash exchange (`ops/exchange.py`): each
    batch splits into per-key-hash-bucket Arrow-IPC payload rows (a common
    (_bucket, _side, blob) schema, so the two sides travel together
    regardless of their columns), and each bucket joins locally. Right-side
    column collisions get an `_r` suffix; the key joins once. Integer,
    date, timestamp and string keys hash alike on both sides.

    ``num_buckets=None`` (default) derives the bucket count from the two
    sides' lazily-estimated bytes (read metadata — no execution), targeting
    ~``_BUCKET_MEM_BUDGET`` in-memory bytes per bucket, so the same call
    that joins 60 MB with 8 buckets joins 1 TB with 4096. A bucket whose
    payload still exceeds ``_SUBSPLIT_BUDGET`` (skew, estimate miss) is
    sub-split by the key hash's high bits inside the worker, bounding the
    pandas-merge peak to one sub-part — the in-worker equivalent of routing
    through the disk-backed `bucketed_join`. For repeated joins on the same
    key, pre-bucket the stored layout (`write_bucketed`) instead.

    ``how``: ``"inner"``, ``"left"`` or ``"full"``. A left join keeps
    unmatched left rows with nulls in the right columns (NaN through pandas
    — aggregate with COALESCE downstream if you need hash-stable ints;
    nullable int64 round-trips as float64+NaN on both compare sides). The
    right schema is read once driver-side so buckets with no right rows
    still emit a stable column set.

    Each joined bucket becomes an Arrow table INSIDE the worker: Ray's
    groupby/aggregate over pandas blocks is ~20x slower than over Arrow
    blocks, so every join feeding a groupby wants Arrow out. NaN in float
    columns becomes Arrow null (round-trips to NaN in to_pandas).
    """
    if how not in ("inner", "left", "full"):
        raise ValueError(f"how must be 'inner', 'left' or 'full', got {how!r}")
    if num_buckets is None:
        num_buckets = auto_buckets(left_ds, right_ds, floor=8, unknown=64)
    if subsplit_budget is None:
        subsplit_budget = _SUBSPLIT_BUDGET
    right_cols: list[str] | None = None
    left_cols: list[str] | None = None
    out_order: list[str] | None = None
    if how in ("left", "full"):
        right_cols = [n for n in right_ds.schema().names if n != key]
    if how == "full":
        left_cols = list(left_ds.schema().names)
        out_order = left_cols + [c if c not in left_cols else f"{c}_r" for c in right_cols]
    tagged = [
        ds.map_batches(tag, fn_args=([key], num_buckets, side), batch_format="pyarrow",
                       zero_copy_batch=True, **remote_args())
        for side, ds in enumerate((left_ds, right_ds))
    ]
    return shuffle(tagged, num_buckets, _join_bucket, key, how, left_cols, right_cols,
                   out_order, subsplit_budget)


def skew_join(left_ds, right_ds, key: str, num_buckets: int | None = None,
              hot_threshold: int = 100_000, max_hot_keys: int = 1 << 16,
              max_broadcast_rows: int = 1 << 22):
    """Skew-hardened large-large inner join. A plain bucketed hash join
    sends a hot key's EVERY row to one worker — one viral key (a celebrity
    user, a default product id) stalls the whole stage at 100 TB. This
    variant routes around the skew:

    1. a metadata-only key-frequency pass over the LEFT (per-batch
       (key, count) cells, one cell groupby) finds keys with
       >= ``hot_threshold`` left rows (at most ``max_hot_keys``, guarded);
    2. the RIGHT side's hot-key rows broadcast once (``ray.put``, guarded
       by ``max_broadcast_rows``) and the left's hot rows join against
       them INSIDE ``map_batches`` — the hot rows never shuffle at all;
    3. everything else takes the normal bucketed hash join.

    Output schema/order matches ``hash_join`` (right collisions suffixed
    ``_r``); row multiset is identical to ``hash_join`` by construction.
    Works when hot keys are hot on the LEFT and thin on the RIGHT (the
    fact-to-dimension shape); a key hot on BOTH sides is a cross-product
    nobody can shuffle around — the broadcast guard fails loudly there.
    """
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    def key_cells(batch: pa.Table) -> pa.Table:
        t = pa.table({"k": batch[key].combine_chunks().cast(pa.int64())})
        g = t.group_by("k").aggregate([([], "count_all")])
        return g.rename_columns(["k", "c"])

    counts = (
        left_ds.map_batches(key_cells, batch_format="pyarrow", zero_copy_batch=True, **remote_args())
        .groupby("k")
        .aggregate(Sum("c", alias_name="c"))
    )
    hot_df = counts.filter(expr=f"c >= {int(hot_threshold)}").to_pandas()
    if len(hot_df) > max_hot_keys:
        raise ValueError(
            f"{len(hot_df)} hot keys exceed max_hot_keys={max_hot_keys}; raise hot_threshold"
        )
    if hot_df.empty:
        return hash_join(left_ds, right_ds, key, num_buckets=num_buckets)
    hot_keys = np.sort(hot_df["k"].to_numpy(dtype=np.int64))
    hot_ref = ray.put(hot_keys)

    def is_hot(batch: pa.Table) -> np.ndarray:
        k = batch[key].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
        hk = ray.get(hot_ref)
        idx = np.searchsorted(hk, k)
        idx[idx == len(hk)] = 0
        return hk[idx] == k if len(hk) else np.zeros(len(k), bool)

    def take_side(hot: bool):
        def fn(batch: pa.Table) -> pa.Table:
            m = is_hot(batch)
            return batch.filter(pa.array(m if hot else ~m))

        return fn

    right_hot = right_ds.map_batches(
        take_side(True), batch_format="pyarrow", zero_copy_batch=True, **remote_args()
    ).materialize()
    n_right_hot = right_hot.count()
    if n_right_hot > max_broadcast_rows:
        raise ValueError(
            f"{n_right_hot} hot right rows exceed max_broadcast_rows={max_broadcast_rows}; "
            "the key is hot on both sides — pre-aggregate one side instead"
        )
    right_hot_df = right_hot.to_pandas() if n_right_hot else pd.DataFrame(columns=[key])
    rdf_ref = ray.put(right_hot_df)

    def hot_probe(batch: pa.Table) -> pa.Table:
        # arrow out: the cold branch (hash_join) emits arrow blocks and
        # union() refuses mixed pandas/arrow lineages
        m = is_hot(batch)
        ldf = batch.filter(pa.array(m)).to_pandas()
        rdf = ray.get(rdf_ref)
        if ldf.empty or rdf.empty:
            return pa.table({})
        ldf[key] = ldf[key].astype("int64")
        return pa.Table.from_pandas(
            ldf.merge(rdf, on=key, how="inner", suffixes=("", "_r")), preserve_index=False
        )

    hot_out = left_ds.map_batches(hot_probe, batch_format="pyarrow", zero_copy_batch=True, **remote_args())
    cold_out = hash_join(
        left_ds.map_batches(take_side(False), batch_format="pyarrow", zero_copy_batch=True, **remote_args()),
        right_ds.map_batches(take_side(False), batch_format="pyarrow", zero_copy_batch=True, **remote_args()),
        key,
        num_buckets=num_buckets,
    )
    return hot_out.union(cold_out)


def semi_join_streaming(left_ds, right_ds, key: str,
                        how: str = "semi",
                        max_broadcast_keys: int = 1 << 26,
                        shard_dir: str | None = None):
    """Large-large SEMI / ANTI join that NEVER shuffles the big (left)
    side — the decisive scale property: at 100 TB the left payload streams
    through stateless filters while only the right side's 8 B/distinct-key
    column moves at all.

    Plan: distinct right keys via per-batch unique + one metadata groupby
    (full right rows never shuffle either). Up to ``max_broadcast_keys``
    distinct keys the sorted key array is broadcast once (`ray.put`, a
    zero-copy plasma view per task) and probed with searchsorted. Past
    that, the key set never touches the driver: an ids-only distributed
    sort range-partitions it into disjoint parquet shards and
    `_ShardedSurvivorFilter` actors stream left batches against only the
    shards each batch's key range overlaps (LRU-bounded memory) — the same
    machinery as `exact_dedup`'s sharded path, with `invert=True` giving
    ANTI semantics.

    Keys must be integer (ids). For string keys, pre-hash both sides —
    and accept that a 64-bit hash collision can misclassify a row — or use
    the bucketed `hash_join`.
    """
    import functools

    import ray
    from ray.data.aggregate import Count

    if how not in ("semi", "anti"):
        raise ValueError(f"how={how!r} (want 'semi' or 'anti')")
    import re

    s = right_ds.schema()
    kt = dict(zip(s.names, s.types))[key]
    # the schema type may be a pyarrow DataType, a numpy dtype, or a pandas
    # extension dtype (nullable Int64) depending on the block format
    int_ok = (
        kt is None  # unknown (pandas extension dtype) — the probe itself will fail loudly
        or (isinstance(kt, pa.DataType) and pa.types.is_integer(kt))
        or bool(re.fullmatch(r"u?int\d+", str(kt), re.IGNORECASE))
    )
    if not int_ok:
        raise ValueError(
            f"semi_join_streaming needs an integer key, got {kt} — pre-hash "
            "string keys or use hash_join"
        )

    def key_partial(batch: pa.Table) -> pa.Table:
        k = batch[key].combine_chunks()
        if k.null_count:
            k = k.drop_null()  # SQL semi/anti: NULL right keys never match
        return pa.table({key: k.cast(pa.int64()).unique()})

    from .fastagg import hash_aggregate

    keys = hash_aggregate(
        right_ds.map_batches(key_partial, batch_format="pyarrow", zero_copy_batch=True, **remote_args()),
        key, [(key, "count_all", "_n")],
    ).materialize()  # count() + consume below must not re-run the right scan
    n_keys = keys.count()

    if n_keys <= max_broadcast_keys:
        parts = list(keys.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        arr = (pa.concat_tables(parts)[key].to_numpy(zero_copy_only=False).astype(np.int64)
               if parts else np.zeros(0, np.int64))
        ref = ray.put(np.sort(arr))

        def probe(batch: pa.Table, keys_ref, invert: bool) -> pa.Table:
            ks = ray.get(keys_ref)  # zero-copy plasma view
            v = batch[key].to_numpy(zero_copy_only=False)
            if len(ks):
                pos = np.minimum(np.searchsorted(ks, v), len(ks) - 1)
                member = ks[pos] == v
            else:
                member = np.zeros(len(v), dtype=bool)
            return batch.filter(pa.array(~member if invert else member))

        return left_ds.map_batches(
            functools.partial(probe, keys_ref=ref, invert=(how == "anti")),
            batch_format="pyarrow", zero_copy_batch=True, **remote_args(),
        )

    # sharded path: keys-only sort -> disjoint-range shard files; the driver
    # holds one (path, lo, hi) row per shard. Multi-node sessions need
    # shard_dir on shared storage (same rule as exact_dedup).
    import os

    from .dedup import _ShardedSurvivorFilter, _default_shard_dir

    if shard_dir is None:
        shard_dir = _default_shard_dir()
    os.makedirs(shard_dir, exist_ok=True)

    def write_shard(batch: pa.Table) -> pa.Table:
        import hashlib

        import pyarrow.parquet as pq

        ids = np.sort(batch[key].to_numpy(zero_copy_only=False))
        if len(ids) == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())})
        digest = hashlib.sha256(ids.tobytes()).hexdigest()[:16]
        path = os.path.join(shard_dir, f"joinkeys-{digest}.parquet")
        tmp = path + f".tmp.{os.getpid()}"
        pq.write_table(pa.table({key: pa.array(ids)}), tmp)
        os.replace(tmp, path)
        return pa.table({"path": [path], "lo": [int(ids[0])], "hi": [int(ids[-1])]})

    manifest = (
        keys.select_columns([key])
        .sort(key)
        .map_batches(write_shard, batch_format="pyarrow", batch_size=1 << 22, **remote_args())
        .take_all()
    )
    return left_ds.map_batches(
        _ShardedSurvivorFilter,
        fn_constructor_kwargs={"manifest": manifest, "key": key, "invert": how == "anti"},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=pool_size(),
        **remote_args(),
    )


def interval_join(left_ds, right_ds, key: str, lo_col: str = "lo", hi_col: str = "hi",
                  id_col: str = "id", grid: int = 3_600_000_000,
                  max_span_cells: int = 1 << 10, max_cell_pairs: int = 1 << 24,
                  num_buckets: int = 64):
    """Keyed interval OVERLAP join: pairs (l, r) with the same ``key`` whose
    [lo, hi] intervals intersect (``l.lo <= r.hi AND r.lo <= l.hi`` — the
    SQL predicate verbatim). Bounds and ids are exact int64 (e.g. epoch
    micros), so output overlap lengths are bitwise-SQL-exact.

    Scale plan — never all-pairs: each interval replicates to the ``grid``
    cells it spans (loudly guarded at ``max_span_cells``; pick grid ~ the
    typical interval length), one (key, cell) groupby co-locates candidate
    sets, and each cell emits a pair ONLY when the overlap's canonical cell
    (the one containing max(l.lo, r.lo)) is itself — every pair appears
    exactly once with no global dedup pass. Per-cell matching is a
    broadcasted numpy mask, guarded at ``max_cell_pairs`` candidate
    products (skewed cells want a smaller grid).

    Returns a Dataset of ``(key, l_id, r_id, overlap)`` where overlap =
    min(hi) - max(lo) (>= 0; touching intervals count).
    """
    import pandas as pd

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            lo = batch[lo_col].to_numpy(zero_copy_only=False).astype(np.int64)
            hi = batch[hi_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if (hi < lo).any():
                raise ValueError("interval_join: hi < lo")
            c_lo = np.floor_divide(lo, grid)
            c_hi = np.floor_divide(hi, grid)
            span = c_hi - c_lo + 1
            if span.max(initial=0) > max_span_cells:
                raise ValueError(
                    f"interval_join: an interval spans {span.max()} grid cells "
                    f"(> {max_span_cells}) — raise `grid` or split the interval"
                )
            total = int(span.sum())
            rep = np.repeat(np.arange(len(lo), dtype=np.int64), span)
            cell = np.repeat(c_lo, span) + (
                np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(np.r_[0, span[:-1]]), span)
            )
            k = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({
                "_bucket": pa.array(((k[rep] * 2654435761 + cell) % (1 << 31)) % num_buckets),
                "k": pa.array(k[rep]), "cell": pa.array(cell),
                "side": pa.array(np.full(total, side, np.int8)),
                "lo": pa.array(lo[rep]), "hi": pa.array(hi[rep]),
                "id": pa.array(batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)[rep]),
            })

        return fn

    lt = left_ds.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True, **remote_args())
    rt = right_ds.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True, **remote_args())

    def match(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({key: pd.Series(dtype=np.int64), "l_id": pd.Series(dtype=np.int64),
                              "r_id": pd.Series(dtype=np.int64), "overlap": pd.Series(dtype=np.int64)})
        out = []
        for (kv, cell), sub in g.groupby(["k", "cell"], sort=False):
            l = sub[sub["side"] == 0]
            r = sub[sub["side"] == 1]
            if not len(l) or not len(r):
                continue
            if len(l) * len(r) > max_cell_pairs:
                raise ValueError(
                    f"interval_join: cell (key={kv}, cell={cell}) has "
                    f"{len(l)}x{len(r)} candidates (> {max_cell_pairs}) — shrink `grid`"
                )
            llo = l["lo"].to_numpy()[:, None]; lhi = l["hi"].to_numpy()[:, None]
            rlo = r["lo"].to_numpy()[None, :]; rhi = r["hi"].to_numpy()[None, :]
            start = np.maximum(llo, rlo)
            hit = (llo <= rhi) & (rlo <= lhi) & (np.floor_divide(start, grid) == cell)
            li, ri = np.nonzero(hit)
            if len(li):
                out.append(pd.DataFrame({
                    key: np.full(len(li), kv, np.int64),
                    "l_id": l["id"].to_numpy()[li],
                    "r_id": r["id"].to_numpy()[ri],
                    "overlap": (np.minimum(lhi, rhi) - start)[hit],
                }))
        return pd.concat(out, ignore_index=True) if out else empty

    return (
        lt.union(rt)
        .groupby("_bucket")
        .map_groups(match, batch_format="pandas", **remote_args())
    )


def write_bucketed(ds, path: str, key: str, num_buckets: int = 64):
    """Materialize a Dataset as a KEY-BUCKETED parquet layout:
    ``bucket-{b:05d}/part-*.parquet`` with bucket = Knuth-hash(key) mod B —
    pay the co-location shuffle ONCE at layout time, then every later
    `bucketed_join` / semi-filter on the same key runs with ZERO shuffle
    (the promise in this module's docstring). Integer keys only; nulls are
    rejected (they have no bucket). Writes an atomic `_buckets.json`
    manifest (num_buckets, key) so readers can't probe with a mismatched
    bucket count. Returns the manifest dict.
    """
    import json
    import os

    from ..ops.sample import knuth_hash

    def tag(batch: pa.Table) -> pa.Table:
        k = batch[key].combine_chunks()
        if k.null_count:
            raise ValueError(f"write_bucketed: {key!r} contains nulls")
        b = (knuth_hash(k.to_numpy(zero_copy_only=False)) % np.uint64(num_buckets)).astype(np.int64)
        return batch.append_column("__bucket__", pa.array(b))

    os.makedirs(path, exist_ok=True)

    def write_bucket(g) -> "pa.Table":
        import pyarrow.parquet as pq

        b = int(g["__bucket__"].iloc[0])
        tbl = pa.Table.from_pandas(g.drop(columns="__bucket__"), preserve_index=False)
        d = os.path.join(path, f"bucket-{b:05d}")
        os.makedirs(d, exist_ok=True)
        f = os.path.join(d, f"part-{os.getpid()}-{b:05d}.parquet")
        tmp = f + ".tmp"
        pq.write_table(tbl, tmp)
        os.replace(tmp, f)
        import pandas as pd

        return pd.DataFrame({"bucket": [b], "rows": [len(g)]})

    written = (
        ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True, **remote_args())
        .groupby("__bucket__")
        .map_groups(write_bucket, batch_format="pandas", **remote_args())
        .to_pandas()
    )
    manifest = {"num_buckets": num_buckets, "key": key,
                "rows": int(written["rows"].sum()) if len(written) else 0}
    tmp = os.path.join(path, "_buckets.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(path, "_buckets.json"))
    return manifest


def bucketed_join(path_a: str, path_b: str, key: str, how: str = "inner",
                  suffix: str = "_r"):
    """Join two `write_bucketed` layouts sharing a key WITHOUT ANY SHUFFLE:
    one task per bucket reads both sides' bucket directories (co-located by
    construction) and joins locally — the repeated-join pattern where the
    layout amortizes the exchange. Bucket counts and keys must match
    (checked against the manifests). Returns a Dataset of joined rows.
    """
    import json
    import os

    import ray.data

    man_a = json.load(open(os.path.join(path_a, "_buckets.json")))
    man_b = json.load(open(os.path.join(path_b, "_buckets.json")))
    if man_a["num_buckets"] != man_b["num_buckets"]:
        raise ValueError(
            f"bucket count mismatch: {man_a['num_buckets']} vs {man_b['num_buckets']} — "
            "re-bucket one side; probing across mismatched layouts joins garbage"
        )
    if man_a["key"] != key or man_b["key"] != key:
        raise ValueError(f"layouts were bucketed on {man_a['key']!r}/{man_b['key']!r}, not {key!r}")
    if how not in ("inner", "left"):
        raise ValueError(f"how={how!r}")
    B = man_a["num_buckets"]

    def join_bucket(batch: pa.Table):
        import glob as _glob

        import pyarrow.parquet as pq

        for b in batch["b"].to_pylist():
            fa = sorted(_glob.glob(os.path.join(path_a, f"bucket-{b:05d}", "*.parquet")))
            fb = sorted(_glob.glob(os.path.join(path_b, f"bucket-{b:05d}", "*.parquet")))
            if not fa or (how == "inner" and not fb):
                continue
            da = pa.concat_tables([pq.read_table(f) for f in fa]).to_pandas()
            if fb:
                db = pa.concat_tables([pq.read_table(f) for f in fb]).to_pandas()
                res = da.merge(db, on=key, how=how, suffixes=("", suffix))
            else:  # left join, right bucket absent
                res = da
            if len(res):
                yield pa.Table.from_pandas(res, preserve_index=False)

    buckets = ray.data.from_arrow(pa.table({"b": pa.array(range(B), pa.int64())}))
    return buckets.repartition(B).map_batches(
        join_bucket, batch_format="pyarrow", **remote_args()
    )


def referential_audit(child_ds, parent_ds, fk: str, pk: str,
                      max_broadcast_keys: int = 1 << 26):
    """Foreign-key integrity audit: how many child rows / distinct keys
    point at a parent key that does not exist — the join-planning sanity
    gate before any FK join ships data. Returns a one-row pandas DataFrame
    ``(n_child_rows, n_child_keys, n_orphan_keys, n_orphan_rows)``; all
    exact ints (SQL: the classic anti-join counts).

    Plan: ONE metadata groupby collapses the child to (fk, cnt) cells and
    one to the parent's distinct keys; the parent key VECTOR broadcasts
    once (``ray.put``, guarded by ``max_broadcast_keys`` — beyond that use
    `semi_join_streaming(invert=True)`'s sharded key files) and the child
    cells probe it with np.isin. Neither table's rows ever shuffle."""
    import numpy as np
    import pandas as pd
    import ray
    from ray.data.aggregate import Count

    child_cells = child_ds.groupby(fk).aggregate(Count(alias_name="__ra_cnt"))
    parent_keys_ds = parent_ds.groupby(pk).aggregate(Count(alias_name="__ra_p")).select_columns([pk])
    n_parent = parent_keys_ds.count()
    if n_parent > max_broadcast_keys:
        raise ValueError(
            f"referential_audit: {n_parent} parent keys exceed max_broadcast_keys — "
            "use semi_join_streaming(invert=True) with sharded key files instead"
        )
    pk_tbl = pa.concat_tables(list(parent_keys_ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow")))
    pkeys = np.sort(pk_tbl[pk].to_numpy(zero_copy_only=False).astype(np.int64)) if pk_tbl.num_rows \
        else np.zeros(0, np.int64)
    pk_ref = ray.put(pkeys)

    def probe(batch: pa.Table) -> pa.Table:
        keys = batch[fk].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = batch["__ra_cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        known = ray.get(pk_ref)
        orphan = ~np.isin(keys, known)
        return pa.table({
            "ck": pa.array([len(keys)], pa.int64()),
            "cr": pa.array([int(cnt.sum())], pa.int64()),
            "ok": pa.array([int(orphan.sum())], pa.int64()),
            "orr": pa.array([int(cnt[orphan].sum())], pa.int64()),
        })

    parts = child_cells.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True, **remote_args()).take_all()
    return pd.DataFrame({
        "n_child_rows": [sum(int(r["cr"]) for r in parts)],
        "n_child_keys": [sum(int(r["ck"]) for r in parts)],
        "n_orphan_keys": [sum(int(r["ok"]) for r in parts)],
        "n_orphan_rows": [sum(int(r["orr"]) for r in parts)],
    })


def _bloom_positions_vec(keys: np.ndarray, num_hashes: int, num_bits: int) -> np.ndarray:
    """Vectorized double-hashing bloom positions for int64 keys: the wang
    addLong hash split into (h1, h2), probe i = (h1 + i*h2) mod num_bits.
    Returns shape (num_hashes, len(keys)). num_bits must be a power of 2."""
    from ..bloom import wang_long_hashes

    h = wang_long_hashes(keys.astype(np.int64))
    h1 = (h & np.uint64(0xFFFFFFFF)).astype(np.uint64)
    h2 = (h >> np.uint64(32)).astype(np.uint64)
    mask = np.uint64(num_bits - 1)
    out = np.empty((num_hashes, len(keys)), dtype=np.int64)
    for i in range(1, num_hashes + 1):
        out[i - 1] = ((h1 + np.uint64(i) * h2) & mask).astype(np.int64)
    return out


def bloom_semi_join(left_ds, right_ds, key: str, how: str = "semi",
                    num_bits: int = 1 << 23, num_hashes: int = 3,
                    max_broadcast_keys: int = 1 << 26,
                    shard_dir: str | None = None):
    """SEMI / ANTI join with a broadcast BLOOM prefilter in front of the
    exact probe — same exact output as ``semi_join_streaming`` (the bloom
    only prunes, never decides a match), but the big left side is first
    filtered by ``num_bits/8`` bytes of bloom instead of the full distinct
    right-key array, the decisive win when the right key set is large and
    the match rate is low.

    Build: each right batch emits its keys' SET BIT POSITIONS (unique'd —
    at most num_hashes x batch keys int64s, never the dense bitmap); the
    driver ORs them into one bitset and broadcasts it once (`ray.put`).

    * ``semi``: bloom-positive left rows go through the exact
      ``semi_join_streaming`` probe; bloom-negatives are DEFINITELY
      unmatched and drop immediately.
    * ``anti``: bloom-negatives are definitely unmatched — kept with no
      exact work at all; only bloom-positives pay the exact anti probe,
      and the two task-pool branches union (safe: both stateless; if the
      key set exceeds ``max_broadcast_keys`` the exact branch's sharded
      ACTOR path engages — materialize before feeding a groupby, per the
      actor-pool deadlock rule).

    Left keys must be non-null integers (the exact-probe contract plus a
    bloom-hash rule for NULL would be arbitrary); right NULL keys are
    dropped as in SQL semi/anti.
    """
    import ray

    if how not in ("semi", "anti"):
        raise ValueError(f"how={how!r} (want 'semi' or 'anti')")
    if num_bits < 8 or (num_bits & (num_bits - 1)):
        raise ValueError(f"num_bits must be a power of two >= 8, got {num_bits}")
    if not (1 <= num_hashes <= 16):
        raise ValueError(f"num_hashes must be in [1, 16], got {num_hashes}")

    def bit_positions(batch: pa.Table) -> pa.Table:
        k = batch[key].combine_chunks()
        if k.null_count:
            k = k.drop_null()
        u = k.cast(pa.int64()).unique().to_numpy(zero_copy_only=False)
        if not len(u):
            return pa.table({"p": pa.array([], pa.int64())})
        pos = np.unique(_bloom_positions_vec(u, num_hashes, num_bits).ravel())
        return pa.table({"p": pa.array(pos, pa.int64())})

    pos_df = (
        right_ds.map_batches(bit_positions, batch_format="pyarrow", zero_copy_batch=True, **remote_args())
        .to_pandas()
    )
    bits = np.zeros(num_bits >> 3, dtype=np.uint8)
    if len(pos_df):
        p = pos_df["p"].to_numpy(dtype=np.int64)
        np.bitwise_or.at(bits, p >> 3, (np.uint8(1) << (p & 7).astype(np.uint8)))
    bits_ref = ray.put(bits)

    def probe(batch: pa.Table, keep_positive: bool) -> pa.Table:
        if not batch.num_rows:
            return batch
        kcol = batch[key]
        if kcol.null_count:
            raise ValueError("bloom_semi_join: left keys must be non-null")
        k = kcol.cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = ray.get(bits_ref)
        pos = _bloom_positions_vec(k, num_hashes, num_bits)
        hit = np.ones(len(k), dtype=bool)
        for i in range(num_hashes):
            hit &= (b[pos[i] >> 3] & (np.uint8(1) << (pos[i] & 7).astype(np.uint8))) != 0
        return batch.filter(pa.array(hit if keep_positive else ~hit))

    positives = left_ds.map_batches(
        lambda t: probe(t, True), batch_format="pyarrow", zero_copy_batch=True, **remote_args()
    )
    exact = semi_join_streaming(positives, right_ds, key, how=how,
                                max_broadcast_keys=max_broadcast_keys, shard_dir=shard_dir)
    if how == "semi":
        return exact
    negatives = left_ds.map_batches(
        lambda t: probe(t, False), batch_format="pyarrow", zero_copy_batch=True, **remote_args()
    )
    return negatives.union(exact)
