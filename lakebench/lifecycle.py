"""The lake lifecycle the benchmark drives: its inputs, the operations of
each phase, and the check of every operation's output.

Phases and their operations:

* ``encode`` — ``encode`` (a fresh lake) and ``resume`` (delete a seeded
  quarter of its partitions, resume).
* ``scan`` — ``decode``, ``projected_scan``, ``filtered_scan`` and
  ``pushdown_agg`` over the lake encoded during set-up.
* ``exchange`` — ``join``, ``aggregate``, ``string_key_aggregate``,
  ``vocab_histogram`` and ``date_key_aggregate`` over TPC-H-shaped tables
  and a small tokens lake.

``Lifecycle.run(op)`` times one operation until its result is complete in
Ray's object store, then checks it. An exception from the operation
propagates; anything wrong with its output raises ``CheckError``.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import shutil
import statistics
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import checks
import gen

PHASES = {
    "encode": ("encode", "resume"),
    "scan": ("decode", "projected_scan", "filtered_scan", "pushdown_agg"),
    "exchange": ("join", "aggregate", "string_key_aggregate", "vocab_histogram", "date_key_aggregate"),
}
# operations that run only in their own phase's closed loop: the date32
# aggregate fails on every call, so it counts in whole rounds only and the
# failed share stays a property of the loop
LOOP_ONLY = ("date_key_aggregate",)
# phases whose operations give no end-to-end figure: under Ray's default
# idle-worker killing their times swing several-fold from call to call, so
# they are per-layer figures only, and a plain run of another workload
# skips them
UNBOUNDED = ("exchange",)

CORPUS_DOCS = 2500  # ~4.35M tokens
CORPUS_SHARDS = 8
PARTITIONS = 16  # byte budget = corpus token bytes / PARTITIONS
SMALL_DOCS = 30  # ~48k tokens and no outlier: the value-count lake
SMALL_SHARDS = 4  # length buckets (files) of the value-count corpus
SMALL_PARTITIONS = 8  # its byte budget = its token bytes / SMALL_PARTITIONS
N_ORDERS = 50_000  # ~200k lineitem rows
FILTER_SHARD = 4  # the n_tok predicate keeps length buckets 0..FILTER_SHARD
PROJECTED = ["doc_id", "n_tok", "source"]

JOIN_LEFT = ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"]
JOIN_RIGHT = ["o_orderkey", "o_custkey", "o_totalprice"]
AGGS = {
    "aggregate": ("l_orderkey", [("l_quantity", "sum", "sum_qty"), ("l_extendedprice", "sum", "sum_price"), ("l_quantity", "count", "n")]),
    "string_key_aggregate": ("l_comment", [("l_quantity", "count", "n"), ("l_quantity", "sum", "sum_qty")]),
    "date_key_aggregate": ("l_shipdate", [("l_quantity", "sum", "sum_qty")]),
}
_SQL_FN = {"sum": "SUM({c})::BIGINT", "count": "COUNT({c})"}


def _wait_all(mat):
    """Block until every output block of a materialized Dataset exists."""
    import ray

    refs = mat.to_arrow_refs()
    if refs:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
    return mat


def _fetch(refs) -> pa.Table:
    """The output blocks as one table; column-less empty blocks carry no rows."""
    import ray

    blocks = [b for b in ray.get(refs) if b.num_columns or b.num_rows]
    if not blocks:
        return pa.table({})
    return pa.concat_tables(blocks)


def _stripe_snapshot(lake: str) -> dict:
    d = checks.digests(lake)
    return {n: (s, c, os.stat(os.path.join(lake, n)).st_mtime_ns) for n, (s, c) in d.items()}


class Lifecycle:
    def __init__(self, work: str, seed: int, ncpu: int, traced: bool = False):
        self.work = work
        self.seed = seed
        self.ncpu = ncpu
        self.traced = traced
        self.samples: dict[str, list[float]] = defaultdict(list)
        # per-layer observations gathered only when traced
        self.layer: dict[str, list] = defaultdict(list)
        self.encode_lake: str | None = None
        self.n_encodes = 0
        self.n_resumes = 0
        self.bytes_per_token: float | None = None
        self.check_s = 0.0  # time spent checking outputs

    # ------------------------------------------------------------ set-up

    def prepare(self) -> None:
        """Generate every input, encode the scan lake and the small lake,
        and compute every expected result apart from the program."""
        import duckdb

        from orc_format_ray.pipelines import encode as enc

        self.enc = enc
        w = self.work
        tbl, _ = gen.corpus(self.seed, CORPUS_DOCS, CORPUS_SHARDS)
        shard = tbl["_shard"].to_numpy()
        self.paths = gen.write_corpus(tbl, os.path.join(w, "corpus"))
        self.corpus = gen.strip_shard(tbl)
        self.flat = self.corpus["tokens"].combine_chunks().flatten().to_numpy()
        self.tokens = len(self.flat)
        self.budget = self.tokens * 4 // PARTITIONS
        n_tok = self.corpus["n_tok"]
        self.filter_max = int(pc.max(pc.filter(n_tok, pa.array(shard <= FILTER_SHARD))).as_py())
        self.filtered = self.corpus.filter(pc.less_equal(n_tok, self.filter_max))

        small, _ = gen.corpus(self.seed, SMALL_DOCS, SMALL_SHARDS, stream=3, outlier=False)
        small_paths = gen.write_corpus(small, os.path.join(w, "small_corpus"))
        small_flat = small["tokens"].combine_chunks().flatten().to_numpy()
        self.small_hist = np.bincount(small_flat, minlength=gen.VOCAB)
        self.small_lake = os.path.join(w, "small_lake")
        # several stripes, so the groupby merges per-stripe cells
        enc.encode_dataset(small_paths, self.small_lake, budget_bytes=4 * len(small_flat) // SMALL_PARTITIONS, resume=False)

        lineitem, orders = gen.tpch(self.seed, N_ORDERS)
        self.li_paths = gen.write_parts(lineitem, os.path.join(w, "lineitem"), "lineitem", 4)
        self.orders_paths = gen.write_parts(orders, os.path.join(w, "orders"), "orders", 2)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW lineitem AS SELECT * FROM read_parquet({self.li_paths!r})")
        con.execute(f"CREATE VIEW orders AS SELECT * FROM read_parquet({self.orders_paths!r})")
        self.expected = {
            "join": con.execute(
                "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, o_custkey, o_totalprice"
                " FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
            ).arrow()
        }
        for op, (key, aggs) in AGGS.items():
            cols = ", ".join(f"{_SQL_FN[f].format(c=c)} AS {a}" for c, f, a in aggs)
            self.expected[op] = con.execute(f"SELECT {key}, {cols} FROM lineitem GROUP BY {key}").arrow()
        con.close()

        self.lake = os.path.join(w, "lake")
        enc.encode_dataset(self.paths, self.lake, budget_bytes=self.budget, resume=False)
        checks.lineage("set-up lake lineage", self._records(self.lake), self.lake, self.corpus.num_rows)
        self.ref_digests = checks.digests(self.lake)
        self.lake_bytes = sum(s for s, _ in self.ref_digests.values())

    def _records(self, lake: str) -> list[dict]:
        out = []
        for p in sorted(glob.glob(os.path.join(lake, "manifest", "part-*.json"))):
            with open(p) as f:
                out.append(json.load(f))
        return out

    # --------------------------------------------------------- operations
    # Each ``_<op>`` returns (output, seconds), timing only the call into the
    # program until its result is complete; ``_check_<op>`` checks the output.

    def run(self, op: str) -> float:
        """Run, time and check one operation; returns its seconds."""
        out, seconds = getattr(self, "_" + op)()
        t0 = time.perf_counter()
        try:
            getattr(self, "_check_" + op)(out, seconds)
        except checks.CheckError:
            raise
        except Exception as e:  # a malformed output is a wrong output
            raise checks.CheckError(f"{op}: output could not be checked: {type(e).__name__}: {e}") from e
        finally:
            self.check_s += time.perf_counter() - t0
        self.samples[op].append(seconds)
        return seconds

    @staticmethod
    def _timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0

    def _materialized(self, op: str, make_ds):
        """Time ``make_ds()`` until every output block exists; returns the
        block refs. Traced runs also record the output's block sizes."""
        mat, seconds = self._timed(lambda: _wait_all(make_ds().materialize()))
        if self.traced:
            rows = [m.num_rows for b in mat.iter_internal_ref_bundles() for m in b.metadata]
            self.layer[f"{op}_block_rows"].append(rows)
        return mat.to_arrow_refs(), seconds

    # encode phase

    def _encode(self):
        self.n_encodes += 1
        out = os.path.join(self.work, f"encode-{self.n_encodes}")
        _, seconds = self._timed(lambda: self.enc.encode_dataset(self.paths, out, budget_bytes=self.budget, resume=False))
        return out, seconds

    def _check_encode(self, out, seconds):
        if self.encode_lake:
            shutil.rmtree(self.encode_lake, ignore_errors=True)
        self.encode_lake = out
        records = self._records(out)
        checks.lineage("encode lineage", records, out, self.corpus.num_rows)
        got = checks.digests(out)
        checks.identical("encode determinism", got, self.ref_digests)
        self.bytes_per_token = sum(s for s, _ in got.values()) / self.tokens
        if self.traced:
            self.layer["encode_ray_overhead_s"].append(seconds - sum(r["wall_sec"] for r in records) / self.ncpu)

    def _resume(self):
        lake = self.encode_lake
        self.n_resumes += 1
        names = sorted(self.ref_digests)
        rng = np.random.default_rng([self.seed, 9, self.n_resumes])
        self._deleted = {names[i] for i in rng.choice(len(names), max(1, len(names) // 4), replace=False)}
        self._before = _stripe_snapshot(lake)
        for name in self._deleted:
            os.remove(os.path.join(lake, name))
            os.remove(os.path.join(lake, "manifest", name.replace(".stripe", ".json")))
        return self._timed(lambda: self.enc.encode_dataset(self.paths, lake, budget_bytes=self.budget, resume=True))

    def _check_resume(self, summary, seconds):
        after = _stripe_snapshot(self.encode_lake)
        checks.resume("resume", self._before, after, self._deleted, self.ref_digests, summary["encoded"])
        checks.lineage("resume lineage", self._records(self.encode_lake), self.encode_lake, self.corpus.num_rows)
        if self.traced:
            self.layer["resume_partitions_encoded"].append(summary["encoded"])

    # scan phase

    def _decode(self):
        return self._materialized("decode", lambda: self.enc.decode_dataset(self.lake))

    def _check_decode(self, refs, seconds):
        checks.same_rows("decode", _fetch(refs), self.corpus, ["doc_id"])
        if self.traced:
            self.layer["decode_s"].append(seconds)

    def _projected_scan(self):
        return self._materialized("projected_scan", lambda: self.enc.decode_dataset(self.lake, columns=PROJECTED))

    def _check_projected_scan(self, refs, seconds):
        got = _fetch(refs)
        if "tokens" in got.column_names:
            raise checks.CheckError("projected_scan: the token column was not projected away")
        checks.same_rows("projected_scan", got, self.corpus.select(PROJECTED), ["doc_id"])

    def _filtered_scan(self):
        def make():
            ds, self._plan = self.enc.decode_dataset_filtered(self.lake, ("n_tok", "<=", self.filter_max))
            return ds

        return self._materialized("filtered_scan", make)

    def _check_filtered_scan(self, refs, seconds):
        checks.same_rows("filtered_scan", _fetch(refs), self.filtered, ["doc_id"])
        if self.traced:
            self.layer["filtered_plan"].append(self._plan)

    def _pushdown_agg(self):
        return self._timed(lambda: self.enc.column_agg_dataset(self.lake, "tokens"))

    def _check_pushdown_agg(self, agg, seconds):
        checks.int_aggregates("pushdown_agg", agg, self.flat)

    # exchange phase

    def _read(self, paths, columns):
        import ray.data

        return ray.data.read_parquet(paths, columns=columns)

    def _join(self):
        from orc_format_ray.ops.join import hash_join

        return self._materialized(
            "join",
            lambda: hash_join(
                self._read(self.li_paths, JOIN_LEFT),
                self._read(self.orders_paths, JOIN_RIGHT).rename_columns({"o_orderkey": "l_orderkey"}),
                key="l_orderkey",
            ),
        )

    def _check_join(self, refs, seconds):
        checks.same_rows("join", _fetch(refs), self.expected["join"], ["l_orderkey", "l_linenumber"])

    def _hash_aggregate(self, op: str):
        from orc_format_ray.ops.fastagg import hash_aggregate

        key, aggs = AGGS[op]
        cols = [key] + sorted({c for c, _f, _a in aggs})
        return self._materialized(op, lambda: hash_aggregate(self._read(self.li_paths, cols), key, aggs))

    def _check_hash_aggregate(self, op: str, refs, seconds) -> None:
        checks.same_rows(op, _fetch(refs), self.expected[op], [AGGS[op][0]])

    _aggregate = functools.partialmethod(_hash_aggregate, "aggregate")
    _check_aggregate = functools.partialmethod(_check_hash_aggregate, "aggregate")
    _string_key_aggregate = functools.partialmethod(_hash_aggregate, "string_key_aggregate")
    _check_string_key_aggregate = functools.partialmethod(_check_hash_aggregate, "string_key_aggregate")
    _date_key_aggregate = functools.partialmethod(_hash_aggregate, "date_key_aggregate")
    _check_date_key_aggregate = functools.partialmethod(_check_hash_aggregate, "date_key_aggregate")

    def _vocab_histogram(self):
        if not self.traced:
            return self._materialized("vocab_histogram", lambda: self.enc.value_counts_dataset(self.small_lake, "tokens"))
        # traced: materialize the per-stripe partials before the groupby, so
        # the two stages' times separate
        import ray.data

        groupby = ray.data.Dataset.groupby
        partial = []

        def split_groupby(ds, *args, **kwargs):
            mat, seconds = self._timed(ds.materialize)
            partial.append(seconds)
            return groupby(mat, *args, **kwargs)

        ray.data.Dataset.groupby = split_groupby
        try:
            refs, seconds = self._materialized("vocab_histogram", lambda: self.enc.value_counts_dataset(self.small_lake, "tokens"))
        finally:
            ray.data.Dataset.groupby = groupby
        self.layer["value_counts_partial_s"].append(partial[0])
        self.layer["value_counts_shuffle_s"].append(seconds - partial[0])
        return refs, seconds

    def _check_vocab_histogram(self, refs, seconds):
        got = _fetch(refs)
        checks.histogram("vocab_histogram", got["value"].to_numpy(), got["cnt"].to_numpy(), self.small_hist)

    # ------------------------------------------------------------ figures

    def median(self, op: str) -> float:
        return statistics.median(self.samples[op])
