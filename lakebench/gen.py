"""Input generators: every table the benchmark feeds the program is a pure
function of the workload seed.

* ``corpus`` — the F1 tokens table of FIXTURES.md: ``doc_id`` string,
  ``tokens`` list<int32>, ``n_tok`` int32, ``source`` string. Documents are
  70% zipf(1.3) ids over a 50,257 vocabulary, 20% ascending runs and 10%
  constant runs; ``n_tok`` is lognormal (median 700, p99 ~16k) with the
  edge rows of F1 (an empty document, a one-token document and one
  128,000-token zipf outlier). Lengths and kinds are stratified, so the
  corpus size and its token mixture hold steady across seeds.
* ``tpch`` — TPC-H-shaped ``lineitem`` / ``orders`` tables with integer
  cents for money, ``date32`` dates and a high-cardinality string column.

Shards are length buckets: shard k holds the k-th ``n_tok`` quantile band,
as a packing pipeline lays a corpus out, so stripe statistics on ``n_tok``
can prune files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

VOCAB = 50257
SOURCES = np.array(["web", "books", "code", "wiki", "news", "forums", "papers", "social"])
SOURCE_WEIGHTS = np.array([0.35, 0.2, 0.15, 0.1, 0.08, 0.06, 0.04, 0.02])
KIND_NAMES = ("zipf", "ascending", "constant")
OUTLIER_TOKENS = 128_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _stratified_lengths(rng: np.random.Generator, n: int, outlier: bool) -> np.ndarray:
    """Lognormal lengths (median 700, sigma 1.345: p99 ~16k), one at the
    middle of each of ``n`` quantile bands, in seeded order: documents keep
    the F1 distribution and every seed gets the same multiset of lengths,
    so corpus size and per-operation work do not move with the seed. The
    two shortest become F1's empty and one-token documents, and with
    ``outlier`` the longest becomes its 128,000-token document."""
    from statistics import NormalDist

    u = (np.arange(n) + 0.5) / n
    z = np.array([NormalDist().inv_cdf(x) for x in u])
    lengths = np.clip(np.exp(np.log(700) + 1.345 * z), 1, 60_000).astype(np.int64)
    lengths[:2] = [0, 1]
    if outlier:
        lengths[-1] = OUTLIER_TOKENS
    return lengths[rng.permutation(n)]


def _stratified_kinds(n_tok: np.ndarray) -> np.ndarray:
    """Run kind per document from its length rank: within every ten
    documents of similar length, 7 zipf, 2 ascending and 1 constant, at
    fixed ranks (the longest of the ten is zipf). The token mixture then
    follows the row mixture, and the distinct ids a lake holds do not hinge
    on which kind one long document happened to draw."""
    pattern = np.array([0, 1, 0, 0, 2, 0, 1, 0, 0, 0])
    kind = np.empty(len(n_tok), dtype=np.int64)
    kind[np.argsort(n_tok, kind="stable")] = pattern[np.arange(len(n_tok)) % 10]
    return kind


def corpus(seed: int, n_docs: int, n_shards: int = 8, stream: int = 1, outlier: bool = True) -> tuple[pa.Table, np.ndarray]:
    """Return ``(table, kind)``: the corpus rows in storage order (shard by
    shard) and each row's token-run kind (0 zipf, 1 ascending, 2 constant).
    ``outlier=False`` leaves out the 128,000-token document."""
    rng = _rng(seed, stream)
    n_tok = _stratified_lengths(rng, n_docs, outlier)
    kind = _stratified_kinds(n_tok)  # the outlier, longest, is zipf
    src = rng.choice(len(SOURCES), n_docs, p=SOURCE_WEIGHTS)

    offs = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offs[1:])
    row_of_tok = np.repeat(np.arange(n_docs), n_tok)
    pos_in_row = np.arange(offs[-1]) - offs[row_of_tok]
    start = rng.integers(0, VOCAB, n_docs)
    tok_kind = kind[row_of_tok]
    flat = np.where(tok_kind == 1, (start[row_of_tok] + pos_in_row) % VOCAB, start[row_of_tok]).astype(np.int32)
    is_zipf = tok_kind == 0
    flat[is_zipf] = rng.zipf(1.3, int(is_zipf.sum())) % VOCAB

    # length buckets: shard k holds the k-th n_tok quantile band; rows keep
    # their generation order inside a shard
    rank = np.lexsort((np.arange(n_docs), n_tok))
    shard = np.empty(n_docs, dtype=np.int64)
    shard[rank] = np.arange(n_docs) * n_shards // n_docs
    order = np.lexsort((np.arange(n_docs), shard))

    doc_id = np.array(
        [f"{SOURCES[src[i]]}/{shard[i]:04d}/doc-{i:08d}" for i in range(n_docs)], dtype=object
    )
    tokens = pa.ListArray.from_arrays(pa.array(offs.astype(np.int32)), pa.array(flat))
    tbl = pa.table(
        {
            "doc_id": pa.array(doc_id, pa.string()),
            "tokens": tokens,
            "n_tok": pa.array(n_tok.astype(np.int32)),
            "source": pa.array(SOURCES[src], pa.string()),
            "_shard": pa.array(shard),
        }
    ).take(pa.array(order))
    return tbl, kind[order]


def write_corpus(tbl: pa.Table, out_dir: str, row_group_size: int = 64) -> list[str]:
    """Write one parquet file per length bucket; returns the paths."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    shard = tbl["_shard"]
    body = tbl.drop_columns(["_shard"])
    for k in sorted(set(shard.to_pylist())):
        path = os.path.join(out_dir, f"tokens-{k:04d}.parquet")
        pq.write_table(body.filter(pc.equal(shard, k)), path, row_group_size=row_group_size)
        paths.append(path)
    return paths


def strip_shard(tbl: pa.Table) -> pa.Table:
    return tbl.drop_columns(["_shard"]) if "_shard" in tbl.column_names else tbl


def tpch(seed: int, n_orders: int) -> tuple[pa.Table, pa.Table]:
    """Return ``(lineitem, orders)``. About 10% of the order keys lineitem
    references have no ``orders`` row, as after a date-filtered orders
    slice, so the inner join drops rows."""
    rng = _rng(seed, 2)
    all_keys = np.arange(1, n_orders + 1, dtype=np.int64) * 4 - rng.integers(0, 4, n_orders)
    lines = rng.integers(1, 8, n_orders)
    l_orderkey = np.repeat(all_keys, lines)
    n_li = len(l_orderkey)
    first = np.repeat(np.cumsum(lines) - lines, lines)
    l_linenumber = (np.arange(n_li) - first + 1).astype(np.int32)
    l_quantity = rng.integers(1, 51, n_li).astype(np.int64)
    l_extendedprice = l_quantity * rng.integers(90_000, 210_000, n_li)  # cents
    epoch_1992 = 8035  # days since 1970-01-01
    o_date = epoch_1992 + rng.integers(0, 2405, n_orders)
    l_shipdate = np.repeat(o_date, lines) + rng.integers(1, 122, n_li)
    l_comment = np.array([f"c{x:06x}" for x in rng.integers(0, max(1, n_li // 2), n_li)], dtype=object)
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(l_orderkey),
            "l_linenumber": pa.array(l_linenumber),
            "l_quantity": pa.array(l_quantity),
            "l_extendedprice": pa.array(l_extendedprice),
            "l_shipdate": pa.array(l_shipdate.astype(np.int32)).cast(pa.date32()),
            "l_comment": pa.array(l_comment, pa.string()),
        }
    )
    keep = rng.random(n_orders) >= 0.1
    orders = pa.table(
        {
            "o_orderkey": pa.array(all_keys[keep]),
            "o_custkey": pa.array(rng.integers(1, max(2, n_orders // 10), int(keep.sum()))),
            "o_totalprice": pa.array(rng.integers(100_000, 50_000_000, int(keep.sum()))),
            "o_orderdate": pa.array(o_date[keep].astype(np.int32)).cast(pa.date32()),
        }
    )
    return lineitem, orders


def write_parts(tbl: pa.Table, out_dir: str, name: str, n_files: int) -> list[str]:
    """Split a table into ``n_files`` row-contiguous parquet files."""
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, tbl.num_rows, n_files + 1).astype(np.int64)
    paths = []
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        path = os.path.join(out_dir, f"{name}-{i:02d}.parquet")
        pq.write_table(tbl.slice(int(lo), int(hi - lo)), path)
        paths.append(path)
    return paths


def run_mixture(tbl: pa.Table, kind: np.ndarray) -> dict:
    """Share of rows and of tokens per run kind, as realised."""
    n_tok = tbl["n_tok"].to_numpy().astype(np.int64)
    total = max(1, int(n_tok.sum()))
    return {
        name: {"rows": float((kind == k).mean()), "tokens": float(n_tok[kind == k].sum() / total)}
        for k, name in enumerate(KIND_NAMES)
    }
