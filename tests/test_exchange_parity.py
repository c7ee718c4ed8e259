"""Seeded randomized parity for the hash exchange (ops/exchange.py).

`hash_aggregate`, `fast_groupby`, `fast_map_groups` and `hash_join` are
checked against pandas over every key type the exchange hashes (int8-int64,
date32, timestamp, string, large_string), null-heavy keys, one hot key, and
inputs that carry an empty block and a column-less block. Each case runs on
all three exchange paths, each forced: the raw two-wave exchange (8
buckets), the groupby fallback past the bucket bound, and the same fallback
tripped by the (blocks x buckets) ref bound."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
from ray.data.aggregate import Count, Max, Min, Sum

from orc_format_ray.ops import exchange
from orc_format_ray.ops.fastagg import fast_groupby, fast_map_groups, hash_aggregate
from orc_format_ray.ops.join import hash_join

TYPES = ["int8", "int16", "int32", "int64", "date32", "timestamp", "string", "large_string"]
PATHS = ["raw", "bucket_bound", "ref_bound"]


def _key_col(rng, n: int, typ: str) -> pa.Array:
    """Small-domain keys: 40% one hot value, 25% null, the rest spread."""
    v = np.where(rng.random(n) < 0.4, 3, rng.integers(0, 12, n))
    null = rng.random(n) < 0.25
    if typ.startswith("int"):
        return pa.array(v, getattr(pa, typ)(), mask=null)
    if typ == "date32":
        return pa.array(v + 18_000, pa.int32(), mask=null).cast(pa.date32())
    if typ == "timestamp":
        return pa.array(v * 86_400_000_000 + 1234, pa.int64(), mask=null).cast(pa.timestamp("us"))
    words = [None if m else f"k{x}-ü" for x, m in zip(v, null)]
    return pa.array(words, pa.string() if typ == "string" else pa.large_string())


def _table(rng, n: int, keys: dict[str, str], value: str) -> pa.Table:
    cols = {k: _key_col(rng, n, t) for k, t in keys.items()}
    cols[value] = pa.array(rng.integers(-1000, 1000, n), pa.int64(), mask=rng.random(n) < 0.2)
    return pa.table(cols)


def _dataset(t: pa.Table):
    """Three slices plus an empty block with the schema and a column-less
    empty block (what a prior exchange's empty buckets look like)."""
    third = len(t) // 3
    blocks = [t.slice(0, third), t.slice(0, 0), t.slice(third, third), pa.table({}), t.slice(2 * third)]
    return ray.data.from_arrow_refs([ray.put(b) for b in blocks])


def _cell(x) -> str:
    if x is None or (not isinstance(x, str) and pd.isna(x)):
        return "<null>"
    if isinstance(x, (float, np.floating)) and float(x).is_integer():
        return str(int(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _rows(df: pd.DataFrame, cols: list[str]) -> list[tuple]:
    return sorted(tuple(_cell(x) for x in r) for r in df[cols].itertuples(index=False))


def _case(path: str, op: str):
    """Seeded key types per (path, op): across one path the four ops cover
    all eight types, and each op sees different types on each path."""
    shift = PATHS.index(path) * 3
    order = TYPES[shift:] + TYPES[:shift]
    span = {"hash_join": (0, 1), "hash_aggregate": (1, 4), "fast_groupby": (4, 6), "fast_map_groups": (6, 8)}[op]
    rng = np.random.default_rng(1000 + 10 * PATHS.index(path) + span[0])
    return rng, {f"k{i}": t for i, t in enumerate(order[span[0]:span[1]])}


@pytest.fixture(params=PATHS)
def path(request, monkeypatch):
    if request.param == "ref_bound":
        monkeypatch.setattr(exchange, "_RAW_EXCHANGE_MAX_REFS", 1)
    return request.param


def _nb(path: str) -> int:
    return exchange._RAW_EXCHANGE_MAX_BUCKETS + 1 if path == "bucket_bound" else 8


def test_hash_aggregate_parity(ray_session, path):
    rng, keys = _case(path, "hash_aggregate")
    t = _table(rng, 3000, keys, "v")
    ks = list(keys)
    out = hash_aggregate(
        _dataset(t), ks,
        [("v", "sum", "s"), ("v", "min", "mn"), ("v", "max", "mx"), ("v", "count", "c"), ("v", "count_all", "n")],
        num_buckets=_nb(path),
    ).to_pandas()
    g = t.to_pandas().groupby(ks, dropna=False)["v"]
    want = pd.DataFrame({"s": g.sum(min_count=1), "mn": g.min(), "mx": g.max(), "c": g.count(), "n": g.size()}).reset_index()
    cols = ks + ["s", "mn", "mx", "c", "n"]
    assert _rows(out, cols) == _rows(want, cols)


def test_fast_groupby_parity(ray_session, path):
    rng, keys = _case(path, "fast_groupby")
    t = _table(rng, 3000, keys, "v")
    ks = list(keys)
    out = fast_groupby(
        _dataset(t), ks,
        Sum("v", alias_name="s"), Max("v", alias_name="mx"), Min("v", alias_name="mn"),
        Count("v", ignore_nulls=True, alias_name="nn"), Count("v", alias_name="rows"), Count(alias_name="n"),
        num_buckets=_nb(path),
    ).to_pandas()
    g = t.to_pandas().groupby(ks, dropna=False)["v"]
    want = pd.DataFrame({"s": g.sum(min_count=1), "mx": g.max(), "mn": g.min(), "nn": g.count(),
                         "rows": g.size(), "n": g.size()}).reset_index()
    cols = ks + ["s", "mx", "mn", "nn", "rows", "n"]
    assert _rows(out, cols) == _rows(want, cols)


def test_fast_map_groups_parity(ray_session, path):
    rng, keys = _case(path, "fast_map_groups")
    t = _table(rng, 3000, keys, "v")
    ks = list(keys)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        out = {k: [g[k].iloc[0]] for k in ks}
        out.update(n=[len(g)], nn=[int(g["v"].notna().sum())], top=[g["v"].max()])
        return pd.DataFrame(out)

    out = fast_map_groups(_dataset(t), ks, per_group, num_buckets=_nb(path)).to_pandas()
    want = pd.concat([per_group(g) for _, g in t.to_pandas().groupby(ks, dropna=False)], ignore_index=True)
    cols = ks + ["n", "nn", "top"]
    assert _rows(out, cols) == _rows(want, cols)


def test_hash_join_parity(ray_session, path):
    rng, keys = _case(path, "hash_join")
    (key, _typ), = keys.items()
    how = {"raw": "inner", "bucket_bound": "left", "ref_bound": "full"}[path]
    left, right = _table(rng, 400, keys, "lv"), _table(rng, 150, keys, "rv")
    out = hash_join(_dataset(left), ray.data.from_arrow(right), key, num_buckets=_nb(path), how=how).to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on=key, how={"full": "outer"}.get(how, how), suffixes=("", "_r"))
    cols = [key, "lv", "rv"]
    assert len(want) > len(left) // 2  # the hot key and null keys fan out
    assert _rows(out, cols) == _rows(want, cols)
