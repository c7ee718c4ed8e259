"""hash_aggregate (VERDICT r4 #6): raw-exchange grouped aggregation must be
row-identical to Ray's groupby().aggregate() — the folds (sum/min/max by
themselves, count by addition) are associative so any exchange layout gives
the same bits. Also pins the fallback (string keys, oversized bucket
counts) routes through Ray's groupby."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
from ray.data.aggregate import Count, Max, Min, Sum

from orc_format_ray.ops.fastagg import hash_aggregate


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _data(n=50_000, nk=700, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array(rng.integers(0, nk, n), type=pa.int64()),
        "k2": pa.array(rng.integers(0, 5, n), type=pa.int64()),
        "v": pa.array(rng.integers(-1000, 1000, n), type=pa.int64()),
        "w": pa.array(rng.integers(0, 10**12, n), type=pa.int64()),
    })


def test_single_key_all_folds_match_ray_groupby(ray_session):
    t = _data()
    ds = ray.data.from_arrow(t).repartition(16)
    fast = hash_aggregate(
        ray.data.from_arrow(t).repartition(16), "k",
        [("v", "sum", "sv"), ("v", "min", "mn"), ("v", "max", "mx"), ("w", "count", "c"), ("w", "count_all", "ca")],
        num_buckets=8,
    ).to_pandas()
    slow = ds.groupby("k").aggregate(
        Sum("v", alias_name="sv"), Min("v", alias_name="mn"), Max("v", alias_name="mx"),
        Count(alias_name="c"), Count(alias_name="ca"),
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(fast), _norm(slow), check_dtype=False)


def test_multi_key_matches_ray_groupby(ray_session):
    t = _data()
    fast = hash_aggregate(
        ray.data.from_arrow(t).repartition(16), ["k", "k2"],
        [("w", "sum", "sw")], num_buckets=4,
    ).to_pandas()
    slow = ray.data.from_arrow(t).repartition(16).groupby(["k", "k2"]).aggregate(
        Sum("w", alias_name="sw")
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(fast), _norm(slow), check_dtype=False)


def test_string_key_fast_path_matches(ray_session):
    t = pa.table({"k": pa.array(["a", "b", "a", "c"]), "v": pa.array([1, 2, 3, 4], type=pa.int64())})
    out = hash_aggregate(ray.data.from_arrow(t), "k", [("v", "sum", "s")], num_buckets=4).to_pandas()
    expect = pd.DataFrame({"k": ["a", "b", "c"], "s": [4, 2, 4]})
    pd.testing.assert_frame_equal(_norm(out), _norm(expect), check_dtype=False)


def test_string_key_at_scale_matches_ray_groupby(ray_session):
    rng = np.random.default_rng(5)
    words = np.array([f"w{j:04d}" for j in range(300)])
    t = pa.table({
        "k": pa.array(words[rng.integers(0, 300, 30_000)]),
        "v": pa.array(rng.integers(0, 10**9, 30_000), type=pa.int64()),
    })
    fast = hash_aggregate(ray.data.from_arrow(t).repartition(9), "k",
                          [("v", "sum", "s"), ("v", "min", "m")], num_buckets=8).to_pandas()
    slow = ray.data.from_arrow(t).groupby("k").aggregate(
        Sum("v", alias_name="s"), Min("v", alias_name="m")).to_pandas()
    pd.testing.assert_frame_equal(_norm(fast), _norm(slow), check_dtype=False)


def test_mixed_string_int_keys_and_null_keys(ray_session):
    t = pa.table({
        "k": pa.array(["a", "a", None, "b", None, "a"]),
        "k2": pa.array([1, 1, 2, 2, 2, None], type=pa.int64()),
        "v": pa.array([1, 2, 4, 8, 16, 32], type=pa.int64()),
    })
    fast = hash_aggregate(ray.data.from_arrow(t), ["k", "k2"], [("v", "sum", "s")], num_buckets=3).to_pandas()
    slow = ray.data.from_arrow(t).groupby(["k", "k2"]).aggregate(Sum("v", alias_name="s")).to_pandas()
    # normalize nulls for the sorted compare
    for df in (fast, slow):
        df["k"] = df["k"].fillna("\0null")
        df["k2"] = df["k2"].fillna(-1).astype("int64")
    pd.testing.assert_frame_equal(_norm(fast), _norm(slow), check_dtype=False)


def test_float_key_falls_back(ray_session):
    t = pa.table({"k": pa.array([1.5, 1.5, 2.5]), "v": pa.array([1, 2, 4], type=pa.int64())})
    out = hash_aggregate(ray.data.from_arrow(t), "k", [("v", "sum", "s")], num_buckets=2).to_pandas()
    assert sorted(out["s"].tolist()) == [3, 4]


def test_timestamp_key_fast_path(ray_session):
    ts = pa.array([0, 0, 86_400_000_000, 86_400_000_000], type=pa.timestamp("us"))
    t = pa.table({"d": ts, "v": pa.array([1, 2, 3, 4], type=pa.int64())})
    out = hash_aggregate(ray.data.from_arrow(t), "d", [("v", "sum", "s")], num_buckets=2).to_pandas()
    assert sorted(out["s"].tolist()) == [3, 7]


def test_date32_key_fast_path(ray_session):
    # pyarrow has no date32 -> int64 cast; the key hash must still take it
    d = pa.array([0, 0, 1, None, 1, None], pa.int32()).cast(pa.date32())
    t = pa.table({"d": d, "v": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64())})
    out = hash_aggregate(ray.data.from_arrow(t).repartition(3), "d", [("v", "sum", "s")], num_buckets=2)
    got = {str(r["d"]): r["s"] for r in out.take_all()}
    assert got == {"1970-01-01": 3, "1970-01-02": 8, "None": 10}


def _nullable_counts(key: pa.Array) -> pa.Table:
    return pa.table({"k": key, "v": pa.array([1, None, None, 4, None, 6], type=pa.int64())})


@pytest.mark.parametrize("key", [
    pa.array([1, 1, 1, 2, 2, 2], pa.int64()),  # hashed exchange
    pa.array([1.5, 1.5, 1.5, 2.5, 2.5, 2.5]),  # float key: Ray's groupby
])
def test_count_null_semantics_agree_on_both_routes(ray_session, key):
    from orc_format_ray.ops.fastagg import fast_groupby

    t = _nullable_counts(key)
    want = {"nn": [1, 2], "rows": [3, 3], "n": [3, 3]}
    got = fast_groupby(
        ray.data.from_arrow(t), "k",
        Count("v", ignore_nulls=True, alias_name="nn"), Count("v", alias_name="rows"), Count(alias_name="n"),
        num_buckets=2,
    ).to_pandas().sort_values("k")
    assert {c: got[c].tolist() for c in want} == want
    ray_native = ray.data.from_arrow(t).groupby("k").aggregate(
        Count("v", ignore_nulls=True, alias_name="nn"), Count("v", alias_name="rows"), Count(alias_name="n"),
    ).to_pandas().sort_values("k")
    assert {c: ray_native[c].tolist() for c in want} == want
    # hash_aggregate's "count" is the non-null count on either route
    out = hash_aggregate(ray.data.from_arrow(t), "k", [("v", "count", "c"), ("v", "count_all", "n")],
                         num_buckets=2).to_pandas().sort_values("k")
    assert out["c"].tolist() == [1, 2] and out["n"].tolist() == [3, 3]


def test_empty_dataset(ray_session):
    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    out = hash_aggregate(ray.data.from_arrow(t), "k", [("v", "sum", "s")], num_buckets=4).to_pandas()
    assert len(out) == 0


def test_fast_map_groups_matches_ray_map_groups(ray_session):
    from orc_format_ray.ops.fastagg import fast_map_groups

    t = _data(n=20_000, nk=233, seed=9)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": [int(g["k"].iloc[0])],
            "n": [len(g)],
            "sv": [int(g["v"].sum())],
            "top": [int(g.sort_values(["w", "v"]).iloc[-1]["w"])],
        })

    fast = fast_map_groups(ray.data.from_arrow(t).repartition(11), "k", per_group, num_buckets=8).to_pandas()
    slow = ray.data.from_arrow(t).groupby("k").map_groups(per_group, batch_format="pandas").to_pandas()
    pd.testing.assert_frame_equal(_norm(fast), _norm(slow), check_dtype=False)


def test_fast_map_groups_multi_key_and_empty_groups(ray_session):
    from orc_format_ray.ops.fastagg import fast_map_groups

    t = _data(n=5_000, nk=50, seed=13)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        if int(g["v"].sum()) % 2:  # drop half the groups: empty-result path
            return pd.DataFrame({"k": pd.Series([], dtype="int64"), "k2": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        return pd.DataFrame({"k": [int(g["k"].iloc[0])], "k2": [int(g["k2"].iloc[0])], "n": [len(g)]})

    fast = fast_map_groups(ray.data.from_arrow(t).repartition(5), ["k", "k2"], per_group, num_buckets=4).to_pandas()
    slow = ray.data.from_arrow(t).groupby(["k", "k2"]).map_groups(per_group, batch_format="pandas").to_pandas()
    pd.testing.assert_frame_equal(_norm(fast), _norm(slow), check_dtype=False)


def test_fast_map_groups_string_key(ray_session):
    from orc_format_ray.ops.fastagg import fast_map_groups

    t = pa.table({"k": pa.array(["x", "y", "x", "z", "y", "x"]),
                  "v": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64())})

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]], "sv": [int(g["v"].sum())]})

    out = fast_map_groups(ray.data.from_arrow(t), "k", per_group, num_buckets=3).to_pandas()
    expect = pd.DataFrame({"k": ["x", "y", "z"], "sv": [10, 7, 4]})
    pd.testing.assert_frame_equal(_norm(out), _norm(expect), check_dtype=False)


@pytest.mark.parametrize("nb", [1, 3, 8, 64, 65])  # 65: the groupby fallback
def test_bucket_count_invariance(ray_session, nb):
    t = _data(n=5000, nk=97)
    outs = hash_aggregate(ray.data.from_arrow(t).repartition(7), "k",
                          [("v", "sum", "s"), ("w", "max", "m")], num_buckets=nb).to_pandas()
    slow = ray.data.from_arrow(t).groupby("k").aggregate(
        Sum("v", alias_name="s"), Max("w", alias_name="m")).to_pandas()
    pd.testing.assert_frame_equal(_norm(outs), _norm(slow), check_dtype=False)
