"""End-to-end Ray Data pipeline tests: tokenize -> plan -> encode -> decode ->
per-doc_id token-array equality (the north-rule invariant), plus exact resume
and the reference-size bound."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from orc_format_ray import manifest as mf
from orc_format_ray import partition, reference_orc
from orc_format_ray.pipelines import encode as enc
from orc_format_ray.pipelines import tokens as tok

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small deterministic synthetic tokens corpus written to parquet."""
    d = tmp_path_factory.mktemp("corpus")
    paths = tok.write_synthetic_corpus(str(d), n_rows=3000, n_shards=4, seed=1)
    return str(d), paths


def test_tokenize_documents_matches_whitespace_counts(ray_session):
    ds = tok.tokenize_documents(SF)
    tbl = pa.concat_tables(list(ds.iter_batches(batch_size=10**6, batch_format="pyarrow")))
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text", "source"])
    expected = {
        f"{s}/{i}": len(t.split())
        for i, t, s in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist(), docs["source"].to_pylist())
    }
    got = dict(zip(tbl["doc_id"].to_pylist(), tbl["n_tok"].to_pylist()))
    assert got == expected  # blocks may arrive out of order; compare by key
    # invariant: n_tok == len(tokens) per row (reference list.rs:184-191)
    lens = [len(x) for x in tbl["tokens"].to_pylist()]
    assert lens == tbl["n_tok"].to_pylist()


def test_plan_partitions_budget_and_determinism(corpus):
    d, paths = corpus
    specs = partition.plan_partitions(paths, budget_bytes=256 * 1024)
    specs2 = partition.plan_partitions(paths, budget_bytes=256 * 1024)
    assert [s.to_row() for s in specs] == [s.to_row() for s in specs2]
    assert len(specs) > 1
    # weight cap: a partition may exceed budget only by one trailing row
    # (single docs can weigh up to 4*128k bytes and are unsplittable)
    max_row_w = 4 * 128_000
    for s in specs:
        assert s.weight <= 256 * 1024 + max_row_w, s.weight
    # coverage: all rows exactly once
    rows = sum(sl.row_hi - sl.row_lo for s in specs for sl in s.slices)
    assert rows == 3000


def test_encode_decode_roundtrip_per_doc(ray_session, corpus, tmp_path):
    d, paths = corpus
    out_dir = str(tmp_path / "stripes")
    summary = enc.encode_dataset(paths, out_dir, budget_bytes=256 * 1024)
    assert summary["num_rows"] == 3000
    assert summary["encoded"] == summary["partitions"] > 1
    assert os.path.exists(os.path.join(out_dir, "_summary.json"))

    decoded = pa.concat_tables(list(enc.decode_dataset(out_dir).iter_batches(batch_size=10**6, batch_format="pyarrow")))
    original = pa.concat_tables([pq.read_table(p) for p in paths])
    # order-insensitive per-doc_id equality (north-rule invariant)
    dec = decoded.sort_by("doc_id")
    ori = original.sort_by("doc_id")
    assert dec.equals(ori), "decoded table != original"


def test_resume_skips_completed(ray_session, corpus, tmp_path):
    d, paths = corpus
    out_dir = str(tmp_path / "stripes")
    s1 = enc.encode_dataset(paths, out_dir, budget_bytes=256 * 1024)
    n = s1["partitions"]
    # simulate a partial failure: delete a few stripes + manifests
    victims = [0, n - 1]
    for pid in victims:
        os.remove(mf.stripe_path(out_dir, pid))
    before = {p: os.path.getmtime(p) for p in glob.glob(os.path.join(out_dir, "*.stripe"))}
    s2 = enc.encode_dataset(paths, out_dir, budget_bytes=256 * 1024)
    assert s2["skipped"] == n - len(victims)
    assert s2["encoded"] == len(victims)
    # untouched stripes were not rewritten
    for p, t in before.items():
        assert os.path.getmtime(p) == t
    # and the final result is bit-identical to a fresh run
    recs = mf.load_completed(out_dir)
    assert len(recs) == n
    fresh_dir = str(tmp_path / "fresh")
    enc.encode_dataset(paths, fresh_dir, budget_bytes=256 * 1024)
    for pid in range(n):
        a = open(mf.stripe_path(out_dir, pid), "rb").read()
        b = open(mf.stripe_path(fresh_dir, pid), "rb").read()
        assert a == b, f"stripe {pid} differs after resume"


def test_size_beats_reference_oracle(corpus):
    d, paths = corpus
    tbl = pa.concat_tables([pq.read_table(p) for p in paths])
    from orc_format_ray.stripe import encode_table

    blob, meta = encode_table(tbl)
    ref = reference_orc.reference_encoded_size(tbl)
    assert meta["encoded_bytes"] <= ref, f"ours={meta['encoded_bytes']} ref={ref}"


def test_stats_merge_matches_global(corpus):
    from orc_format_ray import stats as st

    d, paths = corpus
    tables = [pq.read_table(p) for p in paths]
    whole = pa.concat_tables(tables)
    col = "n_tok"
    partials = [st.compute(t[col].combine_chunks()) for t in tables]
    merged = st.merge_all(partials)
    direct = st.compute(whole[col].combine_chunks())
    assert merged.to_dict() == direct.to_dict()


def test_encode_blocks_streaming_variant(ray_session, corpus, tmp_path):
    """Mid-pipeline Dataset -> stripes without a storage plan (one per block)."""
    import ray.data

    d, paths = corpus
    out_dir = str(tmp_path / "blocks")
    ds = ray.data.read_parquet(paths)
    res = enc.encode_blocks(ds, out_dir).take_all()
    assert sum(r["num_rows"] for r in res) == 3000
    decoded = pa.concat_tables(
        list(enc.decode_dataset(out_dir).iter_batches(batch_size=10**7, batch_format="pyarrow"))
    ).sort_by("doc_id")
    original = pa.concat_tables([pq.read_table(p) for p in paths]).sort_by("doc_id")
    assert decoded.equals(original)


def test_custom_codec_registration():
    """Extension surface: a user codec joins selection + decode."""
    import numpy as np

    from orc_format_ray.codecs import selector

    def enc_neg(v):
        return (-np.asarray(v, dtype=np.int64)).tobytes()

    def dec_neg(b):
        return -np.frombuffer(b, dtype=np.int64)

    selector.register_int_codec("negate_raw", enc_neg, dec_neg)
    try:
        v = np.array([5, -3, 7], dtype=np.int64)
        out = selector.encode_ints(v, "negate_raw")
        np.testing.assert_array_equal(selector.decode_ints(out, "negate_raw"), v)
        assert "negate_raw" in selector.INT_CODECS
        # and it participates in selection without breaking it
        assert selector.select_int_codec(np.arange(100)) in selector.INT_CODECS
    finally:
        del selector.INT_CODECS["negate_raw"]


def test_resume_detects_corruption(ray_session, corpus, tmp_path):
    """A silently corrupted stripe is re-encoded when verify_crc is on."""
    d, paths = corpus
    out_dir = str(tmp_path / "stripes")
    s1 = enc.encode_dataset(paths, out_dir, budget_bytes=512 * 1024)
    victim = mf.stripe_path(out_dir, 1)
    blob = bytearray(open(victim, "rb").read())
    blob[len(blob) // 2] ^= 0xFF  # same size, different bytes
    open(victim, "wb").write(bytes(blob))
    # size-only resume misses it
    s2 = enc.encode_dataset(paths, out_dir, budget_bytes=512 * 1024)
    assert s2["encoded"] == 0
    # crc-verifying resume repairs exactly that partition
    s3 = enc.encode_dataset(paths, out_dir, budget_bytes=512 * 1024, verify_crc=True)
    assert s3["encoded"] == 1 and s3["skipped"] == s1["partitions"] - 1
    fresh = str(tmp_path / "fresh")
    enc.encode_dataset(paths, fresh, budget_bytes=512 * 1024)
    assert open(victim, "rb").read() == open(mf.stripe_path(fresh, 1), "rb").read()


def test_decode_dataset_projection(ray_session, corpus, tmp_path):
    d, paths = corpus
    out_dir = str(tmp_path / "proj")
    enc.encode_dataset(paths, out_dir, budget_bytes=1024 * 1024)
    ds = enc.decode_dataset(out_dir, columns=["doc_id", "n_tok"])
    tbl = pa.concat_tables(list(ds.iter_batches(batch_size=10**7, batch_format="pyarrow")))
    assert set(tbl.schema.names) == {"doc_id", "n_tok"}
    original = pa.concat_tables([pq.read_table(p, columns=["doc_id", "n_tok"]) for p in paths])
    assert tbl.sort_by("doc_id").equals(original.sort_by("doc_id"))


def test_manifest_consolidation(ray_session, corpus, tmp_path):
    """Compacting 1 JSON/partition into manifest.parquet preserves exact resume."""
    d, paths = corpus
    out_dir = str(tmp_path / "cons")
    s1 = enc.encode_dataset(paths, out_dir, budget_bytes=512 * 1024)
    n = s1["partitions"]
    mf.consolidate(out_dir)
    assert glob.glob(os.path.join(out_dir, "manifest", "part-*.json")) == []
    done = mf.load_completed(out_dir)
    assert len(done) == n
    # resume after consolidation: everything skipped, nothing re-encoded
    s2 = enc.encode_dataset(paths, out_dir, budget_bytes=512 * 1024)
    assert s2["skipped"] == n and s2["encoded"] == 0
    # delete one stripe -> exactly one re-encode, new record re-consolidates
    os.remove(mf.stripe_path(out_dir, 0))
    s3 = enc.encode_dataset(paths, out_dir, budget_bytes=512 * 1024)
    assert s3["encoded"] == 1
    mf.consolidate(out_dir)
    assert len(mf.load_completed(out_dir)) == n


def test_resume_rejects_stale_plan(ray_session, corpus, tmp_path):
    """ADVICE r1: a rerun with a different budget re-plans partitions; stale
    pid-matching stripes from the old plan must NOT be skipped (they would mix
    two incompatible plans). Every partition of the new plan re-encodes."""
    d, paths = corpus
    out_dir = str(tmp_path / "stripes")
    enc.encode_dataset(paths, out_dir, budget_bytes=256 * 1024)
    s2 = enc.encode_dataset(paths, out_dir, budget_bytes=128 * 1024)
    # a stale record may only be reused when its input slices coincide with
    # the new plan (then the stripe is bit-identical anyway); everything else
    # re-encodes, and row coverage under the NEW plan is exact
    assert s2["encoded"] + s2["skipped"] == s2["partitions"]
    assert s2["num_rows"] == 3000
    specs_new = partition.plan_partitions(paths, budget_bytes=128 * 1024)
    frag_new = {s.pid: [[sl.path, sl.row_group, sl.row_lo, sl.row_hi] for sl in s.slices] for s in specs_new}
    recs = mf.load_completed(out_dir)
    rows_covered = 0
    for pid in range(s2["partitions"]):
        assert recs[pid]["input_fragments"] == frag_new[pid], f"pid {pid} carries stale-plan fragments"
        rows_covered += recs[pid]["num_rows"]
    assert rows_covered == 3000


def test_compact_stripes_preserves_data(ray_session, corpus, tmp_path):
    """Many small stripes -> few target-sized ones; decoded corpus unchanged."""
    import ray.data

    d, paths = corpus
    out_dir = str(tmp_path / "blocks")
    ds = ray.data.read_parquet(paths)
    enc.encode_blocks(ds, out_dir, stripe_bytes=96 * 1024).take_all()  # deliberately small stripes
    n_before = len(glob.glob(os.path.join(out_dir, "*.stripe")))
    before = pa.concat_tables(
        list(enc.decode_dataset(out_dir).iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    ).sort_by("doc_id")
    summary = enc.compact_stripes(out_dir, target_bytes=1 << 20)
    n_after = len(glob.glob(os.path.join(out_dir, "*.stripe")))
    assert summary["bins"] >= 1 and n_after < n_before
    after = pa.concat_tables(
        list(enc.decode_dataset(out_dir).iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
    ).sort_by("doc_id")
    assert after.equals(before)
    # idempotent: a second pass finds nothing worth merging at the same target
    again = enc.compact_stripes(out_dir, target_bytes=1 << 20)
    assert again["bins"] <= summary["bins"]


def test_range_join_broadcast_semantics(ray_session):
    import ray.data

    from orc_format_ray.ops import join as j

    bands = pa.table({"band": ["a", "b"], "lo": [0.0, 10.0], "hi": [10.0, 20.0]})
    big = ray.data.from_arrow(pa.table({"v": pa.array([-1.0, 0.0, 9.99, 10.0, 19.99, 20.0])}))
    inner = pa.concat_tables(list(j.range_join_broadcast(big, bands, value_col="v").iter_batches(batch_size=100, batch_format="pyarrow")))
    assert inner.sort_by("v")["band"].to_pylist() == ["a", "a", "b", "b"]  # -1 and 20 fall outside
    left = pa.concat_tables(list(j.range_join_broadcast(big, bands, value_col="v", how="left").iter_batches(batch_size=100, batch_format="pyarrow")))
    assert left.num_rows == 6 and left.sort_by("v")["band"].to_pylist() == [None, "a", "a", "b", "b", None]
    import pytest as _pt

    with _pt.raises(ValueError):
        j.range_join_broadcast(big, pa.table({"band": ["x", "y"], "lo": [0.0, 5.0], "hi": [6.0, 9.0]}), value_col="v")


def test_clean_and_encode_stress_driver_rss_bounded(ray_session, tmp_path):
    """VERDICT r1 #1 done-criterion: a 4x corpus run of the composed cleaning
    pipeline completes with driver RSS bounded (nothing materializes on the
    driver; only lineage rows come back)."""
    import resource

    import duckdb

    # 4x documents corpus in /tmp (doc_ids disambiguated per copy)
    src = f"{SF}/documents.parquet"
    d4 = tmp_path / "docs4x"
    d4.mkdir()
    con = duckdb.connect()
    # clean_documents reads {dir}/documents.parquet; 4 disambiguated copies
    con.execute(
        f"COPY (SELECT doc_id + copy_i * 1000000 AS doc_id, text, lang, source, n_chars "
        f"FROM read_parquet('{src}'), range(4) t(copy_i)) TO '{d4}/documents.parquet'"
    )
    from orc_format_ray.pipelines import clean

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on linux
    out = clean.clean_and_encode(str(d4), str(tmp_path / "out"), budget_bytes=1 << 20)
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert out["num_rows"] > 0
    delta_mb = (rss_after - rss_before) / 1024
    assert delta_mb < 500, f"driver RSS grew {delta_mb:.0f} MB during the composed pipeline"
    # exactly the lineage came back: stripes on disk hold the data
    assert out["stripes"] == len(glob.glob(os.path.join(str(tmp_path / "out"), "stripes", "*.stripe")))


def test_no_driver_materialization_tripwires():
    """Source-level guards for the round-1 scale-killers: the composed clean
    pipeline must not concat/sort the corpus on the driver, and minhash
    verification must not build a driver-side text dict."""
    import inspect

    from orc_format_ray.ops import dedup
    from orc_format_ray.pipelines import clean

    src_clean = inspect.getsource(clean.clean_and_encode)
    assert "concat_tables" not in src_clean and "sort_by" not in src_clean and "to_pandas" not in src_clean

    src_mh = inspect.getsource(dedup.minhash_dedup)
    assert "texts[" not in src_mh  # no driver-side {doc_id: text} dict
    assert "to_pandas" not in src_mh.replace("batch_format", "")  # verification stays in Datasets

    import __ray_entry__ as em

    src_entry = inspect.getsource(em.entry)
    assert "concat_tables" not in src_entry and "sort_by" not in src_entry
