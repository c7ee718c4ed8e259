"""Self-tests of the benchmark: the generators are pure functions of the
seed, and every checker accepts a correct output and rejects a corrupted
one. They import no part of the program and start no Ray session.

    python3 -m pytest lakebench -q -p no:cacheprovider
"""

from __future__ import annotations

import os
import sys
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

DOCS = 300


@pytest.fixture(scope="module")
def corpus():
    return gen.corpus(5, DOCS)


# ------------------------------------------------------------- generators


def test_corpus_is_a_pure_function_of_the_seed(corpus):
    again, kind = gen.corpus(5, DOCS)
    assert again.equals(corpus[0])
    assert np.array_equal(kind, corpus[1])
    other, _ = gen.corpus(6, DOCS)
    assert not other.equals(corpus[0])


def test_tpch_is_a_pure_function_of_the_seed():
    a = gen.tpch(5, 2000)
    b = gen.tpch(5, 2000)
    c = gen.tpch(6, 2000)
    assert a[0].equals(b[0]) and a[1].equals(b[1])
    assert not a[0].equals(c[0])


def test_corpus_shape(corpus):
    tbl, kind = corpus
    lens = pc.list_value_length(tbl["tokens"]).to_numpy()
    assert np.array_equal(lens, tbl["n_tok"].to_numpy())
    n_tok = set(tbl["n_tok"].to_pylist())
    assert {0, 1, gen.OUTLIER_TOKENS} <= n_tok
    assert len(set(tbl["doc_id"].to_pylist())) == tbl.num_rows
    shares = np.bincount(kind, minlength=3) / len(kind)
    assert abs(shares[0] - 0.7) < 0.1 and abs(shares[1] - 0.2) < 0.1 and abs(shares[2] - 0.1) < 0.07
    # storage order is by length bucket
    shard = tbl["_shard"].to_numpy()
    assert np.all(np.diff(shard) >= 0)
    # ascending rows are runs of +1 (mod vocab), constant rows one value
    offs = tbl["tokens"].combine_chunks().offsets.to_numpy()
    flat = tbl["tokens"].combine_chunks().flatten().to_numpy()
    for i in np.flatnonzero((kind == 1) & (lens > 1))[:5]:
        assert np.all(np.diff(flat[offs[i] : offs[i + 1]]) % gen.VOCAB == 1)
    for i in np.flatnonzero((kind == 2) & (lens > 1))[:5]:
        assert len(set(flat[offs[i] : offs[i + 1]])) == 1


def test_write_corpus_round_trips(tmp_path, corpus):
    import pyarrow.parquet as pq

    paths = gen.write_corpus(corpus[0], str(tmp_path))
    back = pa.concat_tables([pq.read_table(p) for p in paths])
    checks.same_rows("parquet", back, gen.strip_shard(corpus[0]), ["doc_id"])


# --------------------------------------------------------------- checkers


def _flip_token(tbl: pa.Table) -> pa.Table:
    toks = tbl["tokens"].combine_chunks()
    flat = toks.flatten().to_numpy().copy()
    flat[len(flat) // 2] ^= 1
    bad = pa.ListArray.from_arrays(toks.offsets, pa.array(flat))
    return tbl.set_column(tbl.column_names.index("tokens"), "tokens", bad)


def test_same_rows_accepts_any_row_order(corpus):
    tbl = gen.strip_shard(corpus[0])
    checks.same_rows("ok", tbl.take(np.random.default_rng(0).permutation(tbl.num_rows)), tbl, ["doc_id"])


def test_same_rows_rejects_a_flipped_token(corpus):
    tbl = gen.strip_shard(corpus[0])
    with pytest.raises(checks.CheckError, match="tokens"):
        checks.same_rows("decode", _flip_token(tbl), tbl, ["doc_id"])


def test_same_rows_rejects_a_dropped_row(corpus):
    tbl = gen.strip_shard(corpus[0])
    with pytest.raises(checks.CheckError, match="rows"):
        checks.same_rows("decode", tbl.slice(1), tbl, ["doc_id"])


def test_same_rows_rejects_a_missing_column(corpus):
    tbl = gen.strip_shard(corpus[0])
    with pytest.raises(checks.CheckError, match="missing"):
        checks.same_rows("projected", tbl.drop_columns(["source"]), tbl, ["doc_id"])


def test_same_rows_rejects_a_missing_join_row():
    lineitem, orders = gen.tpch(5, 2000)
    joined = lineitem.join(orders, "l_orderkey", "o_orderkey").select(["l_orderkey", "l_linenumber", "o_custkey"])
    dup = pa.concat_tables([joined.slice(1), joined.slice(0, 1).set_column(1, "l_linenumber", pa.array([99], pa.int32()))])
    checks.same_rows("join", joined.slice(0), joined, ["l_orderkey", "l_linenumber"])
    with pytest.raises(checks.CheckError):
        checks.same_rows("join", joined.slice(1), joined, ["l_orderkey", "l_linenumber"])
    with pytest.raises(checks.CheckError):
        checks.same_rows("join", dup, joined, ["l_orderkey", "l_linenumber"])


def test_same_rows_rejects_an_off_by_one_sum():
    expected = pa.table({"k": pa.array([1, 2, 3]), "s": pa.array([10, 20, 30])})
    actual = pa.table({"k": pa.array([3, 1, 2]), "s": pa.array([30, 10, 21])})
    with pytest.raises(checks.CheckError, match="'s'"):
        checks.same_rows("aggregate", actual, expected, ["k"])


def test_int_aggregates():
    flat = np.array([3, 0, 7, 7, 50256], dtype=np.int32)
    good = {"n": 5, "sum": 50273, "min": 0, "max": 50256}
    checks.int_aggregates("pushdown", good, flat)
    for key, delta in (("sum", 1), ("n", -1), ("max", 1)):
        with pytest.raises(checks.CheckError, match=key):
            checks.int_aggregates("pushdown", {**good, key: good[key] + delta}, flat)


def test_histogram():
    flat = np.array([1, 1, 4, 0, 4, 4])
    expected = np.bincount(flat, minlength=6)
    checks.histogram("vc", np.array([4, 0, 1]), np.array([3, 1, 2]), expected)
    with pytest.raises(checks.CheckError):
        checks.histogram("vc", np.array([4, 0, 1]), np.array([3, 1, 3]), expected)
    with pytest.raises(checks.CheckError):
        checks.histogram("vc", np.array([4, 0]), np.array([3, 1]), expected)
    with pytest.raises(checks.CheckError):
        checks.histogram("vc", np.array([4, 4, 0, 1]), np.array([2, 1, 1, 2]), expected)


def _fake_lake(root, blobs: list[bytes], rows: list[int]) -> tuple[str, list[dict]]:
    lake = str(root)
    records = []
    for pid, (blob, n) in enumerate(zip(blobs, rows)):
        with open(os.path.join(lake, f"part-{pid:05d}.stripe"), "wb") as f:
            f.write(blob)
        records.append({"pid": pid, "num_rows": n, "blob_crc32": zlib.crc32(blob), "encoded_bytes": len(blob)})
    return lake, records


def test_lineage(tmp_path):
    lake, records = _fake_lake(tmp_path, [b"abc", b"defgh"], [2, 3])
    checks.lineage("lineage", records, lake, 5)
    with pytest.raises(checks.CheckError, match="rows"):
        checks.lineage("lineage", records, lake, 6)
    with pytest.raises(checks.CheckError, match="blob_crc32"):
        checks.lineage("lineage", [records[0], {**records[1], "blob_crc32": records[1]["blob_crc32"] ^ 1}], lake, 5)
    with pytest.raises(checks.CheckError, match="records"):
        checks.lineage("lineage", records[:1], lake, 2)
    with open(os.path.join(lake, "part-00001.stripe"), "ab") as f:
        f.write(b"x")
    with pytest.raises(checks.CheckError):
        checks.lineage("lineage", records, lake, 5)


def test_identical_and_resume(tmp_path):
    lake, _ = _fake_lake(tmp_path, [b"abc", b"defgh", b"ij"], [1, 1, 1])
    ref = checks.digests(lake)
    checks.identical("same", checks.digests(lake), ref)
    before = {n: (s, c, 1) for n, (s, c) in ref.items()}
    after = dict(before)
    checks.resume("resume", before, after, set(), ref, 0)
    deleted = {"part-00001.stripe"}
    after_rewrite = {**before, "part-00001.stripe": (*ref["part-00001.stripe"], 2)}
    checks.resume("resume", before, after_rewrite, deleted, ref, 1)
    with pytest.raises(checks.CheckError, match="mtime"):
        checks.resume("resume", before, {**before, "part-00000.stripe": (*ref["part-00000.stripe"], 2)}, deleted, ref, 1)
    with pytest.raises(checks.CheckError, match="re-encoded"):
        checks.resume("resume", before, after_rewrite, deleted, ref, 2)
    with pytest.raises(checks.CheckError, match="differs"):
        checks.resume("resume", before, {**after_rewrite, "part-00001.stripe": (5, 0, 2)}, deleted, ref, 1)
    with open(os.path.join(lake, "part-00002.stripe"), "wb") as f:
        f.write(b"IJ")
    with pytest.raises(checks.CheckError, match="part-00002"):
        checks.identical("determinism", checks.digests(lake), ref)


# ------------------------------------------------------ harness and tracing


def test_launcher_environment_drops_what_must_not_steer_a_run(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("RAY_ADDRESS", "auto")
    monkeypatch.setenv("PYTHONPATH", "/nowhere")
    env = run.clean_env()
    assert "OMP_NUM_THREADS" not in env and "RAY_ADDRESS" not in env and "PYTHONPATH" not in env
    assert env.get("PATH") == os.environ.get("PATH")


def test_launcher_finds_an_interpreter_with_the_dependencies():
    python, _refused = run.find_interpreter(run.clean_env())
    assert python is not None and os.path.isfile(python)


def test_one_line_names_the_worker_cause():
    e = RuntimeError("ray::Task()\n  File x\npyarrow.lib.ArrowNotImplementedError: Unsupported cast\n\ncol: [[1]]")
    assert harness._one_line(e) == "RuntimeError: pyarrow.lib.ArrowNotImplementedError: Unsupported cast"


def test_cpu_count_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert harness.cpu_count() == len(os.sched_getaffinity(0))


def test_tracer_self_time_subtracts_direct_children():
    import time

    tracer = spans.Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    assert tracer.total("outer") >= 0.05
    assert 0.015 <= tracer.self_time("outer") < 0.03
    assert tracer.spans[1]["parent"] == 0


def test_tracer_restores_what_it_wrapped():
    import types

    holder = types.SimpleNamespace(f=lambda x: x + 1)
    orig = holder.f
    tracer = spans.Tracer()
    tracer.wrap(holder, "f", "f")
    assert holder.f(1) == 2 and len(tracer.spans) == 1
    tracer.restore()
    assert holder.f is orig
