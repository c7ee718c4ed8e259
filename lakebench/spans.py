"""Traced mode: the per-layer metrics.

Ray workers cannot see wrappers installed in this process, so after the
closed loop the traced run replays the encode and the decode here, on one
core: for each partition ``read_partition`` -> ``encode_table`` ->
``write_blob_atomic``/``write_record`` (through ``EncodePartition``, the
task body the Ray run uses), then ``decode_stripe`` for each stripe. The
public functions of ``partition``, ``codecs.selector``, ``compression``,
``stats``, ``stripe`` and ``manifest`` are wrapped in spans (name, start,
end, parent) kept in memory and written out at the end. A span's self time
is its duration minus its direct children's. The replay's stripes must be
byte-identical to the Ray run's.

Figures that only a Ray run shows (scheduling overhead, pruning counts,
exchange output blocks, the value-count stages) come from the traced run's
own operations, gathered by ``Lifecycle`` when ``traced`` is set; a codec
kernel sweep over the corpus columns gives per-codec throughput.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import statistics
import time
import types
from collections import defaultdict

import pyarrow as pa

import checks

INT_CODECS = ("rle_v1", "rle_v2", "for", "bitpack", "dict_int")
STRING_CODECS = ("direct", "dict", "fsst")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.compress_bytes = [0, 0]  # bytes into / out of BlockCompressor.compress

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None, "start": time.perf_counter_ns()}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def total(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names) / 1e9

    def self_time(self, *names: str) -> float:
        child = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - child[s["id"]] for s in self.spans if s["name"] in names) / 1e9

    def dump(self, path: str, metrics: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"unit": "ns", "spans": self.spans, "metrics": metrics}, f)


def instrument(tracer: Tracer) -> None:
    """Wrap the layers' public functions, under every name the program
    calls them by."""
    from orc_format_ray import compression, manifest, partition, stats, stripe
    from orc_format_ray.codecs import selector
    from orc_format_ray.pipelines import encode as enc_mod

    for owner, attr, name in [
        (partition, "plan_partitions", "partition.plan_partitions"),
        (partition, "read_partition", "partition.read_partition"),
        (enc_mod, "read_partition", "partition.read_partition"),
        (selector, "select_int_codec", "codecs.select"),
        (selector, "select_string_codec", "codecs.select"),
        (selector, "encode_ints", "codecs.encode"),
        (selector, "encode_strings", "codecs.encode"),
        (selector, "decode_ints", "codecs.decode"),
        (selector, "decode_strings", "codecs.decode"),
        (compression.BlockCompressor, "decompress", "compression.decompress"),
        (stats, "compute", "stats.compute"),
        (stripe, "encode_table", "stripe.encode_table"),
        (enc_mod, "encode_table", "stripe.encode_table"),
        (stripe, "encode_column", "stripe.encode_column"),
        (stripe, "decode_stripe", "stripe.decode_stripe"),
        (enc_mod, "decode_stripe", "stripe.decode_stripe"),
        (stripe, "decode_column", "stripe.decode_column"),
        (manifest, "write_blob_atomic", "manifest.write"),
        (manifest, "write_record", "manifest.write"),
        (manifest, "load_completed", "manifest.load_completed"),
    ]:
        tracer.wrap(owner, attr, name)

    # compress also counts its bytes in and out
    compress = compression.BlockCompressor.compress

    @functools.wraps(compress)
    def traced_compress(self, data):
        with tracer.span("compression.compress"):
            out = compress(self, data)
        tracer.compress_bytes[0] += len(data)
        tracer.compress_bytes[1] += len(out)
        return out

    compression.BlockCompressor.compress = traced_compress
    tracer._patched.append((compression.BlockCompressor, "compress", compress))


def replay(lc, tracer: Tracer, out_dir: str) -> dict:
    """Encode the corpus partition by partition and decode every stripe, in
    this process, with the layers instrumented."""
    from orc_format_ray import manifest, partition
    from orc_format_ray.pipelines import encode as enc_mod

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    with tracer.span("replay.encode"):
        specs = partition.plan_partitions(lc.paths, lc.budget)
        task = enc_mod.EncodePartition(out_dir)
        for spec in specs:
            with tracer.span("replay.encode_partition"):
                task(pa.Table.from_pylist([spec.to_row()]))
    with tracer.span("replay.resume_plan"):
        manifest.load_completed(out_dir)
    checks.identical("traced replay", checks.digests(out_dir), lc.ref_digests)
    decoded = []
    with tracer.span("replay.decode"):
        for path in checks.stripe_files(out_dir):
            with tracer.span("replay.decode_stripe"):
                decoded.append(enc_mod._decode_stripe_batch(pa.table({"path": [path]})))
    checks.same_rows("traced replay decode", pa.concat_tables(decoded), lc.corpus, ["doc_id"])
    return {"weights": [s.weight for s in specs]}


def codec_streams(lake: str) -> dict:
    """Per codec: streams it encodes in the lake and their stored bytes."""
    from orc_format_ray.stripe import read_header

    out = {c: [0, 0] for c in INT_CODECS + STRING_CODECS}

    def walk(node):
        for kind, codec in node.get("encoding", {}).items():
            if codec in out and kind in node.get("streams_meta", {}):
                out[codec][0] += 1
                out[codec][1] += node["streams_meta"][kind]["len"]
        for c in node.get("children", []):
            walk(c)

    for path in checks.stripe_files(lake):
        with open(path, "rb") as f:
            header, _ = read_header(f.read())
        for root in header["columns"]:
            for node in root.get("chunks", [root]):
                walk(node)
    return out


def _rate(fn, n_values: int, min_s: float = 0.05) -> float:
    """Million values per second of ``fn``, repeated for at least ``min_s``."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return n_values * reps / elapsed / 1e6


def kernel_sweep(lc) -> dict:
    """Encode and decode Mvals/s of each codec over the corpus columns."""
    from orc_format_ray.codecs import selector
    from orc_format_ray.stripe import _string_block

    out = {}
    ints = [lc.flat[: 1 << 20], lc.corpus["n_tok"].to_numpy()]
    for name in INT_CODECS:
        enc, dec = selector.INT_CODECS[name]
        blobs = [enc(v) for v in ints]
        n = sum(len(v) for v in ints)
        out[name] = (
            _rate(lambda: [enc(v) for v in ints], n),
            _rate(lambda: [dec(b) for b in blobs], n),
        )
    strs = [_string_block(lc.corpus[c].combine_chunks()) for c in ("doc_id", "source")]
    for name in STRING_CODECS:
        enc, dec = selector.STRING_CODECS[name]
        blobs = [enc(c, o) for c, o in strs]
        n = sum(len(o) - 1 for _c, o in strs)
        out[name] = (
            _rate(lambda: [enc(c, o) for c, o in strs], n),
            _rate(lambda: [dec(b) for b in blobs], n),
        )
    return out


def span_cost(n: int = 20000) -> float:
    """Seconds one span adds to a call, measured on an empty function."""
    holder = types.SimpleNamespace(f=lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        holder.f()
    plain = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(holder, "f", "calibrate")
    t0 = time.perf_counter()
    for _ in range(n):
        holder.f()
    return max(0.0, (time.perf_counter() - t0 - plain) / n)


def _block_shape(rows_runs: list[list[int]]) -> tuple[int, float]:
    rows = rows_runs[-1]
    nonempty = [r for r in rows if r] or [0]
    med = statistics.median(nonempty)
    return len(rows), (max(nonempty) / med if med else 0.0)


def per_layer(lc, trace_dir: str, tag: str, worker_starts_per_op: float) -> dict:
    from orc_format_ray.reference_orc import reference_encoded_size

    med = statistics.median
    tracer = Tracer()
    instrument(tracer)
    try:
        info = replay(lc, tracer, os.path.join(lc.work, "replay"))
    finally:
        tracer.restore()
    sweep = kernel_sweep(lc)
    streams = codec_streams(lc.lake)
    weights = info["weights"]
    cin, cout = tracer.compress_bytes
    stripe_decode_s = tracer.total("replay.decode_stripe")
    plan = lc.layer["filtered_plan"][-1]

    m = {
        "partition.plan_s": (tracer.total("partition.plan_partitions"), "s"),
        "partition.read_s": (tracer.total("partition.read_partition"), "s"),
        "partition.count": (len(weights), "count"),
        "partition.max_over_median_weight": (max(weights) / med(weights), "ratio"),
        "codecs.select_s": (tracer.total("codecs.select"), "s"),
        "codecs.encode_s": (tracer.total("codecs.encode"), "s"),
        "codecs.decode_s": (tracer.total("codecs.decode"), "s"),
    }
    for c in INT_CODECS + STRING_CODECS:
        m[f"codecs.{c}.streams"] = (streams[c][0], "count")
        m[f"codecs.{c}.bytes"] = (streams[c][1], "B")
        m[f"codecs.{c}.encode_mvals_per_s"] = (sweep[c][0], "Mvals/s")
        m[f"codecs.{c}.decode_mvals_per_s"] = (sweep[c][1], "Mvals/s")
    m.update(
        {
            "compression.compress_s": (tracer.total("compression.compress"), "s"),
            "compression.decompress_s": (tracer.total("compression.decompress"), "s"),
            "compression.out_per_in": (cout / cin if cin else 0.0, "ratio"),
            "stats.compute_s": (tracer.total("stats.compute"), "s"),
            "stripe.encode_self_s": (tracer.self_time("stripe.encode_table", "stripe.encode_column"), "s"),
            "stripe.decode_self_s": (tracer.self_time("stripe.decode_stripe", "stripe.decode_column"), "s"),
            "stripe.bytes_vs_reference": (lc.lake_bytes / reference_encoded_size(lc.corpus), "ratio"),
            "manifest.write_s": (tracer.total("manifest.write"), "s"),
            "manifest.load_completed_s": (tracer.total("manifest.load_completed"), "s"),
            "pipelines.encode.ray_overhead_s": (med(lc.layer["encode_ray_overhead_s"]), "s"),
            "pipelines.decode.ray_overhead_s": (med(lc.layer["decode_s"]) - stripe_decode_s / lc.ncpu, "s"),
            "pipelines.filtered.files_read": (plan["files_read"], "count"),
            "pipelines.filtered.files_total": (plan["files_total"], "count"),
            "pipelines.resume.partitions_encoded": (lc.layer["resume_partitions_encoded"][-1], "count"),
            "pipelines.value_counts.partial_s": (med(lc.layer["value_counts_partial_s"]), "s"),
            "pipelines.value_counts.shuffle_s": (med(lc.layer["value_counts_shuffle_s"]), "s"),
        }
    )
    for op, prefix in (("join", "ops.join"), ("aggregate", "ops.fastagg"), ("string_key_aggregate", "ops.fastagg.string_key")):
        blocks, skew = _block_shape(lc.layer[f"{op}_block_rows"])
        m[f"{prefix}.call_s"] = (lc.median(op), "s")
        m[f"{prefix}.output_blocks"] = (blocks, "count")
        m[f"{prefix}.block_rows_max_over_median"] = (skew, "ratio")
    m["pipelines.value_counts.call_s"] = (lc.median("vocab_histogram"), "s")
    m["ray.worker_starts_per_op"] = (worker_starts_per_op, "1/op")
    m["trace.overhead_s"] = (span_cost() * len(tracer.spans), "s")
    tracer.dump(os.path.join(trace_dir, f"spans-{tag}.json"), {k: v for k, (v, _u) in m.items()})
    return m
