"""TPC-H composite timing: every tpch_* query in the registry, engine
(Ray, this repo) vs DuckDB running the SAME oracle SQL on the same box —
the honest single-node yardstick for the warehouse suite. Run EXCLUSIVELY
(the box's ±40% ambient variance poisons concurrent timings; see
BASELINE.md).

Usage: python tools/tpch_bench.py [--sf DIR] [--cpus N] [--reps K]
Prints one JSON line per query and a final summary line.
"""

import argparse
import json
import os
import sys
import time

import duckdb

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.1")
    ap.add_argument("--cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))))
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    import __ray_entry__ as entry

    qs, osql = entry.queries(), entry.oracle_sql()
    names = [
        n for n in qs
        if n.startswith(("tpch_", "shared_scan", "multi_agg_scan"))
        and not n.endswith("_storage_triple")  # writes two lakes per rep —
        # a storage-independence check, not a comparable query timing
        and n != "tpch_q1_orc_lake"  # likewise: lake write dominates
    ]

    con = duckdb.connect()
    con.execute(f"SET threads = {args.cpus}")
    for t in TABLES:
        p = f"{args.sf}/{t}.parquet"
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    # one untimed warm pass (page cache + Ray worker startup)
    qs[names[0]](args.sf)

    rows = []
    for name in names:
        eng = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            qs[name](args.sf)
            eng.append(time.perf_counter() - t0)
        duck = None
        if name in osql:
            dt = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                con.execute(osql[name]).fetchdf()
                dt.append(time.perf_counter() - t0)
            duck = sorted(dt)[len(dt) // 2]
        med = sorted(eng)[len(eng) // 2]
        rec = {"query": name, "engine_sec": round(med, 3),
               "duckdb_sec": None if duck is None else round(duck, 3),
               "ratio": None if not duck else round(med / duck, 2)}
        rows.append(rec)
        print(json.dumps(rec), flush=True)
    tot_e = sum(r["engine_sec"] for r in rows)
    tot_d = sum(r["duckdb_sec"] for r in rows if r["duckdb_sec"])
    try:
        la = os.getloadavg()
        load = {"loadavg_1m": round(la[0], 2), "loadavg_5m": round(la[1], 2)}
    except OSError:
        load = {}
    print(json.dumps({"metric": "tpch_composite", "n_queries": len(rows),
                      "engine_total_sec": round(tot_e, 2),
                      "duckdb_total_sec": round(tot_d, 2),
                      "sf": args.sf, "num_cpus": args.cpus, "load": load}))
    ray.shutdown()


if __name__ == "__main__":
    main()
