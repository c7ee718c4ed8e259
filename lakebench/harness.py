"""The lake-lifecycle benchmark: one private Ray session driven from this
process, one client running operations back to back.

    python3 lakebench/run.py --workload {encode,scan,exchange} --seed N --seconds S --trace {0,1}

A run sets up (generates every input from the seed, starts Ray with its
default settings, encodes the scan lake and the value-count lake), then goes
through the phases in lifecycle order: its own phase as whole rounds until
``--seconds`` have passed, each other phase for a fixed number of rounds,
for its figures.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics (see spans.py). The last line of standard output is the
JSON result; everything else goes to standard error. Start it through
``run.py``, which picks an interpreter that has the dependencies.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".lakebench_tmp")
TRACE_DIR = os.path.join(ROOT, ".lakebench_trace")
OBJECT_STORE_BYTES = 512 << 20
REAP_GRACE_S = 10.0
# rounds of another phase's operations a run makes for its figures
PASSES = {"encode": 5, "scan": 5, "exchange": 1}
WORKLOADS = ("encode", "scan", "exchange")  # lifecycle.PHASES


def process_start_time() -> float:
    """Wall-clock time this process started (an ``exec`` keeps it), so the
    set-up time includes the launcher and interpreter start."""
    try:
        with open("/proc/self/stat") as f:
            ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/stat") as f:
            btime = next(int(line.split()[1]) for line in f if line.startswith("btime"))
        return btime + ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, StopIteration):
        return time.time()


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


class ProcessWatch:
    """Samples the summed resident set size of this process and all its
    descendants (Ray's daemons and workers) and remembers every descendant
    it saw, so none can outlive the run unnoticed."""

    def __init__(self, interval: float = 0.5):
        import psutil

        self.psutil = psutil
        self.me = psutil.Process()
        self.interval = interval
        self.seen: dict[int, object] = {}
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="lakebench-rss", daemon=True)

    def sample(self) -> None:
        total = self.me.memory_info().rss
        try:
            kids = self.me.children(recursive=True)
        except self.psutil.Error:
            kids = []
        for p in kids:
            p = self.seen.setdefault(p.pid, p)
            try:
                total += p.memory_info().rss
            except self.psutil.Error:
                pass
        self.peak_bytes = max(self.peak_bytes, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> None:
        self.sample()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def reap(self, grace: float) -> list[str]:
        """Wait up to ``grace`` seconds for every process seen to end, then
        kill what is left; returns a description of each one killed."""
        self.sample()
        alive = []
        for p in self.seen.values():
            try:
                if p.is_running() and p.status() != self.psutil.STATUS_ZOMBIE:
                    alive.append(p)
            except self.psutil.Error:
                pass
        _gone, alive = self.psutil.wait_procs(alive, timeout=grace)
        left = []
        for p in alive:
            try:
                left.append(f"pid {p.pid} ({' '.join(p.cmdline())[:120]})")
                p.kill()
            except self.psutil.Error:
                pass
        self.psutil.wait_procs(alive, timeout=5)
        return left


def start_ray(ncpu: int, temp_dir: str) -> None:
    import logging

    import ray

    ray.init(
        address="local",
        num_cpus=ncpu,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=temp_dir,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def import_program():
    """Import the package from this checkout, never from elsewhere."""
    sys.path.insert(0, ROOT)
    import orc_format_ray

    where = os.path.dirname(os.path.abspath(orc_format_ray.__file__))
    if os.path.dirname(where) != ROOT:
        raise ImportError(f"orc_format_ray imported from {where}, not from {ROOT}")


def worker_starts(ray_dir: str) -> int:
    """Python worker processes the Ray session has started so far: each
    writes its own core-worker log."""
    return len(glob.glob(os.path.join(ray_dir, "session_latest", "logs", "python-core-worker-*.log")))


def end_to_end(lc, setup_s: float, peak_bytes: int) -> dict:
    m = lc.median
    mtok = lc.tokens / 1e6
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_bytes / 2**20, "MB"),
        "encode_mtok_per_s": (mtok / m("encode"), "Mtok/s"),
        "resume_s": (m("resume"), "s"),
        "encoded_bytes_per_token": (lc.bytes_per_token, "B/token"),
        "decode_mtok_per_s": (mtok / m("decode"), "Mtok/s"),
        "projected_scan_s": (m("projected_scan"), "s"),
        "filtered_scan_s": (m("filtered_scan"), "s"),
        "pushdown_agg_s": (m("pushdown_agg"), "s"),
    }


def _one_line(e: BaseException) -> str:
    """The exception's type and cause on one line. A Ray task error carries
    the worker's traceback as text; its last ``...Error: message`` line is
    the cause."""
    lines = [ln.strip() for ln in str(e).splitlines() if ln.strip()]
    causes = [ln for ln in lines if re.match(r"[\w.]+(Error|Exception)\b[^:]*: ", ln) and not ln.startswith("ray.")]
    return f"{type(e).__name__}: {(causes or lines or [''])[-1]}"[:400]


def main(argv: list[str]) -> int:
    t_start = process_start_time()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the result line must be the last line of stdout: send everything else,
    # Ray's native output included, to stderr
    sys.stdout.flush()
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    ncpu = cpu_count()
    run_dir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    watch = None
    ray_dir = None
    try:
        import_program()
        import lifecycle
        import ray  # noqa: F401  (puts its bundled psutil on sys.path)

        watch = ProcessWatch()
        watch.start()
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        # the system temp dir keeps Ray's unix socket paths short
        ray_dir = tempfile.mkdtemp(prefix="lakebench-ray-")
        start_ray(ncpu, ray_dir)
        lc = lifecycle.Lifecycle(os.path.join(run_dir, "work"), args.seed, ncpu, traced=bool(args.trace))
        lc.prepare()
    except Exception as e:  # set-up failure: one line naming the cause
        print(f"lakebench: set-up failed: {_one_line(e)} [interpreter {sys.executable}]", file=sys.stderr, flush=True)
        _teardown(watch, run_dir, ray_dir)
        return 1

    attempted = failed = 0
    correct = True

    def attempt(op: str, in_loop: bool = True) -> None:
        """Run one operation. Loop operations always count as attempted;
        any other counts only when it raises, so the failed share stays a
        property of the loop."""
        nonlocal attempted, failed, correct
        try:
            lc.run(op)
        except lifecycle.checks.CheckError as e:
            correct = False
            print(f"lakebench: WRONG OUTPUT {op}: {e}", file=sys.stderr, flush=True)
        except Exception as e:  # an operation's failure is counted, not fatal
            failed += 1
            attempted += 1
            print(f"lakebench: operation {op} failed: {_one_line(e)}", file=sys.stderr, flush=True)
            return
        attempted += in_loop

    setup_s = time.time() - t_start
    starts_before = worker_starts(ray_dir)
    measured_ops = 0
    # every phase in lifecycle order: this workload's phase as a closed loop
    # of whole rounds until --seconds have passed, the others for a fixed
    # number of rounds, for their figures (a plain run skips the phases
    # whose figures are per-layer only)
    t_measure = time.perf_counter()
    for phase in lifecycle.PHASES:
        if phase == args.workload:
            t_loop = time.perf_counter()
            rounds = 0
            while True:
                for op in lifecycle.PHASES[phase]:
                    attempt(op)
                rounds += 1
                if time.perf_counter() - t_loop >= args.seconds:
                    break
            loop_s = time.perf_counter() - t_loop
            measured_ops += rounds * len(lifecycle.PHASES[phase])
        elif args.trace or phase not in lifecycle.UNBOUNDED:
            for _ in range(PASSES[phase]):
                for op in lifecycle.PHASES[phase]:
                    if op not in lifecycle.LOOP_ONLY:
                        attempt(op, in_loop=False)
                        measured_ops += 1
    measure_s = time.perf_counter() - t_measure
    starts_per_op = (worker_starts(ray_dir) - starts_before) / measured_ops
    watch.sample()

    metrics: dict = {}
    try:
        if args.trace:
            import spans

            metrics = spans.per_layer(lc, TRACE_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}", starts_per_op)
        else:
            metrics = end_to_end(lc, setup_s, watch.peak_bytes)
    except Exception as e:
        print(f"lakebench: metrics could not be computed: {_one_line(e)}", file=sys.stderr, flush=True)
        traceback.print_exc(file=sys.stderr)
        _teardown(watch, run_dir, ray_dir)
        return 1
    for op, xs in sorted(lc.samples.items()):
        print(f"lakebench: {op}: {len(xs)} samples, median {statistics.median(xs):.4f} s, min {min(xs):.4f}, max {max(xs):.4f}", file=sys.stderr)
    print(
        f"lakebench: {args.workload} seed {args.seed}: {rounds} rounds in {loop_s:.1f} s, "
        f"set-up {setup_s:.1f} s, all phases {measure_s:.1f} s, {starts_per_op:.3f} worker starts per op, checks {lc.check_s:.1f} s, {ncpu} cpus, load {os.getloadavg()[0]:.2f}",
        file=sys.stderr,
        flush=True,
    )
    t_down = time.perf_counter()
    _teardown(watch, run_dir, ray_dir)
    print(f"lakebench: teardown {time.perf_counter() - t_down:.1f} s", file=sys.stderr, flush=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    result_out.write(json.dumps(result) + "\n")
    result_out.flush()
    return 0


def _teardown(watch, run_dir: str, ray_dir) -> None:
    """Stop Ray and every process it started; leftovers go to stderr."""
    try:
        import ray

        if ray.is_initialized():
            ray.shutdown()
    except Exception as e:
        print(f"lakebench: ray.shutdown failed: {_one_line(e)}", file=sys.stderr, flush=True)
    if watch is not None:
        watch.stop()
        for left in watch.reap(REAP_GRACE_S):
            print(f"lakebench: killed a process still alive {REAP_GRACE_S:.0f} s after Ray shut down: {left}", file=sys.stderr, flush=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    if ray_dir:
        shutil.rmtree(ray_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    # skip interpreter shutdown hooks: Ray is already down, its atexit
    # handlers have nothing left to do
    os._exit(code)
