#!/usr/bin/env python3
"""The repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name|all> [--seed n]
                             [--seconds s] [--trace 0|1]

Run from the root of a checkout. The first run builds the benchmark
and the repository libraries it links (release flags) into
.bench_build/. Every run checks its outputs against the references
in refs/ and prints, as the last stdout line, one JSON object:

    {"correct": bool, "attempted": n, "failed": n,
     "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end-to-end metrics below, with
--trace 1 the per-layer metrics (a layer a workload does not exercise
reads 0). Progress and tables go to stderr. The exit code is 0 only
when every output matched its reference.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import mean

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
TRACE_DIR = BUILD_DIR / "traces"
REFS = BENCH_DIR / "refs"
BINARY = BUILD_DIR / "perfbench"
# A child still running this long after the run's --seconds is stuck
# (see the CompileService note in README.md) and is killed, so a run
# cannot hang.
CHILD_GRACE_S = 60

# The six paper-grid views, run exactly as a user runs them.
VIEWS = ["fig7_speedup", "fig8_uops", "fig9_sensitivity",
         "table3_regions", "sec62_footprint", "sec63_width"]

# Claims must hold on the held-out seed as well as on the default.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9173

# (name, unit, better). Every workload prints every one of these.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "ratio", "higher"),
]

# (name, unit, better, workload that measures it). Other workloads
# print 0 for it: they do not exercise that layer.
PER_LAYER = (
    [(f"view.{v}_s", "s", "lower", "paper_views") for v in VIEWS]
    + [(f"jit.{stage}_s", "s", "lower", "paper_views")
       for stage in ["profile", "compile", "machine"]]
    + [(f"jit.pass.{p}_s", "s", "lower", "paper_views")
       for p in ["ssa", "sccp", "gvn", "dce", "simplify_cfg", "inline",
                 "unroll"]]
    + [
        ("jit.runs", "count", "lower", "paper_views"),
        ("profile.bytecodes", "count", "lower", "paper_views"),
        ("machine.uops.executed", "count", "lower", "paper_views"),
        ("timing.uops", "count", "lower", "paper_views"),
        ("driver.tasks", "count", "higher", "paper_views"),
        ("vm.ns_per_bytecode", "ns", "lower", "paper_views"),
        ("compile.us_per_instr", "us", "lower", "paper_views"),
        ("hw.codegen.lower_ms", "ms", "lower", "paper_views"),
        ("hw.machine.ns_per_uop", "ns", "lower", "paper_views"),
        ("hw.timing.ns_per_uop", "ns", "lower", "paper_views"),
        ("hw.timing.share", "ratio", "lower", "paper_views"),
        ("hw.machine.functional_only.ns_per_uop", "ns", "lower",
         "paper_views"),
        ("trace.overhead_share", "ratio", "lower", "paper_views"),
        ("fig7_err_pp", "pp", "lower", "paper_views"),
        ("timing.cycles", "count", "lower", "paper_views"),
        ("timing.ipc", "uops/cycle", "higher", "paper_views"),
        ("machine.region.commits", "count", "higher", "paper_views"),
        ("service.hit_share", "ratio", "higher", "compile_service"),
        ("service.hit_us.p50", "us", "lower", "compile_service"),
        ("service.miss_ms.compiled.p50", "ms", "lower",
         "compile_service"),
        ("service.miss_ms.compiled.p99", "ms", "lower",
         "compile_service"),
        ("service.miss_ms.coalesced.p50", "ms", "lower",
         "compile_service"),
        ("service.miss_ms.coalesced.p99", "ms", "lower",
         "compile_service"),
        ("service.keyfor_us.p50", "us", "lower", "compile_service"),
        ("service.compile_ms.mean", "ms", "lower", "compile_service"),
        ("service.compile_ms.p95", "ms", "lower", "compile_service"),
        ("service.queue.depth.p95", "count", "lower", "compile_service"),
        ("service.evictions", "count", "lower", "compile_service"),
        ("service.compiles", "count", "lower", "compile_service"),
        ("service.coalesced", "count", "higher", "compile_service"),
        ("service.rejected", "count", "lower", "compile_service"),
        ("service.p50_ms", "ms", "lower", "compile_service"),
        ("service.p99_ms", "ms", "lower", "compile_service"),
        ("service.p99_ms.whole_phase", "ms", "lower", "compile_service"),
        ("service.peak_p99_ms", "ms", "lower", "compile_service"),
        ("service.peak_backlog.max", "count", "lower", "compile_service"),
        ("generator.late_ms.p99", "ms", "lower", "compile_service"),
        ("contention.ns_per_uop", "ns", "lower", "contention"),
        ("contention.cell_ms.p50.counters", "ms", "lower", "contention"),
        ("contention.cell_ms.p50.hashtable", "ms", "lower",
         "contention"),
        ("contention.cell_ms.p50.mpmc_queue", "ms", "lower",
         "contention"),
        ("contention.compile_share", "ratio", "lower", "contention"),
        ("machine.abort.conflict", "count", "lower", "contention"),
        ("oracle.bisim.uops", "count", "lower", "contention"),
        ("contention.oracle_checks", "count", "higher", "contention"),
        ("runtime.resilience.backoff_steps", "count", "lower",
         "contention"),
        ("runtime.resilience.livelock_breaks", "count", "lower",
         "contention"),
        ("commit_share", "ratio", "higher", "contention"),
    ]
)
# commit_share is measured on paper_views' traced cells too.
SHARED_LAYER_METRICS = {"commit_share": {"paper_views", "contention"}}

# Telemetry counters summed over the six views' --json exports.
VIEW_COUNTERS = ["jit.runs", "profile.bytecodes", "machine.uops.executed",
                 "timing.uops", "driver.tasks"]


def layer_metrics_of(workload):
    """Per-layer metric names the workload itself measures."""
    return {name for name, _, _, owner in PER_LAYER
            if owner == workload
            or workload in SHARED_LAYER_METRICS.get(name, ())}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure and build the benchmark (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: {ROOT} holds no repository sources (src/); "
            "run from the root of a full checkout")
        sys.exit(2)
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target",
              "perfbench_all", "-j", str(nproc())]]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr).returncode
        except FileNotFoundError:
            log("perfbench: cmake not found")
            sys.exit(2)
        if rc != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)


def run_child(cmd, env, timeout_s):
    """Run a child process; return (exit code, stdout, resource usage).
    A child still running after timeout_s is killed."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage


def child_env():
    env = dict(os.environ)
    env["AREGION_JOBS"] = str(nproc())
    return env


class Run:
    """Tally of one benchmark run."""

    def __init__(self, seconds):
        self.timeout_s = seconds + CHILD_GRACE_S
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.peak_rss_mb = 0.0
        self.metrics = {}

    def problem(self, what, wrong_output=True):
        log(f"FAIL {what}")
        self.failed += 1
        if wrong_output:
            self.mismatches += 1

    def mode(self, mode, *args):
        """Run one mode of the benchmark binary and fold its tally
        into this run."""
        rc, out, usage = run_child([str(BINARY), mode, *map(str, args)],
                                   child_env(), self.timeout_s)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self.attempted += 1
            self.problem(f"perfbench {mode} exited {rc} without a result")
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.mismatches += result["mismatches"]
        for p in result["problems"][:20]:
            log(f"FAIL {p}")
        if rc != 0 and result["mismatches"] == 0:
            self.problem(f"perfbench {mode} exited {rc}")
        self.metrics.update(result["metrics"])
        return result


def load_ref(name):
    with open(REFS / name) as f:
        return json.load(f)


def run_view(run, view, json_dir):
    """Run one view and check its tables; return its host and CPU
    seconds (user + system, every thread)."""
    json_path = Path(json_dir) / f"{view}.json"
    start = time.perf_counter()
    rc, _, usage = run_child(
        [str(BUILD_DIR / "aregion" / "bench" / view),
         "--json", str(json_path)], child_env(), run.timeout_s)
    wall = time.perf_counter() - start
    run.peak_rss_mb = max(run.peak_rss_mb, usage.ru_maxrss / 1024.0)
    run.attempted += 1
    if rc != 0:
        run.problem(f"{view} exited {rc}")
    else:
        with open(json_path) as f:
            export = json.load(f)
        if export["tables"] != load_ref(f"views/{view}.json")["tables"]:
            run.problem(f"{view}: tables differ from refs/views/{view}.json")
    return wall, usage.ru_utime + usage.ru_stime


def paper_views(args, run):
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as json_dir:
        if not args.trace:
            run.mode("views-setup")
            # The views run round-robin, pass after pass, while the
            # next one (at its mean so far) still fits in --seconds;
            # every view runs at least once. A pass is the sum of the
            # per-view means, so a partial last pass still counts. Host
            # speed on a shared VM swings by a third from one second to
            # the next; each view runs only two to four times, and
            # over so few samples their mean is steadier than their
            # median or minimum.
            wall = {view: [] for view in VIEWS}
            cpu = {view: [] for view in VIEWS}
            start = time.perf_counter()
            for view in itertools.cycle(VIEWS):
                elapsed = time.perf_counter() - start
                if wall[view] and elapsed + mean(wall[view]) > args.seconds:
                    break
                w, c = run_view(run, view, json_dir)
                wall[view].append(w)
                cpu[view].append(c)
            run.metrics["wall_s"] = sum(mean(s) for s in wall.values())
            run.metrics["cpu_s"] = sum(mean(s) for s in cpu.values())
            return
        seconds = {view: run_view(run, view, json_dir)[0] for view in VIEWS}
        totals = {}
        for view in VIEWS:
            run.metrics[f"view.{view}_s"] = seconds[view]
            path = Path(json_dir) / f"{view}.json"
            if not path.is_file():
                continue
            with open(path) as f:
                counters = json.load(f)["telemetry"]["counters"]
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
    for stage in ["profile", "compile", "machine"]:
        run.metrics[f"jit.{stage}_s"] = totals.get(f"jit.{stage}_us", 0) / 1e6
    for p in ["ssa", "sccp", "gvn", "dce", "simplify_cfg", "inline",
              "unroll"]:
        run.metrics[f"jit.pass.{p}_s"] = (
            totals.get(f"jit.pass.{p}_us", 0) / 1e6)
    for key in VIEW_COUNTERS:
        run.metrics[key] = totals.get(key, 0)
    result = run.mode("views-trace", "--out", TRACE_DIR)
    if result:
        ref = load_ref("fig7_cells.json")["cells"]
        if result["outputs"].get("fig7_cells") != ref:
            run.problem("traced Figure 7 cells: cycles / retired uops / "
                        "checksums differ from refs/fig7_cells.json")


def compile_service(args, run):
    result = run.mode("service", "--seed", args.seed, "--seconds",
                      args.seconds, "--trace", int(args.trace),
                      "--out", TRACE_DIR)
    if not result:
        return
    ref = load_ref("service.json")["checksums"]
    oracle = result["outputs"].get("oracle", [])
    for i in range(0, len(oracle), 3):
        method, non_speculative, checksum = oracle[i:i + 3]
        if not non_speculative and checksum != ref[method]:
            run.problem(f"compile_service: m{method} compiles to "
                        f"{checksum}, refs/service.json has {ref[method]}")


def contention(args, run):
    result = run.mode("contention", "--seed", args.seed, "--seconds",
                      args.seconds, "--trace", int(args.trace),
                      "--out", TRACE_DIR)
    if not result:
        return
    ref = load_ref("contention.json")
    width = 2 + len(ref["fields"])
    cells = result["outputs"].get("cells", [])
    names = result["outputs"].get("workload_index", [])
    workloads = ref["workloads"]
    if not cells or len(cells) != width * len(names):
        run.problem("contention: malformed cell output")
        return
    # Only the default and held-out seeds' cells have reference counts.
    # Every cell of every seed is still checked against the
    # interpreter, both oracles and the run's first repetition.
    if args.seed not in ref["workload_seeds"]:
        log(f"contention: seed {args.seed} has no reference counts "
            f"(refs/contention.json covers seeds {ref['workload_seeds']})")
        return
    for i, wi in enumerate(names):
        seed, contexts, *counts = cells[i * width:(i + 1) * width]
        key = f"{workloads[wi]}@{contexts}"
        expected = ref["cells"].get(str(seed), {}).get(key)
        if counts != expected:
            run.problem(f"contention {key} governor seed {seed}: counts "
                        f"{counts} differ from refs/contention.json "
                        f"{expected}")


# The workloads, in BENCHMARK.json order.
WORKLOADS = {"paper_views": paper_views,
             "compile_service": compile_service,
             "contention": contention}


def run_workload(workload, args):
    run = Run(args.seconds)
    WORKLOADS[workload](args, run)
    if args.trace:
        declared = {name: unit for name, unit, _, _ in PER_LAYER}
        expected = layer_metrics_of(workload)
    else:
        declared = {name: unit for name, unit, _ in END_TO_END}
        expected = set(declared) - {"peak_rss_mb", "ok_share"}
        run.metrics["peak_rss_mb"] = run.peak_rss_mb
        run.metrics["ok_share"] = (
            (run.attempted - run.failed) / run.attempted
            if run.attempted else 0.0)
    measured = set(run.metrics) - {"peak_rss_mb", "ok_share"}
    if measured != expected:
        run.problem(f"{workload}: measured metrics {sorted(measured)} are "
                    f"not the declared {sorted(expected)}")
    metrics = {name: {"value": run.metrics.get(name, 0), "unit": unit}
               for name, unit in declared.items()}
    return {"correct": run.mismatches == 0,
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        log(f"== {name} (seed {args.seed}, {args.seconds} s, "
            f"trace {args.trace})")
        results[name] = run_workload(name, args)
        for metric, m in results[name]["metrics"].items():
            log(f"  {metric:42s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        log(f"traces and self-time tables: {TRACE_DIR}")

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
