#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload fig9-batch|wire-hot|service-cold \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under perfbench/, with CMake, from ../src; a checkout without
the sources fails to build and exits non-zero without a result. The last
line of standard output is the result object {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A per-layer metric whose layer the workload does not
exercise is reported as 0 (see README.md for which workload moves which).

With --trace 0 the seconds are split over LAYOUTS processes, each with its
own randomised address-space layout, and each metric is the trimmed mean
over them: one layout can make the VM 30% faster or slower than another,
and short processes sample more of the host's slow and fast stretches.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig9-batch", "wire-hot", "service-cold")
LAYOUTS = 10
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# The per-layer metrics each workload measures itself (README.md gives the
# reasons); every other per-layer metric of BENCHMARK.json is 0 there.
COMPILE_LAYERS = (
    "lang.parse_us", "lang.resolve_us", "perceus.pipeline_us", "layout.us",
    "bytecode.compile_us", "bytecode.instrs", "peephole.us",
    "peephole.instrs", "peephole.fused", "peephole.elided")
PROGRAMS = ("rbtree", "rbtree-ck", "deriv", "nqueens", "cfold")
COMMON_LAYERS = COMPILE_LAYERS + (
    "trace.overhead_frac", "host.nproc", "host.spin_ns_before",
    "host.spin_ns_after", "failed_frac", "req_per_s", "latency_p50_ms",
    "latency_p99_ms", "host.ref_us") + tuple(f"run_s.{p}" for p in PROGRAMS)
PER_PROGRAM = (
    "perceus.static_rc_ops", "vm.dispatches", "vm.ns_per_dispatch",
    "vm.fused_ops", "heap.allocs", "heap.rc_ops", "heap.non_heap_rc_ops",
    "heap.reuse_hit_ratio", "heap.peak_bytes", "heap.ledger_residual")
SERVICE_LAYERS = (
    "service.queue_ms_p50", "service.run_ms_p50", "service.cache_hit_ratio",
    "service.compiles", "service.evictions", "service.retained_bytes_max")
NET_LAYERS = ("net.wire_ms_p50", "net.bad_requests", "net.dropped_responses")
MEASURED_LAYERS = {
    "fig9-batch": COMMON_LAYERS
    + tuple(f"{m}.{p}" for p in PROGRAMS for m in PER_PROGRAM)
    + ("heap.alloc_free_ns", "heap.dup_drop_ns", "heap.shared_dup_drop_ns",
       "vm.loop_ns_per_dispatch"),
    "wire-hot": COMMON_LAYERS + SERVICE_LAYERS + NET_LAYERS,
    "service-cold": COMMON_LAYERS + SERVICE_LAYERS,
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no perceus sources under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "perfbench"), bdir


def run_binary(binary, bdir, workload, seed, seconds, trace, extra=(),
               timeout=RUN_TIMEOUT_S):
    """Runs one process; returns (info lines, result object)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", ROOT]
    if trace:
        cmd += ["--trace-out", os.path.join(bdir, f"trace-{workload}.json")]
    cmd += list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def trimmed_mean(values):
    """The mean without the lowest and the highest value. Layouts put a
    process's fig9-batch times in clusters about 15% apart, and a median
    over ten processes jumped from one cluster to the next between runs."""
    v = sorted(values)
    return statistics.fmean(v[1:-1] if len(v) > 2 else v)


def run_workload(binary, bdir, workload, seed, seconds, trace, extra=()):
    """One measured run: a traced run is one process; an untraced one is
    LAYOUTS processes, each metric the trimmed mean over them."""
    if trace:
        return run_binary(binary, bdir, workload, seed, seconds, 1, extra)
    info, results = [], []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for _ in range(LAYOUTS):
        lines, r = run_binary(binary, bdir, workload, seed, seconds / LAYOUTS,
                              0, extra,
                              timeout=max(1, deadline - time.monotonic()))
        info += lines
        results.append(r)
    metrics = {
        name: {"value": trimmed_mean([r["metrics"][name]["value"]
                                      for r in results]),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()}
    return info, {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": metrics}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete(result, trace, spec):
    """Adds every declared metric the workload does not measure, as 0."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for m in names:
        metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    return result


def self_test(binary, bdir):
    """The benchmark's own check, at tiny size."""
    spec = declared()
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    def hashes(info):
        return {l for l in info if "input_hash=" in l}

    for w in WORKLOADS:
        check(set(MEASURED_LAYERS[w]) <= per_layer,
              f"{w}: measured layers are declared in BENCHMARK.json")
        info, r = run_workload(binary, bdir, w, 7, 2, 0)
        check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
              f"{w}: tiny run is correct")
        check(all(n in r["metrics"] and r["metrics"][n]["value"] > 0
                  for n in end_to_end),
              f"{w}: every end-to-end metric present and non-zero")
        hash1 = hashes(info)
        info, r = run_workload(binary, bdir, w, 7, 1, 1)
        check(r["correct"], f"{w}: traced run is correct")
        missing = [n for n in MEASURED_LAYERS[w] if n not in r["metrics"]]
        check(not missing, f"{w}: every per-layer metric it measures "
              f"is present {missing if missing else ''}")
        check(hash1 == hashes(info) and len(hash1) == 1,
              f"{w}: the same seed gives the same input hash")
        info, _ = run_binary(binary, bdir, w, 8, 0.5, 0)
        check(hashes(info) != hash1,
              f"{w}: another seed gives another input hash")
        _, r = run_binary(binary, bdir, w, 7, 0.5, 0, ["--corrupt-oracle"])
        check(r["failed"] > 0 and not r["correct"],
              f"{w}: a wrong expected value is counted as failed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        binary, bdir = build()
        if args.self_test:
            return self_test(binary, bdir)
        info, result = run_workload(binary, bdir, args.workload, args.seed,
                                    args.seconds, args.trace)
        result = complete(result, args.trace, declared())
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"error: {e}")
        return 1
    for line in info:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
