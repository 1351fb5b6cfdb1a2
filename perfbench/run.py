#!/usr/bin/env python3
"""RLPlanner benchmark: builds perfbench, runs one workload, prints metrics.

    python3 perfbench/run.py --workload sa_large|rl_train|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is built from source
into $CARGO_TARGET_DIR (default .bench_build) with perfbench/CMakeLists.txt.
Each round of the workload runs in a fresh perfbench process; rounds repeat
until about --seconds have passed (at least MIN_ROUNDS of each kind). The last
stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from plain
rounds. --trace 1 alternates plain and traced rounds and reports the
per-layer metrics. README.md defines every metric and workload. The exit
code is 0 only when every operation succeeded and every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sa_large", "rl_train", "serve_mix")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 60
# Rounds stop being started once this much time has passed, whatever
# --seconds asks for, so a run ends inside its 180 s limit.
HARD_STOP_S = 100

# glibc's malloc raises its mmap and trim thresholds the first time a large
# mmapped block is freed. Before that, every allocation above 128 KiB is a
# fresh mmap and the heap top is trimmed on free, which makes
# BumpAssigner::assign 2.7-3x slower; whether and when a process crosses
# over depends on what it ran before. Pinning the thresholds at their
# ceiling gives every round the long-running-process allocator regime, so
# timings do not depend on job order or on the seed's die sizes.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=67108864")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "jobs/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "peak_rss_mb": "MiB",
    "cost": "objective",
}

PER_LAYER_UNITS = {
    "bump.assign_calls": "count",
    "bump.assign_s": "s",
    "bump.assign_us_mean": "us",
    "sa.proposals": "count",
    "sa.evaluations": "count",
    "sa.legal_ratio": "ratio",
    "sa.accept_ratio": "ratio",
    "sa.unattributed_s": "s",
    "sa.evals_per_s": "evals/s",
    "sa.cost": "objective",
    "thermal.incremental.queries": "count",
    "thermal.incremental.query_s": "s",
    "thermal.batch.candidates": "count",
    "thermal.batch_s": "s",
    "thermal.truth.solves": "count",
    "thermal.truth_s": "s",
    "thermal.characterize.footprints": "count",
    "thermal.characterize_s": "s",
    "rl.env_steps": "count",
    "rl.episodes": "count",
    "rl.dead_end_ratio": "ratio",
    "rl.collect_s": "s",
    "rl.update_s": "s",
    "rl.thermal_s": "s",
    "rl.updates_skipped": "count",
    "rl.steps_per_s": "steps/s",
    "rl.cost": "objective",
    "serve.queue_wait_p90_s": "s",
    "serve.run_p50_s": "s",
    "serve.overhead_p50_s": "s",
    "serve.cache.hits": "count",
    "serve.cache.misses": "count",
    "proc.minor_faults": "count",
    "proc.cpu_s": "s",
    "unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
    "host.slowdown": "ratio",
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run_round(binary, workload, seed, traced):
    cmd = [binary, f"--workload={workload}", f"--seed={seed}"]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def p90(values):
    """R-7 sample quantile, as util/stats.h quantile computes it."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(plain):
    walls = [r["wall_s"] for r in plain]
    legs = plain[0]["legs"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(walls),
        "jobs_per_s": statistics.median(
            len(r["latencies_s"]) / r["wall_s"] for r in plain),
        "job_latency_p50_s": statistics.median(
            statistics.median(r["latencies_s"]) for r in plain),
        "job_latency_p90_s": statistics.median(
            p90(r["latencies_s"]) for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "cost": statistics.geometric_mean([leg["cost"] for leg in legs]),
    }


def per_layer(plain, traced):
    def med(name):
        return statistics.median(r["layers"].get(name, 0.0) for r in traced)

    legs = plain[0]["legs"]
    out = {}
    for tag, rate in (("sa", "sa.evals_per_s"), ("rl", "rl.steps_per_s")):
        mine = [leg for leg in legs if leg["leg"] == tag]
        work = sum(leg["work"] for leg in mine)
        out[rate] = statistics.median(
            ratio(work, sum(leg["seconds"] for leg in r["legs"]
                            if leg["leg"] == tag) / r["slowdown"])
            for r in plain)
        out[f"{tag}.cost"] = (
            statistics.geometric_mean([leg["cost"] for leg in mine])
            if mine else 0.0)
    for name in PER_LAYER_UNITS:
        if name not in out:
            out[name] = med(name)
    out["bump.assign_us_mean"] = 1e6 * ratio(med("bump.assign_s"),
                                             med("bump.assign_calls"))
    out["sa.legal_ratio"] = ratio(med("sa.evaluations"), med("sa.proposals"))
    out["sa.accept_ratio"] = ratio(
        med("sa.accepted"), med("sa.accepted") + med("sa.rejected"))
    out["rl.dead_end_ratio"] = ratio(med("rl.dead_ends"), med("rl.episodes"))
    out["proc.minor_faults"] = statistics.median(
        r["minor_faults"] for r in plain)
    out["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    out["trace.overhead_share"] = (
        statistics.median(r["wall_s"] for r in traced) /
        statistics.median(r["wall_s"] for r in plain) - 1.0)
    out["host.slowdown"] = statistics.median(
        r["slowdown"] for r in plain + traced)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    plain, traced = [], []
    start = time.monotonic()
    try:
        while True:
            want_traced = bool(args.trace) and len(traced) < len(plain)
            rnd = run_round(binary, args.workload, args.seed, want_traced)
            (traced if want_traced else plain).append(rnd)
            log(f"{'traced' if want_traced else 'plain'} round: "
                f"setup {rnd['setup_s']:.3f} s, wall {rnd['wall_s']:.3f} s "
                f"(raw {rnd['wall_raw_s']:.3f} s, host slowdown "
                f"{rnd['slowdown']:.3f}), {len(rnd['failures'])} failure(s)")
            elapsed = time.monotonic() - start
            enough = (len(plain) >= MIN_ROUNDS and
                      (not args.trace or len(traced) >= MIN_ROUNDS))
            # Stop at the round boundary nearest to --seconds.
            half_round = elapsed / (len(plain) + len(traced)) / 2
            if elapsed >= HARD_STOP_S or (
                    enough and elapsed + half_round >= args.seconds):
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(f"round failed: {e}")
        return 1

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed_ops = set()  # (round index, operation)
    for i, r in enumerate(rounds):
        for f in r["failures"]:
            failed_ops.add((i, f["op"]))
            log(f"FAILED round {i} {f['op']}: {f['why']}")
    # Outputs are a pure function of the seed: every round must reproduce
    # the first plain round's legs exactly, traced rounds included.
    reference = {f"{leg['job']}/{leg['leg']}": leg["digest"]
                 for leg in plain[0]["legs"]}
    for i, r in enumerate(rounds[1:], start=1):
        for leg in r["legs"]:
            op = f"{leg['job']}/{leg['leg']}"
            if reference.get(op) != leg["digest"]:
                failed_ops.add((i, op))
                log(f"FAILED round {i} {op}: {leg['digest']} differs from "
                    f"the first plain round's {reference.get(op)}")

    if args.trace:
        metrics = per_layer(plain, traced)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(plain)
        units = END_TO_END_UNITS
    result = {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failed_ops else 1


if __name__ == "__main__":
    sys.exit(main())
