#!/usr/bin/env python3
"""Serving-tier benchmark: one workload on all three backends per run.

    python3 perfbench/run.py --workload write_mix --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. Builds perfbench/ (with the checkout's
src/) into $CARGO_TARGET_DIR or .bench_build, generates the workload's
stream from --seed, serves it on kdtree, zdtree and bdltree (one process
each, so memory is per backend), checks the answers, and prints one JSON
object as the last stdout line. --trace 0 reports the end-to-end metrics;
--trace 1 runs the per-layer pass and also writes a Chrome trace under the
build directory. README.md says why each workload exists.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BACKENDS = ("kdtree", "zdtree", "bdltree")
WORKLOAD_N = {"write_mix": 50000, "read_large": 1000000}
DEADLINE_S = 170  # the whole run, build excluded

# (name, unit, better, bound): what a client of the service sees.
END_TO_END = [("setup_s", "s", "lower", 0.25)]
for _b in BACKENDS:
    END_TO_END += [
        (f"ops_per_s.{_b}", "1/s", "higher", 0.25),
        (f"lat_p50_ms.{_b}", "ms", "lower", 0.25),
        (f"lat_p90_ms.{_b}", "ms", "lower", 0.25),
        (f"rss_p50_mb.{_b}", "MB", "lower", 0.25),
    ]

# Per-backend layer metrics: (name, unit, better). Emitted by `pbench trace`.
_LAYER = [
    ("ingest.submit_us", "us", "lower"),
    ("ingest.spins_per_batch", "count", "lower"),
]
for _st in ("queue_wait", "route", "lane_wait", "execute_write",
            "merge", "fulfil", "reclaim"):
    _LAYER += [(f"stage.{_st}.p50_us", "us", "lower"),
               (f"stage.{_st}.p99_us", "us", "lower")]
_LAYER += [
    ("reclaim.retired_per_kop", "count", "lower"),
    ("reclaim.limbo_end", "count", "lower"),
    ("proc.cpu_per_wall", "ratio", "lower"),
    ("proc.minor_faults_per_kop", "count", "lower"),
    ("proc.ctx_switches_per_kop", "count", "lower"),
    ("cache.hit_frac", "frac", "higher"),
    ("engine.ops_per_s", "1/s", "higher"),
    ("engine.phases_per_batch", "count", "lower"),
    ("engine.self_us_per_batch", "us", "lower"),
    ("serving_tax", "ratio", "higher"),
    ("index.insert_us", "us", "lower"),
    ("index.erase_us", "us", "lower"),
    ("index.knn_us", "us", "lower"),
    ("index.range_us", "us", "lower"),
    ("index.ball_us", "us", "lower"),
    ("raw.build_ms", "ms", "lower"),
    ("raw.insert_us", "us", "lower"),
    ("raw.erase_us", "us", "lower"),
    ("raw.knn_us", "us", "lower"),
]
# Harness metrics: the mean over the backends' traced runs.
_HARNESS = [
    ("trace.overhead_frac", "frac", "lower"),
    ("telemetry.stats_cost_frac", "frac", "lower"),
]
PER_LAYER = [(f"{n}.{b}", u, bt) for b in BACKENDS for n, u, bt in _LAYER]
PER_LAYER += _HARNESS


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"run.py: {msg}")
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir, jobs):
    """Configures (once) and builds pbench; returns its path."""
    out = os.path.join(bdir, "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    cmd = ["cmake", "--build", out, "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return os.path.join(out, "pbench")


def run_child(cmd, env, deadline):
    """Runs one pbench process to completion; returns its last-line JSON."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail(f"out of time before {' '.join(cmd[1:4])}")
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if p.returncode != 0 or not p.stdout.strip():
        fail(f"exit {p.returncode}: {' '.join(cmd)}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    except OSError:
        pass
    return "unknown"


def src_digest():
    """sha256 over src/: identifies the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_N))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "query",
                                       "query_service.h")):
        fail("no library sources under src/ next to perfbench/", 2)

    allowed = sorted(os.sched_getaffinity(0))
    bdir = build_dir()
    exe = build(bdir, len(allowed))
    deadline = time.monotonic() + DEADLINE_S
    pinned = allowed[-1:]  # one CPU: README.md says why
    os.sched_setaffinity(0, pinned)  # inherited by every pbench process
    env = dict(os.environ, OMP_NUM_THREADS=str(len(pinned)))
    per_backend = args.seconds / len(BACKENDS)

    os.makedirs(os.path.join(bdir, "streams"), exist_ok=True)
    stream = os.path.join(bdir, "streams",
                          f"{args.workload}_{args.seed}_{os.getpid()}.bin")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    results = {}
    traces = {b: os.path.join(bdir, "streams", f"trace_{b}_{os.getpid()}.json")
              for b in BACKENDS} if args.trace else {}
    try:
        run_child([exe, "gen", *common, "--seconds", str(per_backend),
                   "--out", stream], env, deadline)
        for b in BACKENDS:
            cmd = [exe, "trace" if args.trace else "serve", *common,
                   "--backend", b, "--seconds", str(per_backend),
                   "--stream", stream]
            if args.trace:
                cmd += ["--trace-out", traces[b]]
            results[b] = run_child(cmd, env, deadline)
        events = []
        for pid, b in enumerate(traces, start=1):
            with open(traces[b]) as f:
                for ev in json.load(f)["traceEvents"]:
                    ev["pid"] = pid
                    events.append(ev)
    finally:
        for path in [stream, *traces.values()]:
            if os.path.exists(path):
                os.remove(path)

    stamp = {
        "workload": args.workload, "seed": args.seed,
        "n": WORKLOAD_N[args.workload], "seconds": args.seconds,
        "omp_num_threads": env["OMP_NUM_THREADS"], "nproc": len(allowed),
        "affinity": pinned, "cpu": cpu_model(),
        "git_sha": git_sha(), "src_sha256": src_digest(),
        **results[BACKENDS[0]]["build"],
    }
    print("# stamp " + json.dumps(stamp, sort_keys=True))

    attempted = sum(int(r["attempted"]) for r in results.values())
    failed = sum(int(r["failed"]) for r in results.values())
    metrics = {}
    if args.trace:
        for b in BACKENDS:
            got = results[b]["metrics"]
            for name, unit, _ in _LAYER:
                metrics[f"{name}.{b}"] = metric(got.get(name), unit)
            log(f"{b}: serving_tax {got['serving_tax']:.4g} = service "
                f"{got['serving_tax.service_ops_per_s']:.1f} ops/s / engine "
                f"{got['engine.ops_per_s']:.1f} ops/s")
        for name, unit, _ in _HARNESS:
            metrics[name] = metric(statistics.mean(
                results[b]["metrics"][name] for b in BACKENDS), unit)
        merged = os.path.join(bdir, "traces",
                              f"{args.workload}_seed{args.seed}.json")
        os.makedirs(os.path.dirname(merged), exist_ok=True)
        with open(merged, "w") as f:
            json.dump({"traceEvents": events, "otherData": stamp}, f)
        print(f"# trace {merged}")
    else:
        # pbench serve reports timings at the reference machine speed and
        # also as measured (README.md, "Machine speed").
        metrics["setup_s"] = metric(
            sum(results[b]["setup_s"] for b in BACKENDS), "s")
        for b in BACKENDS:
            r = results[b]
            metrics[f"ops_per_s.{b}"] = metric(r["ops_per_s"], "1/s")
            metrics[f"lat_p50_ms.{b}"] = metric(r["lat_p50_ms"], "ms")
            metrics[f"lat_p90_ms.{b}"] = metric(r["lat_p90_ms"], "ms")
            metrics[f"rss_p50_mb.{b}"] = metric(r["rss_p50_mb"], "MB")
            raw = ", ".join(f"{k} {v:.5g}" for k, v in r["measured"].items())
            print(f"# {b}: machine speed {r['speed']:.3f} of reference; "
                  f"as measured: {raw}")
            print(f"# {b}: {int(r['lat_samples'])} latency samples "
                  f"(p99 {r['lat_p99_ms']:.4g} ms), {int(r['checked'])} "
                  f"responses checked against the reference")
    for name, m in metrics.items():
        v = m["value"]
        shown = "absent" if v is None else f"{v:.6g}"
        print(f"{name} {shown} {m['unit']}")
    print(f"failed_frac {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
