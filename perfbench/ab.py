#!/usr/bin/env python3
"""Paired A/B of two commits on the serving-tier benchmark.

    python3 perfbench/ab.py --base add0eed --workload write_mix --pairs 10

The base commit's tree is exported with `git archive` into a directory
outside the repository (--workdir, default a fresh temporary directory) and
this checkout's perfbench/ and BENCHMARK.json are copied over it, so both
sides run identical benchmark code for run_seconds from BENCHMARK.json. The
head side is this checkout's working tree. Pair i runs both sides with seed
--seed0 + i, alternating which side goes first; --held-out-seed adds one
more pair on a seed kept out of tuning, reported on its own row.

A run that crashes, or whose answers are wrong, contributes no metrics: its
pair is left out of every comparison, and it is counted against its side.

For each (metric, workload) it prints each side's median and quartiles, the
share of pairs the head won (ties count for neither), and a verdict:
  improved    at least 10 pairs, head won >= 90% of them, and the medians
              differ by more than the base runs' interquartile range
  regressed   head median worse than base by more than the metric's bound
  unresolved  a side's spread (IQR / median) exceeds the bound, unless every
              head run beats, or loses to, every base run
  within      none of the above
No metric is `improved` while the head has more failed runs or failed
requests than the base. Per-layer metrics (--trace 1) have no bound: only
improved / worse / within.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def export_tree(sha, dest):
    """Writes commit `sha` of this repository to `dest` plus this
    checkout's benchmark files; returns `dest`."""
    if not os.path.isdir(os.path.join(dest, "src")):
        os.makedirs(dest, exist_ok=True)
        blob = subprocess.run(["git", "-C", ROOT, "archive", sha],
                              stdout=subprocess.PIPE, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(dest)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return dest


def run_side(tree, workload, seed, args):
    """Runs one side once; returns its correctness, failures and metrics
    (no metrics when the run crashed or answered wrongly)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = None
    if p.returncode != 0 or not out or not out.get("correct"):
        print(f"  run failed: {tree} seed {seed} (exit {p.returncode})",
              file=sys.stderr)
    if not out:
        return {"correct": False, "failed": 0, "metrics": {}}
    ok = p.returncode == 0 and bool(out.get("correct"))
    return {"correct": ok,
            "failed": int(out.get("failed", 0)),
            "metrics": ({k: v["value"] for k, v in out["metrics"].items()}
                        if ok else {})}


def failures(runs):
    """(runs crashed or wrong, failed requests) over one side's runs."""
    return (sum(1 for r in runs if not r["correct"]),
            sum(r["failed"] for r in runs))


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or not med:
        return 0.0, med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(med), med, q1, q3


def verdict(base, head, better, bound, may_improve):
    sign = 1 if better == "higher" else -1
    pairs = [(b, h) for b, h in zip(base, head)]
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    sp_b, med_b, q1_b, q3_b = spread(base)
    sp_h, med_h, _, _ = spread(head)
    worse_by = sign * (med_b - med_h) / abs(med_b) if med_b else 0.0
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    all_worse = max(sign * h for h in head) < min(sign * b for b in base)
    clear = len(pairs) >= 10 and abs(med_h - med_b) > (q3_b - q1_b)
    if clear and wins >= 0.9 * len(pairs) and may_improve:
        v = "improved"
    elif bound is None:
        v = "worse" if clear and len(pairs) - wins >= 0.9 * len(pairs) else "within"
    elif max(sp_b, sp_h) > bound and not (all_better or all_worse):
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "within"
    return wins, v


def fmt_side(vals):
    _, med, q1, q3 = spread(vals)
    return f"{med:.5g} [{q1:.4g}, {q3:.4g}]"


def report(workload, runs, specs, label):
    fail_b, fail_h = failures(runs["base"]), failures(runs["head"])
    may_improve = fail_h[0] <= fail_b[0] and fail_h[1] <= fail_b[1]
    print(f"\n== {workload} ({label}, {len(runs['base'])} pairs) ==")
    print(f"runs crashed or wrong / failed requests: base {fail_b[0]} / "
          f"{fail_b[1]}, head {fail_h[0]} / {fail_h[1]}"
          + ("" if may_improve else " -- head fails more: no `improved`"))
    print(f"{'metric':34} {'base median [q1, q3]':30} "
          f"{'head median [q1, q3]':30} {'delta':>8} {'won':>6}  verdict")
    names = sorted({n for side in runs.values() for r in side
                    for n in r["metrics"]})
    if not names:
        print("no run gave metrics")
    for name in names:
        pairs = [(b["metrics"].get(name), h["metrics"].get(name))
                 for b, h in zip(runs["base"], runs["head"])]
        pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
        if not pairs:
            seen = {side: [r["metrics"][name] for r in runs[side]
                           if r["metrics"].get(name) is not None]
                    for side in ("base", "head")}
            print(f"{name:34} " + ", ".join(
                f"{side} " + (fmt_side(v) if v else "absent")
                for side, v in seen.items()))
            continue
        base = [b for b, _ in pairs]
        head = [h for _, h in pairs]
        better, bound = specs.get(name, ("lower", None))
        wins, v = verdict(base, head, better, bound, may_improve)
        med_b = statistics.median(base)
        delta = (statistics.median(head) - med_b) / abs(med_b) if med_b else 0
        print(f"{name:34} {fmt_side(base):30} {fmt_side(head):30} "
              f"{delta:+8.1%} {wins:>3}/{len(base):<2}  {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--held-out-seed", type=int, default=None)
    ap.add_argument("--workdir", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    args.seconds = bench["run_seconds"]
    specs = {m["name"]: (m["better"], m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}

    workdir = args.workdir or tempfile.mkdtemp(prefix="pargeo-ab-")
    if os.path.commonpath([os.path.abspath(workdir), ROOT]) == ROOT:
        sys.exit("ab.py: --workdir must be outside the repository")
    trees = {"base": export_tree(args.base,
                                 os.path.join(workdir, f"base-{args.base}"))}
    trees["head"] = ROOT
    print(f"base {args.base}: {trees['base']}\nhead: working tree {ROOT}")

    for workload in args.workload:
        tuned = {"base": [], "head": []}
        held = {"base": [], "head": []}
        seeds = [(args.seed0 + i, tuned) for i in range(args.pairs)]
        if args.held_out_seed is not None:
            seeds.append((args.held_out_seed, held))
        for i, (seed, into) in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                into[side].append(run_side(trees[side], workload, seed,
                                           args))
            print(f"  {workload} seed {seed}: {' then '.join(order)} done",
                  file=sys.stderr)
        out = os.path.join(workdir, f"ab_{workload}_trace{args.trace}.json")
        with open(out, "w") as f:
            json.dump({"base": args.base, "head": "working tree",
                       "seeds": [s for s, _ in seeds], "tuned": tuned,
                       "held_out": held}, f)
        print(f"raw values: {out}")
        report(workload, tuned, specs, "tuning seeds")
        if held["base"]:
            report(workload, held, specs,
                   f"held-out seed {args.held_out_seed}")


if __name__ == "__main__":
    main()
