"""Steadiness check: run each workload repeatedly and compare spreads to bounds.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workload cli-docs
    python3 perfbench/steady.py --runs 10 --sets 2        # also compare two sets

Each run is ``perfbench/run.py`` with a new seed and the run length of
BENCHMARK.json. Per end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound; a spread under a third of
the bound is steady. With ``--sets 2`` it also prints how far the
second set's median moved from the first's, in the metric's worse
direction, against the bound. Runs whose environment (interpreter,
backend, sources, core count) differs are refused, so figures from
different backends are never pooled. The summary is written to
``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAME_ENV = ("interpreter", "backend", "STONEKIT_PURE", "STONE_MAX_LATTICE", "nproc", "src_sha256")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace0.json"), encoding="utf-8") as fh:
        env = json.load(fh)["env"]
    return result, env, elapsed


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    env0 = None
    summary = {}
    ok = True
    for name in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                result, env, elapsed = run_once(name, seed, bench["run_seconds"])
                picked = {k: env[k] for k in SAME_ENV}
                if env0 is None:
                    env0 = picked
                elif picked != env0:
                    raise SystemExit(f"environment changed between runs: {env0} vs {picked}")
                runs.append({"seed": seed, "elapsed_s": elapsed, **result})
                print(f"{name} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
            sets.append(runs)
        rows = []
        for m in metrics:
            per_set = [[r["metrics"][m["name"]]["value"] for r in runs] for runs in sets]
            med, q1, q3, sp = spread(per_set[0])
            row = {"metric": m["name"], "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                   "spread": sp, "bound": m["bound"], "steady": sp < m["bound"] / 3}
            if len(per_set) > 1:
                m2 = statistics.median(per_set[1])
                worse = (m2 - med) / med if m["better"] == "lower" else (med - m2) / med
                row["drift"] = worse
                row["drift_ok"] = worse <= m["bound"]
                ok &= row["drift_ok"]
            rows.append(row)
            ok &= row["steady"] or m["name"] == "setup_s"
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= correct and len(shares) == 1
        summary[name] = {"rows": rows, "failed_shares": sorted(shares), "correct": correct,
                         "runs": [r for runs in sets for r in runs]}
        print(f"\n{name}: correct={correct} failed shares={sorted(shares)}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}")
        for row in rows:
            line = (f"  {row['metric']:<12} {row['median']:>12.5g} {row['q1']:>12.5g} {row['q3']:>12.5g} "
                    f"{row['spread']:>8.4f} {row['bound']:>6} {row['bound'] / 3:>8.4f}"
                    f" {'steady' if row['steady'] else 'WIDE'}")
            if "drift" in row:
                line += f"  drift {row['drift']:+.4f} {'ok' if row['drift_ok'] else 'WORSE'}"
            print(line)
        print(flush=True)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env0, "workloads": summary}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
