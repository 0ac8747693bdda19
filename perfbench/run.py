"""Run one benchmark workload on the pure backend and print its result.

    python3 perfbench/run.py --workload t62-census --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``
and its per-layer metrics with ``--trace 1``. A fuller record, with the
environment, every operation's latency and any output problems, goes to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.

Timed run: set-up is measured in several fresh processes and in this
one; then whole rounds of the workload run until ``--seconds`` have
passed (at least one round). Traced run: one untraced round, then the
same round again with every stonekit layer traced; the difference is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")
SETUP_SAMPLES = 21  # set-up measurements per run: one here, the rest in fresh processes
STARTUP_SAMPLES = 5
CONFORMANCE_TAGS = ("T33", "T42", "T47", "C48", "C49", "L51", "C54", "T62")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (the inclusive method)."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the package sources, to tell builds apart without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "stonekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    from stonekit import _accel, lattice

    return {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "executable": sys.executable,
        "backend": _accel.backend_name(),
        "STONEKIT_PURE": os.environ.get("STONEKIT_PURE"),
        "STONE_MAX_LATTICE": os.environ.get("STONE_MAX_LATTICE"),
        "max_lattice": lattice.max_lattice_size(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def setup_probe(args) -> int:
    """Measure set-up (stonekit import plus inputs) in this fresh process."""
    import workloads

    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        workloads.WORKLOADS[args.workload].setup(args.seed, workdir)
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def child_seconds(argv: list[str]) -> float:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def startup_ms() -> float:
    """Median wall time of a fresh process that imports stonekit.cli."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import stonekit.cli"
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def round_record(rnd) -> dict:
    return {
        "index": rnd.index,
        "seconds": rnd.seconds,
        "ops": [[op.label, op.seconds, op.ok, op.error] for op in rnd.ops],
    }


def timed_run(workload, inputs, seconds: float) -> tuple[list, dict, dict]:
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(inputs, len(rounds)))
        if time.perf_counter() - start >= seconds:
            break
    rss = peak_rss_mb()
    # Every round repeats the same operations; one latency per operation
    # (its median over the rounds) keeps a single slow call from moving
    # the percentiles.
    per_op: dict[str, list[float]] = {}
    for rnd in rounds:
        for op in rnd.ops:
            per_op.setdefault(op.label, []).append(op.seconds)
    latencies = [statistics.median(v) for v in per_op.values()]
    metrics = {
        "wall_s": (statistics.median(r.seconds for r in rounds), "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_ms": (percentile(latencies, 0.5) * 1000.0, "ms"),
        "op_p90_ms": (percentile(latencies, 0.9) * 1000.0, "ms"),
    }
    return rounds, metrics, {"rounds": len(rounds), "operations": len(latencies)}


def traced_run(workload, inputs, stem: str) -> tuple[list, dict, dict]:
    import tracing

    plain = workload.run_round(inputs, 0)
    spans_dir = stem + ".spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(spans_dir)
    inputs["trace_dir"] = spans_dir
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = workload.run_round(inputs, 0, tracer)
    finally:
        undo()
    summaries = [tracer.summary()]
    tracer.write_spans(os.path.join(spans_dir, "main.spans.gz"))
    for child in inputs.get("trace_files", []):
        with open(child + ".json", encoding="utf-8") as fh:
            summaries.append(json.load(fh))
        os.remove(child + ".json")
    summary = tracing.merge(summaries)
    metrics = tracing.layer_metrics(summary)
    for tag in CONFORMANCE_TAGS:
        wall = sum((op.seconds for op in plain.ops if op.label == tag), 0.0)
        metrics[f"conformance.{tag}.wall_s"] = (wall, "s")
    metrics["cli.startup_ms"] = (startup_ms(), "ms")
    info = {
        "untraced_s": plain.seconds,
        "traced_s": traced.seconds,
        "overhead": traced.seconds / plain.seconds - 1.0,
        "spans": summary["spans"],
        "spans_dir": os.path.relpath(spans_dir, ROOT),
        "entries": summary["entries"],
    }
    return [plain, traced], metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stonekit", "__init__.py")):
        print(f"error: no stonekit package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ["STONEKIT_PURE"] = "1"
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    compileall.compile_dir(os.path.join(SRC, "stonekit"), quiet=1)
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    stem = os.path.join(RESULTS, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    try:
        probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload.name, "--seed", str(args.seed)]
        setup = [child_seconds(probe) for _ in range(SETUP_SAMPLES - 1)]
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, workdir)
        setup.append(time.perf_counter() - t0)

        import stonekit

        if os.path.dirname(os.path.dirname(os.path.abspath(stonekit.__file__))) != SRC:
            print(f"error: stonekit imported from {stonekit.__file__}, not {SRC}", file=sys.stderr)
            return 2
        env = environment(args.seed)
        if env["backend"] != "pure":
            print(f"error: backend {env['backend']!r}, want 'pure'", file=sys.stderr)
            return 2

        if args.trace:
            rounds, metrics, info = traced_run(workload, inputs, stem)
        else:
            rounds, metrics, info = timed_run(workload, inputs, args.seconds)
            metrics["setup_s"] = (statistics.median(setup), "s")
        try:
            problems = workload.verify(inputs, rounds)
        except Exception as exc:  # a crash while checking is a failed check
            problems = [f"verification raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for rnd in rounds for op in rnd.ops]
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "env": env,
        "args": vars(args),
        "setup_samples_s": setup,
        "info": info,
        "rounds": [round_record(r) for r in rounds],
        "problems": problems,
        "result": result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
