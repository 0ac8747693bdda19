"""Time the bitmask kernels on seeded random inputs.

Workloads mirror what the sweeps spend their time on: closing and
validating random orders, enumerating their down-sets, synthesizing
meet/join tables for the resulting lattices, and scanning those tables
for distributivity. Each kernel runs ``--repeat`` passes over the same
inputs and the best pass is reported.

    python3 benchmarks/bench_kernels.py --count 200 --points 6
"""

import argparse
import random
import time

from stonekit import _kernels


def random_raw_masks(rng, n):
    """Masks of a random strict DAG, not yet closed."""
    below = [0] * n
    for y in range(n):
        for x in range(y):
            if rng.random() < 0.35:
                below[y] |= 1 << x
    return below


def lattice_order(sets):
    """Containment order of a down-set family, as below masks."""
    m = len(sets)
    below = [0] * m
    for i in range(m):
        for j in range(m):
            if sets[j] & ~sets[i] == 0:
                below[i] |= 1 << j
    return below


def build_workloads(seed, count, points):
    rng = random.Random(seed)
    raw, closed, orders, tables = [], [], [], []
    for _ in range(count):
        n = rng.randint(max(2, points - 2), points)
        masks = random_raw_masks(rng, n)
        raw.append(list(masks))
        done = _kernels.closure(masks)
        closed.append(done)
        sets = _kernels.downset_masks(done, 64)
        if sets is None:
            continue
        order = lattice_order(sets)
        orders.append(order)
        meet, join, missing = _kernels.bound_tables(order)
        if missing is None:
            tables.append((meet, join))
    return {
        "closure": raw,
        "check_poset": closed,
        "downset_masks": closed,
        "bound_tables": orders,
        "distributive_witness": tables,
    }


def run(kernel, inputs):
    fn = getattr(_kernels, kernel)
    t0 = time.perf_counter()
    if kernel == "downset_masks":
        for arg in inputs:
            fn(arg, 4096)
    elif kernel == "distributive_witness":
        for meet, join in inputs:
            fn(meet, join)
    else:
        for arg in inputs:
            fn(arg)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=200, help="posets to draw")
    parser.add_argument("--points", type=int, default=6, help="max points per poset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=5, help="timing passes, best kept")
    args = parser.parse_args()
    if not 2 <= args.points <= 6:
        parser.error("--points must be between 2 and 6")

    workloads = build_workloads(args.seed, args.count, args.points)
    print(f"{'kernel':<22}{'inputs':>7}{'ms':>10}")
    for kernel, inputs in workloads.items():
        best = min(run(kernel, inputs) for _ in range(args.repeat))
        print(f"{kernel:<22}{len(inputs):>7}{best * 1000:>10.2f}")


if __name__ == "__main__":
    main()
