#!/usr/bin/env python3
"""Wall-time scaling of one flat POD versus a balanced tree of small PODs.

Doubles the snapshot count a few times on synthetic data with a known
spectrum and times both routes at the same error target.  The flat route
pays the Gramian eigendecomposition of the full m x m matrix, so its cost
grows superlinearly in m; the tree touches each block once plus a cheap
root merge and should stay near-linear.  Also prints the idealized
critical-path time from the node reports for the tree runs.
"""

import argparse
import math
import time

from hapod import (
    assign_tolerances,
    build_balanced,
    critical_path_time,
    distribute_columns,
    pod,
    run_parallel,
    synthetic_decay,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=500)
    ap.add_argument("--start", type=int, default=1000, help="smallest column count")
    ap.add_argument("--doublings", type=int, default=3)
    ap.add_argument("--block-size", type=int, default=100)
    ap.add_argument("--eps", type=float, default=1e-2)
    ap.add_argument("--omega", type=float, default=0.75)
    ap.add_argument("--decay", type=float, default=0.05)
    ap.add_argument("--workers", type=int, default=1,
                    help="thread pool size for the tree route")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sizes = [args.start * 2 ** k for k in range(args.doublings + 1)]
    print(f"{'m':>7} {'flat s':>8} {'modes':>6} {'tree s':>8} {'modes':>6} "
          f"{'crit-path s':>12} {'flat/tree':>10}")

    prev_flat = prev_tree = None
    for m in sizes:
        block = synthetic_decay(args.dim, m, args.decay, seed=args.seed)
        budget = math.sqrt(m) * args.eps

        t0 = time.perf_counter()
        flat = pod(block, budget)
        flat_time = time.perf_counter() - t0

        tree = build_balanced(math.ceil(m / args.block_size), depth=2)
        leaves = distribute_columns(tree, block, block_size=args.block_size)
        tol = assign_tolerances(tree, leaves.counts(), args.eps, args.omega)
        t0 = time.perf_counter()
        result, stats = run_parallel(tree, leaves, tol, worker_count=args.workers)
        tree_time = time.perf_counter() - t0

        crit = critical_path_time(tree, result.reports)
        ratio = flat_time / tree_time if tree_time > 0 else float("inf")
        print(f"{m:>7d} {flat_time:>8.2f} {flat.count:>6d} {tree_time:>8.2f} "
              f"{result.mode_count:>6d} {crit:>12.3f} {ratio:>10.2f}")

        if prev_flat is not None:
            print(f"        growth on doubling: flat x{flat_time / prev_flat:.2f}, "
                  f"tree x{tree_time / prev_tree:.2f}")
        prev_flat, prev_tree = flat_time, tree_time


if __name__ == "__main__":
    main()
