#!/usr/bin/env python3
"""Compression study on the forced Burgers trajectory.

For a fixed mean-error target eps*, sweep the trade-off parameter omega and
compare three ways of building the basis:

  direct   one POD of the whole snapshot matrix (the reference)
  chain    incremental session, blocks pushed one at a time
  tree     balanced tree over the same blocks, run on --workers threads,
           each node starting as soon as its children finish

Prints one table row per omega with mode counts, peak intermediate basis
size, achieved mean error, and wall time.  The achieved error column is
reported relative to the target, so anything <= 1 means the guarantee held.
"""

import argparse
import math
import time

import numpy as np

from hapod import (
    BurgersConfig,
    IncrementalSession,
    PodBackend,
    SnapshotBlock,
    actual_mean_error,
    assign_tolerances,
    build_balanced,
    burgers_snapshots,
    distribute_columns,
    pod,
    run_parallel,
)


def chain_run(block, eps_star, omega, block_size):
    planned = math.ceil(block.count / block_size)
    session = IncrementalSession(eps_star, omega, planned_block_count=planned)
    t0 = time.perf_counter()
    for start in range(0, block.count, block_size):
        session.push(SnapshotBlock(block.space, block.values[:, start:start + block_size]))
    result = session.finalize()
    return result, time.perf_counter() - t0


def tree_run(block, eps_star, omega, block_size, workers):
    blocks = math.ceil(block.count / block_size)
    tree = build_balanced(blocks, depth=2)
    leaves = distribute_columns(tree, block, block_size=block_size)
    tol = assign_tolerances(tree, leaves.counts(), eps_star, omega)
    t0 = time.perf_counter()
    result, _ = run_parallel(tree, leaves, tol, worker_count=workers)
    return result, time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", type=float, default=1e-3, help="mean error target eps*")
    ap.add_argument("--omega", type=float, nargs="+",
                    default=[0.1, 0.25, 0.5, 0.75, 0.9, 0.999])
    ap.add_argument("--block-size", type=int, default=100)
    ap.add_argument("--steps", type=int, default=10000)
    ap.add_argument("--grid", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()

    cfg = BurgersConfig(grid_size=args.grid, step_count=args.steps, seed=args.seed)
    block, stats = burgers_snapshots(cfg, with_stats=True)
    print(f"trajectory: {block.space.dimension} x {block.count}, {stats['spark_count']} sparks, "
          f"max state {block.values.max():.3f}")

    t0 = time.perf_counter()
    direct = pod(block, math.sqrt(block.count) * args.eps, PodBackend(kind="svd"))
    direct_time = time.perf_counter() - t0
    direct_err = actual_mean_error(block, direct)
    print(f"direct POD: {direct.count} modes, err/target^2 "
          f"{direct_err / args.eps ** 2:.3f}, {direct_time:.2f}s")
    print()

    header = ("omega", "chain", "peak", "err", "time", "tree", "peak", "err", "time")
    print(("{:>7} " + "{:>6} " * 8).format(*header))
    for omega in args.omega:
        cres, ctime = chain_run(block, args.eps, omega, args.block_size)
        cerr = actual_mean_error(block, cres.modes) / args.eps ** 2
        tres, ttime = tree_run(block, args.eps, omega, args.block_size, args.workers)
        terr = actual_mean_error(block, tres.modes) / args.eps ** 2
        print(f"{omega:>7.3f} "
              f"{cres.mode_count:>6d} {cres.max_intermediate_modes():>6d} "
              f"{cerr:>6.3f} {ctime:>5.1f}s "
              f"{tres.mode_count:>6d} {tres.max_intermediate_modes():>6d} "
              f"{terr:>6.3f} {ttime:>5.1f}s")

    print()
    print(f"direct reference: {direct.count} modes; larger omega spends more of the "
          f"budget at the root, so counts approach the reference at the price of "
          f"larger intermediate bases.")


if __name__ == "__main__":
    main()
