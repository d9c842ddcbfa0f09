"""Pooled execution of the tree: the one executor behind every tree run.

A node becomes ready when its last child finishes; among ready nodes the one
first in post-order starts first, so a single worker walks the tree in
post-order.  A node's own row panels (see `hapod.pod.pod`), when taller
than wide, run as plain futures on the same pool, submitted at most one per
other worker ahead of the panel due next: idle threads take some, the node's
thread runs the rest, and it alone adds their results up, in panel order.
Workers only change wall time: node inputs are immutable and a node's
panels are fixed by its shape, so sigmas come out bit-for-bit equal for any
worker count.
"""

from __future__ import annotations

import heapq
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .hierarchy import HapodResult, LeafAssignment, NodeReport, ToleranceAssignment, error_bound, evaluate_node
from .pod import PodBackend, _pooled_spread
from .tree import RootedTree, derive_maps

__all__ = ["ExecStats", "run_parallel", "critical_path_time"]


@dataclass(frozen=True, eq=False)
class ExecStats:
    """What one run_parallel call measured beyond its result.

    critical_path_time is the longest root-to-leaf sum of node wall times,
    total_node_time the sum of all node wall times (both from the node
    reports).  peak_resident_modes is the largest sum of the reports'
    output mode counts over the node outputs held at once in this run,
    counted when each node finishes and before its children's outputs are
    released.  It counts columns, not bytes: a leaf's output below the root,
    its columns A with a coefficient block R (see `evaluate_node`), holds no
    column of its own, since A is a view of the leaf's input, yet counts its
    width, and with several workers the count depends on the order in which
    nodes happen to finish.
    """

    critical_path_time: float
    total_node_time: float
    peak_resident_modes: int


def critical_path_time(tree: RootedTree, reports) -> float:
    """Longest root-to-leaf path through the tree, each node weighted by its
    wall time.

    A node starts as soon as its own children finish, so this is the wall
    time an unbounded pool could reach on the same node times.
    """
    wall = {r.node: r.wall_time for r in reports}
    longest = 0.0
    stack = [(tree.root, 0.0)]
    while stack:
        v, above = stack.pop()
        here = above + wall.get(v, 0.0)
        longest = max(longest, here)
        stack.extend((c, here) for c in tree.children[v])
    return longest


def run_parallel(tree: RootedTree, leaves: LeafAssignment, tol: ToleranceAssignment,
                 backend: PodBackend | None = None, worker_count: int = 1,
                 track_right_factor: bool = False) -> tuple[HapodResult, ExecStats]:
    """Evaluate the tree on a pool of worker_count threads; see run_hapod.

    Each node starts as soon as its last child finishes and a worker is free,
    ready nodes in post-order.  NumPy's products drop the interpreter lock
    but scipy's `eigh` and `svd` hold it, so nodes overlap in their Gramian
    panels, not in their eigensolves.  The row panels of a node's POD, when
    taller than wide, are submitted to the same pool as futures, at most
    worker_count - 1 ahead of the one the node adds next; the node's thread
    runs each one that no other thread has started, and adds the results in
    panel order whoever ran them.  A pool thread runs one panel and is free
    again, no thread waits for a panel that nobody has started, and there is
    no second pool.  Child outputs are released when their parent finishes.
    If a node raises, the running nodes finish, nothing new starts, and the
    exception of the lowest failing node id propagates with a note naming
    that node.  With track_right_factor, every node's own right vectors psi
    are held until the root finishes; one walk down then makes each child's
    factor its psi (None: I, so a copy) times its rows of its parent's
    factor, as many as its output modes, and stacks the leaves' in leaf order.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be at least 1")
    backend = backend or PodBackend()
    maps = derive_maps(tree, leaves.counts())
    extra = set(leaves.blocks) - set(maps.leaves)
    if extra:
        raise ValueError(f"assignment names node {min(extra)} which is not a leaf")
    bound = error_bound(tree, tol, maps=maps)  # refuses a tolerance map that misses a node
    rank = {v: i for i, v in enumerate(maps.post_order)}
    ready = sorted((rank[v], v) for v in maps.leaves)
    waiting = [len(kids) for kids in tree.children]

    resident = peak = 0
    live: dict = {}
    psi: dict = {}
    reports: dict[int, NodeReport] = {}
    failures: dict[int, Exception] = {}
    running: dict = {}
    with ThreadPoolExecutor(max_workers=worker_count) as pool:
        spread = _pooled_spread(pool, worker_count - 1)
        while running or (ready and not failures):
            while ready and not failures and len(running) < worker_count:
                _, v = heapq.heappop(ready)
                kids = [live[c] for c in tree.children[v]]
                running[pool.submit(evaluate_node, tree, maps, v, tol, backend, leaves, kids,
                                    track_right_factor, spread)] = v
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                v = running.pop(fut)
                try:
                    live[v], psi[v], rep = fut.result()
                except Exception as exc:  # let the running nodes finish
                    failures[v] = exc
                    continue
                reports[v] = rep
                resident += rep.output_mode_count
                peak = max(peak, resident)
                for c in tree.children[v]:
                    del live[c]
                    resident -= reports[c].output_mode_count
                parent = maps.parent[v]
                if parent >= 0:
                    waiting[parent] -= 1
                    if not waiting[parent]:
                        heapq.heappush(ready, (rank[parent], parent))
    if failures:
        node = min(failures)
        failures[node].add_note(f"node {node} failed")
        raise failures[node]

    right = None
    if track_right_factor:
        for v in reversed(maps.post_order):  # top down: psi[v] is v's factor by now
            rows = np.cumsum([0] + [reports[c].output_mode_count for c in tree.children[v]])
            for c, a, b in zip(tree.children[v], rows, rows[1:]):
                psi[c] = psi[v][a:b].copy() if psi[c] is None else psi[c] @ psi[v][a:b]
            if tree.children[v]:
                del psi[v]
        right = np.vstack([psi[leaf] for leaf in maps.leaf_order])
    result = HapodResult(
        modes=live[tree.root],
        apriori_error_bound=bound,
        reports=tuple(reports[v] for v in sorted(reports)),
        root_node=tree.root,
        right_factor=right,
    )
    ordered = result.reports
    stats = ExecStats(
        critical_path_time=critical_path_time(tree, ordered),
        total_node_time=float(sum(r.wall_time for r in ordered)),
        peak_resident_modes=peak,
    )
    return result, stats
