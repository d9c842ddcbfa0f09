"""Pooled execution of the tree: the one executor behind every tree run.

A node becomes ready when its last child finishes; among ready nodes the one
first in post-order starts first, so a single worker walks the tree in
post-order.  Workers only change wall time: node inputs are immutable and each
node's arithmetic is identical whatever the schedule, so sigmas come out
bit-for-bit equal for any worker count.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

from .hierarchy import HapodResult, LeafAssignment, NodeReport, ToleranceAssignment, error_bound, evaluate_node
from .pod import PodBackend
from .tree import RootedTree, derive_maps

__all__ = ["Schedule", "ExecStats", "plan", "run_parallel", "critical_path_time", "peak_resident_modes"]


@dataclass(frozen=True)
class Schedule:
    """waves[l-1] holds the ids of every node at level l, ascending."""

    waves: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class ExecStats:
    """Timings of one run_parallel call.

    wave_times[l-1] is the span of level l, from the start of its first node
    to the end of its last; levels overlap, so the spans may too.
    """

    wave_times: tuple[float, ...]
    node_times: dict[int, float]
    critical_path_time: float
    total_node_time: float
    peak_resident_modes: int


def plan(tree: RootedTree) -> Schedule:
    maps = derive_maps(tree)
    waves: list[list[int]] = [[] for _ in range(maps.depth)]
    for v in range(tree.node_count):
        waves[maps.level[v] - 1].append(v)
    return Schedule(tuple(tuple(w) for w in waves))


def critical_path_time(reports) -> float:
    """Sum over levels of the slowest node in that level.

    Every root-to-leaf path visits each level at most once, so this is an
    upper bound on the longest path through the tree, the wall time an
    unbounded pool could reach.  It is not that path itself, because a node
    starts as soon as its own children finish, not when its level does.
    """
    per_level: dict[int, float] = {}
    for r in reports:
        per_level[r.level] = max(per_level.get(r.level, 0.0), r.wall_time)
    return sum(per_level.values())


def peak_resident_modes(tree: RootedTree, reports) -> int:
    """Largest number of mode columns alive at once under the retention rule
    'a child's output is released when its parent completes', evaluated
    wave-synchronously."""
    count = {r.node: r.output_mode_count for r in reports}
    live = 0
    peak = 0
    held: dict[int, int] = {}
    for wave in plan(tree).waves:
        produced = sum(count.get(v, 0) for v in wave)
        peak = max(peak, live + produced)
        live += produced
        for v in wave:
            held[v] = count.get(v, 0)
        for v in wave:
            for c in tree.children[v]:
                live -= held.pop(c)
    return peak


def run_parallel(tree: RootedTree, leaves: LeafAssignment, tol: ToleranceAssignment,
                 backend: PodBackend | None = None, worker_count: int = 1,
                 track_right_factor: bool = False) -> tuple[HapodResult, ExecStats]:
    """Evaluate the tree on a pool of worker_count threads; see run_hapod.

    Each node starts as soon as its last child finishes and a worker is free,
    ready nodes in post-order.  The dense kernels drop the interpreter lock,
    so nodes really do overlap.  Child outputs are released when their parent
    finishes.  If a node raises, the running nodes finish, nothing new
    starts, and the exception of the lowest failing node id propagates with a
    note naming that node.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be at least 1")
    backend = backend or PodBackend()
    maps = derive_maps(tree, leaves.counts())
    extra = set(leaves.blocks) - set(maps.leaves)
    if extra:
        raise ValueError(f"assignment names node {min(extra)} which is not a leaf")
    if len(tol.epsilons) != tree.node_count:
        raise ValueError(
            f"tolerance map covers {len(tol.epsilons)} nodes but the tree has {tree.node_count}"
        )
    rank = {v: i for i, v in enumerate(maps.post_order)}
    ready = sorted((rank[v], v) for v in maps.leaves)
    waiting = [len(kids) for kids in tree.children]

    def timed(v, child_results):
        started = time.perf_counter()
        out = evaluate_node(tree, maps, v, tol, backend, leaves, child_results, track_right_factor)
        return started, time.perf_counter(), out

    live: dict[int, tuple] = {}
    reports: dict[int, NodeReport] = {}
    spans: dict[int, tuple[float, float]] = {}
    failures: dict[int, Exception] = {}
    running: dict = {}
    with ThreadPoolExecutor(max_workers=worker_count) as pool:
        while running or (ready and not failures):
            while ready and not failures and len(running) < worker_count:
                _, v = heapq.heappop(ready)
                kids = [live[c] for c in tree.children[v]]
                running[pool.submit(timed, v, kids)] = v
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                v = running.pop(fut)
                try:
                    started, ended, (out, lhat, rep) = fut.result()
                except Exception as exc:  # let the running nodes finish
                    failures[v] = exc
                    continue
                live[v] = (out, lhat)
                reports[v] = rep
                spans[v] = (started, ended)
                for c in tree.children[v]:
                    del live[c]
                parent = maps.parent[v]
                if parent >= 0:
                    waiting[parent] -= 1
                    if not waiting[parent]:
                        heapq.heappush(ready, (rank[parent], parent))
    if failures:
        node = min(failures)
        failures[node].add_note(f"node {node} failed")
        raise failures[node]

    level_spans: dict[int, tuple[float, float]] = {}
    for v, (a, b) in spans.items():
        lo, hi = level_spans.get(maps.level[v], (a, b))
        level_spans[maps.level[v]] = (min(lo, a), max(hi, b))
    final, lhat_root = live[tree.root]
    result = HapodResult(
        modes=final,
        apriori_error_bound=error_bound(tree, tol, maps=maps),
        reports=tuple(reports[v] for v in sorted(reports)),
        root_node=tree.root,
        right_factor=lhat_root if track_right_factor else None,
    )
    ordered = result.reports
    stats = ExecStats(
        wave_times=tuple(b - a for _, (a, b) in sorted(level_spans.items())),
        node_times={r.node: r.wall_time for r in ordered},
        critical_path_time=critical_path_time(ordered),
        total_node_time=float(sum(r.wall_time for r in ordered)),
        peak_resident_modes=peak_resident_modes(tree, ordered),
    )
    return result, stats
