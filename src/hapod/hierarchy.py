"""Hierarchical POD over a rooted tree of small PODs.

Leaves hold blocks of raw snapshots; each interior node runs a POD on the
concatenation of its children's singular-value-scaled modes.  Two facts make
this useful: the total squared projection error of the final modes against
the original snapshots is at most the sum of the squared per-node tolerances,
and the mode count at any node never exceeds what one flat POD of all
subordinate snapshots at that node's tolerance would return.  With the
tolerance rule of `_tolerance`, a single scalar target controls the final
mean error, and ``omega`` trades final basis size against the size of the
intermediate decompositions.  After a run, the tails the nodes actually
discarded, with an allowance for each node's rounding, certify the error
without another pass over the snapshots (`certified_squared_error`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .pod import (InnerProductSpace, ModeSet, PodBackend, SnapshotBlock, _blas_ready, _leaf_step, _panel,
                  _row_panels, _scaled, _valid_epsilon, block_gramian_pod, pod)
from .tree import RootedTree, TreeMaps, build_chain, derive_maps

__all__ = [
    "SessionError",
    "ToleranceAssignment",
    "LeafAssignment",
    "NodeReport",
    "HapodResult",
    "assign_tolerances",
    "distribute_columns",
    "error_bound",
    "certified_squared_error",
    "actual_mean_error",
    "run_hapod",
    "IncrementalSession",
]


class SessionError(RuntimeError):
    """Incremental session used out of order (push after finalize, too many pushes...)."""


@dataclass(frozen=True, eq=False)
class ToleranceAssignment:
    """One finite, nonnegative truncation tolerance per node id."""

    epsilons: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(_valid_epsilon(e) for e in self.epsilons))


@dataclass(frozen=True, eq=False)
class LeafAssignment:
    """leaf id -> snapshot block, all blocks living in one shared space."""

    blocks: dict[int, SnapshotBlock]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("leaf assignment is empty")
        object.__setattr__(self, "blocks", dict(self.blocks))
        spaces = list(self.blocks.values())
        for b in spaces[1:]:
            if not b.space.same_as(spaces[0].space):
                raise ValueError("all leaf blocks must share one inner-product space")

    @property
    def space(self) -> InnerProductSpace:
        return next(iter(self.blocks.values())).space

    def counts(self) -> dict[int, int]:
        return {v: b.count for v, b in self.blocks.items()}


@dataclass(frozen=True)
class NodeReport:
    """One node's run; its tail and ``input_energy`` are its output's (`ModeSet`)."""

    node: int
    level: int
    is_leaf: bool
    input_count: int
    subordinate_count: int
    local_epsilon: float
    output_mode_count: int
    discarded_tail_energy: float
    wall_time: float
    input_energy: float = 0.0


@dataclass(frozen=True, eq=False)
class HapodResult:
    """The root's modes; a tracked run adds the right factor, with orthonormal
    columns, one per mode, and one row per snapshot in depth-first leaf order."""

    modes: ModeSet
    apriori_error_bound: float
    reports: tuple[NodeReport, ...]
    root_node: int
    right_factor: np.ndarray | None = None

    @property
    def mode_count(self) -> int:
        return self.modes.count

    @property
    def aposteriori_error_bound(self) -> float:
        """sqrt(`certified_squared_error`) of the reports: a bound on the
        total squared projection error, from the tails the nodes discarded."""
        return math.sqrt(certified_squared_error(self.reports))

    def report_for(self, node: int) -> NodeReport:
        for r in self.reports:
            if r.node == node:
                return r
        raise KeyError(f"no report for node {node}")

    def max_intermediate_modes(self) -> int:
        """Largest output mode count over the interior nodes below the root."""
        return max((r.output_mode_count for r in self.reports if not r.is_leaf and r.node != self.root_node),
                   default=0)


def _chunk_counts(m: int, block_size: int) -> list[int]:
    """Chunks of block_size of m columns, the last one shorter; [0] for m = 0."""
    if block_size < 1:
        raise ValueError(f"block size must be at least 1, got {block_size}")
    full, rest = divmod(m, block_size)
    return [block_size] * full + ([rest] if rest or not full else [])


def distribute_columns(tree: RootedTree, block: SnapshotBlock, counts=None,
                       block_size: int | None = None) -> LeafAssignment:
    """Slice a snapshot matrix across the tree's leaves, in depth-first leaf order.

    Exactly one of counts / block_size may be given; with neither, the columns
    are split as evenly as possible.  block_size cuts the chunks of
    `_chunk_counts` and requires the tree to have exactly that many leaves.
    Leaves are views of their columns of ``block``, in its memory order, and
    are not scanned again.
    """
    order = derive_maps(tree).leaf_order
    k = len(order)
    m = block.count
    if counts is not None and block_size is not None:
        raise ValueError("pass either counts or block_size, not both")
    if block_size is not None:
        counts = _chunk_counts(m, block_size)
    elif counts is None:
        base, extra = divmod(m, k)
        counts = [base + 1] * extra + [base] * (k - extra)
    counts = [int(c) for c in counts]
    if len(counts) != k:
        raise ValueError(f"{len(counts)} blocks for {k} leaves")
    if any(c < 0 for c in counts) or sum(counts) != m:
        raise ValueError(f"block sizes {counts} do not partition {m} columns")
    maps = derive_maps(tree, dict(zip(order, counts)))
    return LeafAssignment({leaf: block._part(block.values[:, maps.columns(leaf)]) for leaf in order})


def _check_rule(omega: float, target: float = 1.0) -> float:
    """The one check of the rule's parameters: the root's share omega of the
    budget lies in (0, 1], so the root truncates, and target > 0."""
    if not target > 0.0:
        raise ValueError(f"target must be positive, got {target}")
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must lie in (0, 1], got {omega}")
    return omega


def _tolerance(count: int, target: float, omega: float, depth: int, is_root: bool,
               passthrough_leaf: bool) -> float:
    """The tolerance rule for one node with `count` snapshots below it in a
    tree of `depth` levels; a leaf below the root that passes its block
    through gets 0, and the one node of a one-node tree is its root."""
    if is_root:
        return math.sqrt(count) * omega * target
    if passthrough_leaf:
        return 0.0
    return math.sqrt(count) * math.sqrt(1.0 - omega * omega) / math.sqrt(depth - 1) * target


def assign_tolerances(tree: RootedTree, leaf_counts, target: float, omega: float = 0.75,
                      zero_leaf_tolerance: bool = False) -> ToleranceAssignment:
    """Per-node tolerances (`_tolerance`) that certify a mean squared error <= target**2.

    The root gets sqrt(total) * omega * target, omega in (0, 1] (see
    `_check_rule`), also in a one-node tree; every other node alpha gets
    sqrt(count below alpha) * sqrt(1 - omega**2) / sqrt(depth - 1) * target.
    omega near 1 shrinks the final basis at the price of fatter intermediate
    PODs.  zero_leaf_tolerance gives the leaves below the root epsilon = 0
    (passthrough), the usual choice for incremental processing.

    leaf_counts may be a LeafAssignment or a mapping leaf id -> column count.
    """
    if isinstance(leaf_counts, LeafAssignment):
        leaf_counts = leaf_counts.counts()
    _check_rule(omega, target)
    maps = derive_maps(tree, leaf_counts)
    if maps.subordinate_leaf_counts[tree.root] == 0:
        raise ValueError("no snapshots anywhere in the tree")
    eps = [_tolerance(maps.subordinate_leaf_counts[v], target, omega, maps.depth, v == tree.root,
                      zero_leaf_tolerance and not tree.children[v])
           for v in range(tree.node_count)]
    return ToleranceAssignment(tuple(eps))


def error_bound(tree: RootedTree, tol: ToleranceAssignment, node: int | None = None,
                maps: TreeMaps | None = None) -> float:
    """A-priori bound sqrt(sum of epsilon**2 over the subtree) on the total
    squared projection error of the node's output against its subordinate
    snapshots, summed over a walk of the child lists; given maps vouch for
    the tree."""
    if len(tol.epsilons) != tree.node_count:
        raise ValueError("tolerance map does not cover the tree")
    if maps is None:
        derive_maps(tree)  # checks the tree, so the walk ends
    below, stack = [], [tree.root if node is None else node]
    while stack:  # the node, then its descendants in child-list order
        below.append(stack.pop())
        stack.extend(reversed(tree.children[below[-1]]))
    return math.sqrt(sum(tol.epsilons[u] ** 2 for u in below))


def _rounding_allowance(report: NodeReport) -> float:
    """u * m_alpha * ||S_alpha||^2_W, the rounding allowance of a POD of
    m_alpha = ``input_count`` columns of energy ``input_energy`` (u the
    float64 machine epsilon; 0 for a node that decomposed nothing)."""
    return float(np.finfo(np.float64).eps) * report.input_count * report.input_energy


def certified_squared_error(reports) -> float:
    """The certified total squared projection error of a tree's output: the
    paper's induction bounds it by the summed tails of the reports, to which
    each node adds its `_rounding_allowance`."""
    return sum(r.discarded_tail_energy + _rounding_allowance(r) for r in reports)


def actual_mean_error(snapshots: SnapshotBlock, modes: ModeSet) -> float:
    """Measured (1/m) * sum_j ||s_j - P s_j||^2 with P the orthogonal projection
    onto the k modes U, over the row panels of `pod` (`_row_panels`), in panel
    order on the calling thread.  Each panel S_p, copied where BLAS cannot
    read it (an .hpd map), adds ||S_p||^2_W and U_p^T W_p S_p; for
    orthonormal U the error is ||S||^2_W - ||U^T W S||^2_F.  Its rounding
    error is a few u * ||S||^2_W, so below 1e-3 * ||S||^2_W a second pass
    sums the explicit residuals S_p - U_p (U^T W S) instead.  The columns run
    in groups whose k x n product fits one `BATCH_BYTES` piece: one group
    unless k x m is larger."""
    if not modes.orthonormal:
        raise ValueError("projection needs orthonormal modes (got a passthrough set)")
    if not snapshots.space.same_as(modes.space):
        raise ValueError("snapshots and modes live in different spaces")
    m = snapshots.count
    if m == 0:
        return 0.0
    return sum(_squared_error(snapshots._part(snapshots.values[:, a:b]), modes)
               for a, b in _row_panels(m, modes.count)) / m


def _squared_error(block: SnapshotBlock, modes: ModeSet) -> float:
    """sum_j ||s_j - P s_j||^2 over the block, one panel copy at a time."""
    w = block.space.weights
    panels = [(a, b, InnerProductSpace(b - a, None if w is None else w[a:b]))
              for a, b in _row_panels(block.space.dimension, block.count)]
    total, coef = 0.0, 0.0
    for a, b, space in panels:
        s = _panel(block, a, b, space).values
        total += float(np.sum(space.norms_sq(s)))
        coef += space.gram(_blas_ready(modes.modes[a:b]), s)
        del s
    left = total - float(np.vdot(coef, coef))
    if left < 1e-3 * total:
        left = 0.0
        for a, b, space in panels:
            r = _blas_ready(modes.modes[a:b]) @ coef
            left += float(np.sum(space.norms_sq(np.subtract(_panel(block, a, b, space).values, r, out=r))))
            del r
    return left


def _node_report(tree: RootedTree, maps: TreeMaps, node: int, input_count: int,
                 subordinate_count: int, eps: float = 0.0, out=None, wall: float = 0.0) -> NodeReport:
    """Report for one node given its output, a `ModeSet` or a `_NodeOutput`;
    out=None is a passthrough leaf that emits its input."""
    return NodeReport(
        node=node,
        level=maps.level[node],
        is_leaf=not tree.children[node],
        input_count=input_count,
        subordinate_count=subordinate_count,
        local_epsilon=eps,
        output_mode_count=input_count if out is None else out.count,
        discarded_tail_energy=0.0 if out is None else out.tail_energy,
        wall_time=wall,
        input_energy=0.0 if out is None else out.input_energy,
    )


def evaluate_node(tree: RootedTree, maps: TreeMaps, node: int, tol: ToleranceAssignment,
                  backend: PodBackend, leaves: LeafAssignment, child_outputs, track: bool,
                  spread=None):
    """POD step for one node given its children's node outputs, in child-list order.

    An interior node decomposes them side by side as one stacked block, whose
    rows are written only when a row panel of the POD asks for them, so the
    stacked input is never held whole.  Every node below the root returns
    one `_NodeOutput` (A, R, sigma, tail), whose scaled modes are A R: an
    interior node its modes and sigmas, a leaf a view of its own columns
    (`_leaf_step`), raw when it would keep every column and, on the tall
    "gram" route, with its k right vectors psi when it truncates.  The root
    returns its orthonormal `ModeSet`.  With track, every node also returns
    its own right vectors psi, one row per input column, from which
    `run_parallel` composes the right factor; a node below the root that
    passes its input through returns None, its psi being I.  spread runs
    the panels (see `pod`).  Returns (node output, psi or None, NodeReport).
    """
    eps = tol.epsilons[node]
    started = time.perf_counter()
    leaf = not tree.children[node]
    if leaf:
        block = leaves.blocks[node]
    else:
        block = SnapshotBlock._stack(leaves.space, [(kid.columns, kid.coef) for kid in child_outputs])
    if leaf and node != tree.root:
        out, psi = _leaf_step(block, eps, backend, track, spread)
    else:
        out = pod(block, eps, backend, want_right=track and (eps > 0.0 or node == tree.root), spread=spread)
        psi = out.right
        if node != tree.root:
            out = _scaled(out)
    wall = time.perf_counter() - started
    report = _node_report(tree, maps, node, block.count, maps.subordinate_leaf_counts[node],
                          eps, out, wall)
    return out, psi, report


def run_hapod(tree: RootedTree, leaves: LeafAssignment, tol: ToleranceAssignment,
              backend: PodBackend | None = None, track_right_factor: bool = False) -> HapodResult:
    """Evaluate the whole tree bottom-up in post-order, children in child-list order.

    This is `run_parallel` with one worker.  Child outputs are released as
    soon as their parent has consumed them, so the resident working set
    tracks one antichain of the tree rather than the full snapshot set.  With
    track_right_factor=True the result also carries the right factor (see
    `HapodResult`), and the run holds every node's right vectors until the
    root has finished.
    """
    from .parallel import run_parallel  # parallel builds on this module

    return run_parallel(tree, leaves, tol, backend, worker_count=1,
                        track_right_factor=track_right_factor)[0]


class IncrementalSession:
    """Single-pass chain compression: push blocks one at a time, finalize once.

    Equivalent to run_hapod over build_chain(planned_block_count) with the
    `_tolerance` of `assign_tolerances(..., zero_leaf_tolerance=True)`, one
    planned block included, but never holds more than the current modes plus
    one fresh block.  Each merge is the same POD of the stacked scaled modes
    and fresh columns that the chain run's merge node performs.

    The planned block count is part of the tolerance rule (the per-merge
    budget divides by sqrt(planned - 1)), so it must be fixed up front.
    Pushing fewer blocks than planned is allowed; finalize then applies the
    root-tolerance POD to whatever has accumulated.  Pushing more raises
    SessionError.
    """

    def __init__(self, target: float, omega: float, planned_block_count: int,
                 backend: PodBackend | None = None):
        _check_rule(omega, target)
        self.target = float(target)
        self.omega = float(omega)
        self.planned = int(planned_block_count)
        self.backend = backend or PodBackend()
        self.tree = build_chain(self.planned)
        self.maps = derive_maps(self.tree)
        self._pushed = 0
        self._seen = 0
        self._current: ModeSet | None = None
        self._space: InnerProductSpace | None = None
        self._reports: list[NodeReport] = []
        self._done = False

    def _merge(self, node: int, fresh: SnapshotBlock, below=()) -> None:
        """Fold fresh into the carried modes as the chain's node, after the reports `below`; the
        bottom leaf, below the root, carries its block as it is (epsilon 0).  The session takes
        the merged modes, the block's space and count and the reports only once the POD returns."""
        root, leaf = node == self.tree.root, not self.tree.children[node]
        seen = self._seen + fresh.count
        eps = _tolerance(seen, self.target, self.omega, self.planned, root, leaf)
        prior = self._current
        started = time.perf_counter()
        if prior is None:
            merged = pod(fresh, eps, self.backend)
        else:
            merged = block_gramian_pod(prior, fresh, eps, self.backend)
        wall = time.perf_counter() - started
        input_count = fresh.count + (prior.count if prior is not None else 0)
        self._current, self._space, self._seen = merged, fresh.space, seen
        self._reports += [*below, _node_report(self.tree, self.maps, node, input_count, seen,
                                               eps, merged, wall)]

    def push(self, block: SnapshotBlock) -> None:
        """Fold one block into the session; a push that raises leaves it unchanged."""
        if self._done:
            raise SessionError("session already finalized")
        if self._pushed >= self.planned:
            raise SessionError(f"planned_block_count={self.planned} blocks already pushed")
        if self._space is not None and not self._space.same_as(block.space):
            raise ValueError("pushed block lives in a different space than the first one")
        node, below = self.maps.leaf_order[self._pushed], []
        if self._pushed:
            # a later leaf hands its raw block to the merge node above it
            below.append(_node_report(self.tree, self.maps, node, block.count, block.count))
            node = self.maps.parent[node]
        self._merge(node, block, below)
        self._pushed += 1

    def finalize(self) -> HapodResult:
        if self._done:
            raise SessionError("session already finalized")
        if self._pushed == 0:
            raise SessionError("no blocks were pushed")
        if self._seen == 0:
            raise ValueError("no snapshots anywhere in the tree")
        self._done = True
        if self._pushed < self.planned:
            # close out early: one root-tolerance POD over what accumulated
            self._merge(self.tree.root,
                        SnapshotBlock(self._space, np.zeros((self._space.dimension, 0))))
        return HapodResult(
            modes=self._current,
            apriori_error_bound=math.sqrt(sum(r.local_epsilon * r.local_epsilon for r in self._reports)),
            reports=tuple(self._reports),
            root_node=self.tree.root,
        )
