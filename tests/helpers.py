"""Slow reference implementations the tests trust instead of the library.

Everything here is deliberately naive: dense SVDs, python loops, explicit
projectors.  If a helper ever gets clever enough to share code with the
package, it stops being an oracle.
"""

import numpy as np
import scipy.linalg

from hapod import (
    InnerProductSpace,
    LeafAssignment,
    RootedTree,
    SnapshotBlock,
    ToleranceAssignment,
    derive_maps,
    synthetic_decay,
)


def naive_rank(sigmas, epsilon):
    """Smallest N with sum of squared sigmas beyond N at most epsilon^2."""
    for n in range(len(sigmas) + 1):
        tail = sum(float(s) * float(s) for s in sigmas[n:])
        if tail <= epsilon * epsilon:
            return n
    return len(sigmas)


def oracle_pod_count(values, epsilon, weights=None):
    """Mode count of a flat POD, via one dense SVD and naive_rank.

    epsilon == 0 follows the passthrough convention and returns the column
    count, matching the library.
    """
    if values.shape[1] == 0:
        return 0
    if epsilon == 0.0:
        return values.shape[1]
    if weights is not None:
        values = values * np.sqrt(weights)[:, None]
    sig = scipy.linalg.svdvals(values)
    return naive_rank(sig, epsilon)


def span_residual_sq(values, span, weights=None):
    """Sum of squared projection errors of the columns of values onto the
    column span of span, in the (optionally weighted) inner product.

    span need not be orthonormal; it is orthonormalized here with a
    rank-revealing factorization so passthrough outputs can be checked too.
    """
    if weights is not None:
        root = np.sqrt(weights)[:, None]
        values = values * root
        span = span * root
    if span.shape[1] == 0:
        return float(np.sum(values * values))
    q = scipy.linalg.orth(span)
    resid = values - q @ (q.T @ values)
    return float(np.sum(resid * resid))


def random_tree(rng, node_count):
    """Uniformly messy rooted tree: each node's parent is an earlier node."""
    children = [[] for _ in range(node_count)]
    for v in range(1, node_count):
        children[int(rng.integers(0, v))].append(v)
    return RootedTree(tuple(tuple(c) for c in children), 0)


def subtree_nodes(tree, node):
    """node, then its descendants, by a recursive walk of the child lists."""
    out = [node]
    for child in tree.children[node]:
        out.extend(subtree_nodes(tree, child))
    return out


def random_split(rng, total, parts):
    """Split total columns over parts leaves, zeros allowed."""
    if parts == 1:
        return [total]
    probs = rng.random(parts)
    counts = rng.multinomial(total, probs / probs.sum())
    return [int(c) for c in counts]


def random_case(rng, max_nodes=30, max_dim=200, max_cols=500):
    """One randomized HAPOD problem: tree, leaf blocks, per-node tolerances.

    Tolerances are drawn relative to the data's total energy so the cases
    cover the whole range from keep-everything to discard-almost-everything,
    and individual nodes get epsilon exactly zero with small probability.
    """
    tree = random_tree(rng, int(rng.integers(1, max_nodes + 1)))
    maps = derive_maps(tree)
    dim = int(rng.integers(5, max_dim + 1))
    cols = int(rng.integers(len(maps.leaves), max_cols + 1))
    data = synthetic_decay(dim, cols, float(rng.uniform(0.02, 0.8)),
                           seed=int(rng.integers(2**31))).values
    weights = None
    if rng.random() < 0.25:
        weights = rng.uniform(0.5, 2.0, dim)
    space = InnerProductSpace(dim, weights)

    counts = random_split(rng, cols, len(maps.leaves))
    blocks = {}
    start = 0
    for leaf, c in zip(maps.leaf_order, counts):
        blocks[leaf] = SnapshotBlock(space, data[:, start:start + c])
        start += c
    leaves = LeafAssignment(blocks)

    total_sq = float(np.sum(space.weigh(data) ** 2))
    scale = np.sqrt(total_sq) if total_sq > 0 else 1.0
    eps = rng.uniform(0.0, 0.6, tree.node_count) ** 2 * scale
    eps[rng.random(tree.node_count) < 0.15] = 0.0
    tol = ToleranceAssignment(tuple(float(e) for e in eps))

    return tree, maps, leaves, tol, data, space


def stacked_leaf_columns(maps, leaves):
    """Concatenate the leaf blocks in depth-first leaf order."""
    return np.hstack([leaves.blocks[leaf].values for leaf in maps.leaf_order])
