"""Rooted trees over dense integer node ids.

Nodes are 0..n-1, every node carries an ordered child list, leaves are the
childless nodes.  Levels count from the leaves up: a leaf sits at level 1 and
the depth of the tree is the level of the root.  Child-list order is
semantically meaningful downstream (it fixes concatenation order), so it is
preserved everywhere, including through the text serialization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = [
    "RootedTree",
    "TreeMaps",
    "validate",
    "derive_maps",
    "build_star",
    "build_chain",
    "build_balanced",
    "format_tree_text",
    "parse_tree_text",
]


@dataclass(frozen=True, eq=False)
class RootedTree:
    children: tuple[tuple[int, ...], ...]
    root: int

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(tuple(int(c) for c in kids) for kids in self.children))
        object.__setattr__(self, "root", int(self.root))

    @property
    def node_count(self) -> int:
        return len(self.children)


@dataclass(frozen=True, eq=False)
class TreeMaps:
    """Derived per-node structure: levels, leaves, parents, column ranges.

    ``leaf_order`` lists the leaves in depth-first order following the child
    lists; that order is the canonical one for attaching data blocks and for
    the row order of tracked snapshot coefficients.  ``post_order`` lists
    every node after its children, children in child-list order, which is
    the order a single worker evaluates them in.
    ``subordinate_leaf_counts`` and ``column_start`` are only present when
    leaf block sizes were supplied to derive_maps.  The leaves' columns
    follow one another in leaf order, so every subtree's columns form one
    range, which `columns` returns.
    """

    leaves: tuple[int, ...]
    leaf_order: tuple[int, ...]
    level: tuple[int, ...]
    depth: int
    parent: tuple[int, ...]
    post_order: tuple[int, ...]
    subordinate_leaf_counts: tuple[int, ...] | None = None
    column_start: tuple[int, ...] | None = None

    def columns(self, v: int) -> slice:
        """Node v's columns as a slice, given leaf counts."""
        return slice(self.column_start[v], self.column_start[v] + self.subordinate_leaf_counts[v])


def _walk(tree: RootedTree) -> tuple[list[int], list[int]]:
    """Parents and post-order of a tree, checked on the way.

    Raises ValueError naming the first broken condition and a witness node.
    """
    n = tree.node_count
    if n == 0:
        raise ValueError("tree has no nodes")
    if not (0 <= tree.root < n):
        raise ValueError(f"root id {tree.root} out of range")
    parent = [-1] * n
    for v, kids in enumerate(tree.children):
        for c in kids:
            if not (0 <= c < n):
                raise ValueError(f"node {v} lists child {c} outside 0..{n - 1}")
            if parent[c] != -1 or (c == v):
                raise ValueError(f"node {c} has more than one parent (child lists must be disjoint)")
            parent[c] = v
    if parent[tree.root] != -1:
        raise ValueError(f"root {tree.root} appears as a child of node {parent[tree.root]}")
    # every node now has at most one parent and the root has none, so the
    # walk from the root reaches each node at most once
    post: list[int] = []
    stack: list[tuple[int, bool]] = [(tree.root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            post.append(v)
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(tree.children[v]))
    if len(post) < n:
        raise ValueError(f"node {min(set(range(n)) - set(post))} is not reachable from the root")
    return parent, post


def validate(tree: RootedTree) -> str | None:
    """None if the tree is well formed, else a message naming the broken
    condition and a witness node."""
    try:
        _walk(tree)
    except ValueError as exc:
        return str(exc)
    return None


def derive_maps(tree: RootedTree, leaf_counts=None) -> TreeMaps:
    """Levels, leaves, parents and post-order for a valid tree.

    leaf_counts, if given, maps leaf id -> number of snapshots attached there;
    the per-node totals over each subtree are then filled in as
    subordinate_leaf_counts, and each node's first column as column_start:
    a leaf starts where the previous leaf in leaf order ends, an interior
    node at its first child.
    """
    try:
        parent, post = _walk(tree)
    except ValueError as exc:
        raise ValueError(f"invalid tree: {exc}") from None
    level = [0] * tree.node_count
    for v in post:
        level[v] = 1 + max((level[c] for c in tree.children[v]), default=0)
    leaves = tuple(v for v, kids in enumerate(tree.children) if not kids)

    sub_counts = starts = None
    if leaf_counts is not None:
        missing = [v for v in leaves if v not in leaf_counts]
        if missing:
            raise ValueError(f"no snapshot count for leaf {missing[0]}")
        per_node, first, at = [0] * tree.node_count, [0] * tree.node_count, 0
        for v in post:
            kids = tree.children[v]
            if kids:
                per_node[v] = sum(per_node[c] for c in kids)
                first[v] = first[kids[0]]
            else:
                c = int(leaf_counts[v])
                if c < 0:
                    raise ValueError(f"negative snapshot count at leaf {v}")
                per_node[v], first[v] = c, at
                at += c
        sub_counts, starts = tuple(per_node), tuple(first)

    return TreeMaps(
        leaves=leaves,
        leaf_order=tuple(v for v in post if not tree.children[v]),
        level=tuple(level),
        depth=level[tree.root],
        parent=tuple(parent),
        post_order=tuple(post),
        subordinate_leaf_counts=sub_counts,
        column_start=starts,
    )


def build_star(num_leaves: int) -> RootedTree:
    """Root 0 with num_leaves children; the distributed one-shot topology."""
    if num_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    children = [tuple(range(1, num_leaves + 1))] + [()] * num_leaves
    return RootedTree(tuple(children), 0)


def build_chain(num_blocks: int) -> RootedTree:
    """The incremental topology: a spine of merge nodes, one fresh leaf per step.

    Merge node l has children [merge l-1, fresh leaf l-1], the root is the
    last merge, and the first block's leaf is the bottom of the spine.  Depth
    equals num_blocks and there are exactly num_blocks leaves.
    """
    if num_blocks < 1:
        raise ValueError("a chain needs at least one block")
    # ids go root-down in pairs: root 0, then (merge, fresh-leaf) = (2j-1, 2j);
    # the bottom merge's first child is the leaf holding block 1
    children: list[tuple[int, ...]] = [()] * (2 * num_blocks - 1)
    for j in range(num_blocks - 1):
        v = 0 if j == 0 else 2 * j - 1
        children[v] = (2 * j + 1, 2 * j + 2)
    return RootedTree(tuple(children), 0)


def build_balanced(num_blocks: int, depth: int) -> RootedTree:
    """Balanced n-ary tree with num_blocks leaves and `depth` branching levels.

    The arity is the smallest n with n**depth >= num_blocks.  Of the full
    n-ary tree only the nodes over the first num_blocks leaf slots are built,
    and a non-root node left with a single child is spliced out.  Node ids
    are breadth-first, parent before child.
    """
    if depth < 2:
        raise ValueError("balanced trees need depth >= 2; use a star or a single node instead")
    if num_blocks < 1:
        raise ValueError("need at least one block")
    n = 1
    while n**depth < num_blocks:
        n += 1

    # a node is (layer, index) of the full tree, layer 0 the root; node j on
    # layer i covers the leaf slots [j, j + 1) * n**(depth - i)
    def kept_children(i: int, j: int) -> list[tuple[int, int]]:
        if i == depth:
            return []
        first_dropped = -(-num_blocks // n ** (depth - i - 1))
        return [(i + 1, c) for c in range(j * n, min((j + 1) * n, first_dropped))]

    def spliced(node: tuple[int, int]) -> tuple[int, int]:
        while len(kids := kept_children(*node)) == 1:
            node = kids[0]
        return node

    children: list[tuple[int, ...]] = []
    queue = deque([(0, 0)])
    while queue:
        kids = [spliced(c) for c in kept_children(*queue.popleft())]
        # ids follow queue order: this node, then the queued ones, then kids
        first = len(children) + len(queue) + 1
        children.append(tuple(range(first, first + len(kids))))
        queue.extend(kids)
    return RootedTree(tuple(children), 0)


def format_tree_text(tree: RootedTree) -> str:
    """One line per node, ``<id> <child-id>*``, root first, parent before child."""
    problem = validate(tree)
    if problem is not None:
        raise ValueError(f"refusing to serialize an invalid tree: {problem}")
    lines = []
    queue = deque([tree.root])
    while queue:
        v = queue.popleft()
        lines.append(" ".join(str(x) for x in (v, *tree.children[v])))
        queue.extend(tree.children[v])
    return "\n".join(lines) + "\n"


def parse_tree_text(text: str) -> RootedTree:
    """Inverse of format_tree_text; the first line's id is the root."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
        rows.append((nums[0], nums[1:]))
    if not rows:
        raise ValueError("empty tree description")
    n = len(rows)
    seen_ids = sorted(v for v, _ in rows)
    if seen_ids != list(range(n)):
        raise ValueError(f"node ids must be exactly 0..{n - 1}, each once; got {seen_ids}")
    children: list[tuple[int, ...]] = [()] * n
    for v, kids in rows:
        children[v] = tuple(kids)
    tree = RootedTree(tuple(children), rows[0][0])
    problem = validate(tree)
    if problem is not None:
        raise ValueError(f"invalid tree: {problem}")
    return tree
