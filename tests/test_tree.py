import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hapod.tree import (
    RootedTree,
    build_balanced,
    build_chain,
    build_star,
    derive_maps,
    format_tree_text,
    parse_tree_text,
    validate,
)
from helpers import random_tree, subtree_nodes


def naive_levels(tree):
    """Recursive level oracle: leaves sit at 1, a parent one above its children."""
    def level(v):
        kids = tree.children[v]
        if not kids:
            return 1
        return 1 + max(level(c) for c in kids)
    return tuple(level(v) for v in range(tree.node_count))


parent_arrays = st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, 10**6), min_size=n - 1, max_size=n - 1)))


# arbitrary child lists over a few node ids, most of them not trees: ids out
# of range, repeated children, cycles and roots that are children
arbitrary_child_lists = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-1, n + 1), max_size=3).map(tuple), min_size=n, max_size=n).map(tuple),
        st.integers(-1, n + 1)))


def is_tree(children, root):
    """Oracle: every non-root id is a child exactly once and the root reaches all."""
    n = len(children)
    listed = sorted(c for kids in children for c in kids)
    if not 0 <= root < n or listed != [v for v in range(n) if v != root]:
        return False
    reached, todo = set(), [root]
    while todo:
        v = todo.pop()
        if v in reached:
            return False
        reached.add(v)
        todo.extend(children[v])
    return len(reached) == n


def tree_from_draw(draw):
    n, raw = draw
    children = [[] for _ in range(n)]
    for v, r in enumerate(raw, start=1):
        children[r % v].append(v)
    return RootedTree(tuple(tuple(c) for c in children), 0)


class TestValidate:
    def test_builders_are_valid(self):
        for tree in (build_star(1), build_star(7), build_chain(1), build_chain(6),
                     build_balanced(1, 3), build_balanced(100, 2), build_balanced(37, 3)):
            assert validate(tree) is None

    def test_duplicate_parent_named(self):
        msg = validate(RootedTree(((1, 2), (2,), ()), 0))
        assert msg is not None
        assert "node 2" in msg

    def test_self_child(self):
        msg = validate(RootedTree(((0, 1), ()), 0))
        assert msg is not None

    def test_root_with_parent(self):
        msg = validate(RootedTree(((1,), (0,)), 0))
        assert msg is not None
        assert "root" in msg

    def test_unreachable_node(self):
        msg = validate(RootedTree(((1,), (), ()), 0))
        assert msg is not None
        assert "2" in msg

    def test_child_out_of_range(self):
        msg = validate(RootedTree(((5,),), 0))
        assert msg is not None

    def test_root_out_of_range(self):
        msg = validate(RootedTree(((),), 3))
        assert msg is not None

    @given(arbitrary_child_lists)
    @example(((), 0))
    @example((((3,), ()), 0))
    @example((((1, 2), (2,), ()), 0))
    @example((((1,), (), (3,), (2,)), 0))
    @example((((1,), ()), 2))
    @example((((1,), (0,)), 1))
    def test_one_verdict_for_validate_and_derive_maps(self, drawn):
        children, root = drawn
        tree = RootedTree(children, root)
        problem = validate(tree)
        assert (problem is None) == is_tree(children, root)
        if problem is None:
            assert sorted(derive_maps(tree).post_order) == list(range(len(children)))
        else:
            with pytest.raises(ValueError) as info:
                derive_maps(tree)
            assert str(info.value) == f"invalid tree: {problem}"


class TestDeriveMaps:
    def test_star_shape(self):
        tree = build_star(4)
        maps = derive_maps(tree)
        assert maps.leaves == (1, 2, 3, 4)
        assert maps.leaf_order == (1, 2, 3, 4)
        assert maps.level == (2, 1, 1, 1, 1)
        assert maps.depth == 2
        assert maps.parent[1] == 0
        assert maps.parent[0] == -1
        counts = {1: 2, 2: 0, 3: 1, 4: 3}
        full = derive_maps(tree, counts)
        assert full.column_start == (0, 0, 2, 2, 3)
        assert full.columns(0) == slice(0, sum(counts.get(u, 0) for u in subtree_nodes(tree, 0)))

    def test_single_node(self):
        maps = derive_maps(RootedTree(((),), 0))
        assert maps.depth == 1
        assert maps.leaves == (0,)

    def test_chain_leaf_order_is_temporal(self):
        maps = derive_maps(build_chain(5))
        assert maps.leaf_order == (7, 8, 6, 4, 2)
        assert maps.depth == 5

    @given(parent_arrays)
    def test_levels_match_recursion(self, draw):
        tree = tree_from_draw(draw)
        assert derive_maps(tree).level == naive_levels(tree)

    @given(parent_arrays)
    def test_edge_and_leaf_bookkeeping(self, draw):
        tree = tree_from_draw(draw)
        assert validate(tree) is None
        maps = derive_maps(tree)
        assert sum(len(c) for c in tree.children) == tree.node_count - 1
        assert sorted(maps.leaf_order) == sorted(maps.leaves)
        for v in range(tree.node_count):
            assert (maps.level[v] == 1) == (v in maps.leaves)

    def test_subordinate_counts_additive(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            tree = random_tree(rng, int(rng.integers(1, 25)))
            maps = derive_maps(tree)
            counts = {leaf: int(rng.integers(0, 9)) for leaf in maps.leaves}
            full = derive_maps(tree, counts)
            for v in range(tree.node_count):
                ref = sum(counts[u] for u in subtree_nodes(tree, v) if u in counts)
                assert full.subordinate_leaf_counts[v] == ref
            assert full.subordinate_leaf_counts[tree.root] == sum(counts.values())

    def test_column_ranges_tile_in_leaf_and_child_order(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(1, 30)))
            assert derive_maps(tree).column_start is None
            order = [u for u in subtree_nodes(tree, tree.root) if not tree.children[u]]
            counts = {leaf: int(rng.integers(0, 9)) for leaf in order}
            maps = derive_maps(tree, counts)
            start, count = maps.column_start, maps.subordinate_leaf_counts
            at = 0
            for leaf in order:
                assert start[leaf] == at
                at += counts[leaf]
            assert (start[tree.root], count[tree.root]) == (0, at)
            for v, kids in enumerate(tree.children):
                at = start[v]
                for c in kids:
                    assert start[c] == at
                    at += count[c]
                assert at == start[v] + (count[v] if kids else 0)
                assert maps.columns(v) == slice(start[v], start[v] + count[v])

    def test_missing_leaf_count_raises(self):
        with pytest.raises(ValueError, match="leaf"):
            derive_maps(build_star(2), {1: 3})


class TestBuilders:
    def test_star(self):
        tree = build_star(3)
        assert tree.children == ((1, 2, 3), (), (), ())
        assert build_star(1).node_count == 2
        with pytest.raises(ValueError):
            build_star(0)

    def test_chain_structure(self):
        assert build_chain(1).node_count == 1
        tree = build_chain(4)
        assert tree.node_count == 7
        maps = derive_maps(tree)
        assert maps.depth == 4
        assert len(maps.leaves) == 4
        for v in range(tree.node_count):
            assert len(tree.children[v]) in (0, 2)
        with pytest.raises(ValueError):
            build_chain(0)

    def test_balanced_hundred_blocks_two_levels(self):
        tree = build_balanced(100, 2)
        maps = derive_maps(tree)
        assert len(maps.leaves) == 100
        assert maps.depth == 3
        assert len(tree.children[tree.root]) == 10
        for c in tree.children[tree.root]:
            assert len(tree.children[c]) == 10

    def test_balanced_hundred_blocks_three_levels(self):
        # smallest n with n^3 >= 100 is 5
        tree = build_balanced(100, 3)
        maps = derive_maps(tree)
        assert len(maps.leaves) == 100
        assert maps.depth == 4
        interior_arities = {len(tree.children[v])
                            for v in range(tree.node_count)
                            if tree.children[v] and v != tree.root}
        assert max(interior_arities) == 5

    def test_balanced_single_block(self):
        tree = build_balanced(1, 4)
        assert tree.node_count == 2
        assert derive_maps(tree).depth == 2

    def test_balanced_prunes_and_collapses(self):
        for blocks in (2, 3, 5, 7, 11, 63, 64, 65):
            for depth in (2, 3):
                tree = build_balanced(blocks, depth)
                assert validate(tree) is None
                maps = derive_maps(tree)
                assert len(maps.leaves) == blocks
                assert maps.depth <= depth + 1
                for v in range(tree.node_count):
                    if v != tree.root:
                        assert len(tree.children[v]) != 1

    @pytest.mark.parametrize("shape, interior, leaf_count", [
        ((7, 2), ((1, 2, 3), (4, 5, 6), (7, 8, 9)), 7),
        ((11, 3), ((1, 2), (3, 4, 5), (6, 7), (8, 9, 10), (11, 12, 13), (14, 15, 16)), 11),
        ((65, 3), ((1, 2, 3), tuple(range(4, 9)), tuple(range(9, 14)), (14, 15, 16))
         + tuple(tuple(range(17 + 5 * k, 22 + 5 * k)) for k in range(13)), 65),
        # the shape of the benchmark's synthetic-balanced tree
        ((80, 2), (tuple(range(1, 10)),) + tuple(tuple(range(10 + 9 * k, 19 + 9 * k)) for k in range(8))
         + (tuple(range(82, 90)),), 80),
    ])
    def test_balanced_pinned_shapes(self, shape, interior, leaf_count):
        tree = build_balanced(*shape)
        assert tree.root == 0
        assert tree.children == interior + ((),) * leaf_count

    def test_balanced_rejects_shallow_depth(self):
        with pytest.raises(ValueError):
            build_balanced(10, 1)

    def test_balanced_arity_is_exact_integer_root(self):
        # 10^2 = 100 must give arity 10, not 11 from a float rounding up
        tree = build_balanced(100, 2)
        assert len(tree.children[tree.root]) == 10
        tree = build_balanced(64, 3)
        assert len(tree.children[tree.root]) == 4


class TestTextFormat:
    def test_round_trip_builders(self):
        for tree in (build_star(5), build_chain(4), build_balanced(9, 2)):
            again = parse_tree_text(format_tree_text(tree))
            assert again.children == tree.children
            assert again.root == tree.root

    @given(parent_arrays)
    def test_round_trip_random(self, draw):
        tree = tree_from_draw(draw)
        text = format_tree_text(tree)
        again = parse_tree_text(text)
        assert again.children == tree.children
        assert again.root == tree.root

    def test_root_is_first_line(self):
        tree = build_chain(3)
        first = format_tree_text(tree).strip().splitlines()[0]
        assert first.split()[0] == str(tree.root)

    def test_parse_rejects_duplicate_id(self):
        with pytest.raises(ValueError):
            parse_tree_text("0 1\n1\n1\n")

    def test_parse_rejects_gap_in_ids(self):
        with pytest.raises(ValueError):
            parse_tree_text("0 2\n2\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_tree_text("0 x\n")

    def test_parse_rejects_invalid_structure(self):
        with pytest.raises(ValueError):
            parse_tree_text("0 1\n1 0\n")
