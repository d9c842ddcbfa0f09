import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import hapod.hierarchy
import hapod.parallel
from hapod import (
    IncrementalSession,
    InnerProductSpace,
    LeafAssignment,
    PodBackend,
    RootedTree,
    SessionError,
    SnapshotBlock,
    ToleranceAssignment,
    actual_mean_error,
    assign_tolerances,
    build_balanced,
    build_chain,
    build_star,
    certified_squared_error,
    derive_maps,
    distribute_columns,
    error_bound,
    pod,
    run_hapod,
    run_parallel,
    synthetic_decay,
)
from hapod.datagen import BurgersConfig, burgers_snapshots
from hapod.hierarchy import evaluate_node
from hapod.io import load_snapshots, write_matrix
from helpers import oracle_pod_count, random_case, span_residual_sq, stacked_leaf_columns, subtree_nodes

POD = importlib.import_module("hapod.pod")  # hapod.pod is the function


def star_case(rng, dim=12, per_leaf=25, k=4, weights=None):
    space = InnerProductSpace(dim, weights)
    block = SnapshotBlock(space, rng.standard_normal((dim, per_leaf * k)))
    tree = build_star(k)
    return tree, distribute_columns(tree, block), block


class TestAssignTolerances:
    def test_star_frozen_values(self):
        tree = build_star(4)
        tol = assign_tolerances(tree, {i: 25 for i in range(1, 5)}, 0.1, omega=0.75)
        assert tol.epsilons[0] == pytest.approx(0.75, abs=1e-12)
        for leaf in range(1, 5):
            assert tol.epsilons[leaf] == pytest.approx(0.33071891388307384, abs=1e-12)

    def test_chain_non_root_rule(self):
        tree = build_chain(3)
        maps = derive_maps(tree)
        counts = {leaf: 10 for leaf in maps.leaves}
        tol = assign_tolerances(tree, counts, 1.0, omega=0.6)
        assert tol.epsilons[tree.root] == pytest.approx(math.sqrt(30.0) * 0.6, rel=1e-12)
        # the mid merge sees 20 snapshots, every leaf 10, and the non-root
        # factor sqrt(1 - 0.6**2) = 0.8 splits over depth - 1 = 2 levels
        mid = [v for v in range(tree.node_count)
               if tree.children[v] and v != tree.root][0]
        assert tol.epsilons[mid] == pytest.approx(math.sqrt(10.0) * 0.8, rel=1e-12)
        for leaf in maps.leaves:
            assert tol.epsilons[leaf] == pytest.approx(math.sqrt(5.0) * 0.8, rel=1e-12)

    @pytest.mark.parametrize("omega", [0.0, -0.5, 1.5, float("nan")])
    def test_omega_outside_its_range_is_refused(self, omega):
        # omega = 0 would give the root epsilon 0, which hands back raw columns
        tree = build_chain(3)
        with pytest.raises(ValueError, match="omega"):
            assign_tolerances(tree, {leaf: 10 for leaf in derive_maps(tree).leaves}, 0.1, omega)
        with pytest.raises(ValueError, match="omega"):
            IncrementalSession(0.1, omega, 3)

    def test_nan_target_is_refused(self):
        # a NaN target would give NaN tolerances: no modes and a NaN bound
        with pytest.raises(ValueError, match="target"):
            IncrementalSession(float("nan"), 0.75, 3)
        with pytest.raises(ValueError, match="target"):
            assign_tolerances(build_star(2), {1: 3, 2: 3}, float("nan"))

    def test_squares_that_overflow_are_refused(self):
        # eps*^2 and every epsilon^2 must be finite, or the budgets overflow
        with pytest.raises(ValueError, match="target must be positive with a finite square"):
            IncrementalSession(1e200, 0.75, 3)
        with pytest.raises(ValueError, match="target must be positive with a finite square"):
            assign_tolerances(build_star(2), {1: 3, 2: 3}, 1e200)
        # the target squares, but the root's sqrt(40) * 0.75 * 1e154 does not
        tree = build_chain(4)
        with pytest.raises(ValueError, match="finite square, got 4.74"):
            assign_tolerances(tree, {leaf: 10 for leaf in derive_maps(tree).leaves}, 1e154)
        with pytest.raises(ValueError, match="finite square"):
            ToleranceAssignment((0.1, 1e200))

    def test_omega_one_zeroes_everything_but_root(self):
        tree = build_star(3)
        tol = assign_tolerances(tree, {1: 4, 2: 4, 3: 4}, 0.5, omega=1.0)
        assert tol.epsilons[0] == pytest.approx(math.sqrt(12) * 0.5)
        assert all(e == 0.0 for e in tol.epsilons[1:])

    def test_zero_leaf_tolerance(self):
        tree = build_chain(3)
        maps = derive_maps(tree)
        tol = assign_tolerances(tree, {leaf: 5 for leaf in maps.leaves}, 0.2,
                                omega=0.5, zero_leaf_tolerance=True)
        for leaf in maps.leaves:
            assert tol.epsilons[leaf] == 0.0
        for v in range(tree.node_count):
            if tree.children[v]:
                assert tol.epsilons[v] > 0.0

    def test_single_node_gets_the_root_share(self):
        # a one-node tree is its root: omega * target of the budget, at any omega
        tree = RootedTree(((),), 0)
        tol = assign_tolerances(tree, {0: 10}, 0.1, omega=0.75)
        assert tol.epsilons[0] == pytest.approx(0.75 * math.sqrt(10) * 0.1)
        tol = assign_tolerances(tree, {0: 10}, 0.1, omega=1.0)
        assert tol.epsilons[0] == pytest.approx(math.sqrt(10) * 0.1)

    def test_rejects_bad_inputs(self):
        tree = build_star(2)
        counts = {1: 3, 2: 3}
        with pytest.raises(ValueError):
            assign_tolerances(tree, counts, 0.0)
        with pytest.raises(ValueError):
            assign_tolerances(tree, counts, 0.1, omega=1.5)
        with pytest.raises(ValueError):
            assign_tolerances(tree, {1: 3}, 0.1)
        with pytest.raises(ValueError):
            assign_tolerances(tree, {1: 0, 2: 0}, 0.1)

    def test_tolerance_assignment_validation(self):
        with pytest.raises(ValueError):
            ToleranceAssignment((0.1, -0.2))
        with pytest.raises(ValueError):
            ToleranceAssignment((float("nan"),))


class TestDistributeColumns:
    def test_even_split(self):
        space = InnerProductSpace(4)
        block = SnapshotBlock(space, np.arange(4.0 * 10).reshape(4, 10))
        leaves = distribute_columns(build_star(3), block)
        counts = leaves.counts()
        assert sorted(counts.values(), reverse=True) == [4, 3, 3]
        assert counts[1] == 4  # first leaf in depth-first order takes the extra

    def test_explicit_counts_follow_leaf_order(self):
        space = InnerProductSpace(2)
        block = SnapshotBlock(space, np.arange(2.0 * 6).reshape(2, 6))
        tree = build_chain(3)
        maps = derive_maps(tree)
        leaves = distribute_columns(tree, block, counts=[1, 2, 3])
        got = [leaves.blocks[leaf].count for leaf in maps.leaf_order]
        assert got == [1, 2, 3]
        joined = np.hstack([leaves.blocks[leaf].values for leaf in maps.leaf_order])
        assert np.array_equal(joined, block.values)

    def test_block_size_chunks(self):
        space = InnerProductSpace(3)
        block = SnapshotBlock(space, np.zeros((3, 25)))
        leaves = distribute_columns(build_chain(3), block, block_size=10)
        assert sorted(leaves.counts().values()) == [5, 10, 10]

    def test_leaves_are_not_scanned_again(self, monkeypatch):
        # leaves are views in either memory order
        blocks = [SnapshotBlock(InnerProductSpace(3), np.arange(3.0 * 12).reshape(3, 12, order=order))
                  for order in ("F", "C")]
        scans = []
        real_check = SnapshotBlock.__post_init__

        def counting_check(b):
            scans.append(b.count)
            real_check(b)

        monkeypatch.setattr(SnapshotBlock, "__post_init__", counting_check)
        for block in blocks:
            leaves = distribute_columns(build_star(4), block)
            assert scans == []
            for leaf in leaves.blocks.values():
                assert np.shares_memory(leaf.values, block.values)
                assert not leaf.values.flags.writeable

    def test_rejects_bad_partitions(self):
        space = InnerProductSpace(2)
        block = SnapshotBlock(space, np.zeros((2, 6)))
        tree = build_star(3)
        with pytest.raises(ValueError):
            distribute_columns(tree, block, counts=[3, 3])
        with pytest.raises(ValueError):
            distribute_columns(tree, block, counts=[4, 4, -2])
        with pytest.raises(ValueError):
            distribute_columns(tree, block, counts=[2, 2, 2], block_size=2)
        with pytest.raises(ValueError):
            distribute_columns(tree, block, block_size=4)  # 2 chunks, 3 leaves

    def test_block_size_gives_a_zero_column_block_one_leaf(self):
        block = SnapshotBlock(InnerProductSpace(3), np.zeros((3, 0)))
        assert distribute_columns(build_chain(1), block, block_size=5).counts() == {0: 0}
        with pytest.raises(ValueError):
            distribute_columns(build_chain(2), block, block_size=5)


class TestErrorBound:
    def test_star_frozen_value(self):
        tree = build_star(4)
        tol = assign_tolerances(tree, {i: 25 for i in range(1, 5)}, 0.1, omega=0.75)
        assert error_bound(tree, tol) == pytest.approx(1.0, rel=1e-12)

    def test_leaf_scope_is_its_own_epsilon(self):
        tree = build_star(2)
        tol = ToleranceAssignment((0.5, 0.3, 0.4))
        assert error_bound(tree, tol, node=1) == pytest.approx(0.3)
        assert error_bound(tree, tol, node=0) == pytest.approx(
            math.sqrt(0.25 + 0.09 + 0.16))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            error_bound(build_star(2), ToleranceAssignment((0.1, 0.2)))

    def test_chain_bounds_match_a_walk_of_the_subtree(self):
        tree = build_chain(300)
        block = SnapshotBlock(InnerProductSpace(8), np.random.default_rng(2).standard_normal((8, 300)))
        leaves = distribute_columns(tree, block, block_size=1)
        tol = assign_tolerances(tree, leaves, 0.1, 0.75)
        result = run_hapod(tree, leaves, tol)
        walked = math.sqrt(sum(tol.epsilons[u] ** 2 for u in subtree_nodes(tree, tree.root)))
        assert result.apriori_error_bound == pytest.approx(walked, rel=1e-12)
        for v in (tree.children[tree.root][0], derive_maps(tree).leaf_order[0]):
            walked = math.sqrt(sum(tol.epsilons[u] ** 2 for u in subtree_nodes(tree, v)))
            assert error_bound(tree, tol, node=v) == pytest.approx(walked, rel=1e-12)


class TestActualMeanError:
    def test_zero_for_full_span(self):
        rng = np.random.default_rng(5)
        block = SnapshotBlock(InnerProductSpace(6), rng.standard_normal((6, 4)))
        out = pod(block, 1e-12)
        assert actual_mean_error(block, out) <= 1e-20

    def test_empty_modes_give_mean_energy(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((5, 3))
        block = SnapshotBlock(InnerProductSpace(5), vals)
        empty = pod(SnapshotBlock(block.space, np.zeros((5, 0))), 0.5)
        expected = float(np.sum(vals * vals)) / 3
        assert actual_mean_error(block, empty) == pytest.approx(expected, rel=1e-12)

    def test_zero_column_block_has_no_error(self):
        rng = np.random.default_rng(8)
        modes = pod(SnapshotBlock(InnerProductSpace(5), rng.standard_normal((5, 3))), 0.1)
        assert actual_mean_error(SnapshotBlock(modes.space, np.zeros((5, 0))), modes) == 0.0

    def test_matches_column_loop_oracle(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.5, 2.0, 7)
        space = InnerProductSpace(7, w)
        block = SnapshotBlock(space, rng.standard_normal((7, 9)))
        out = pod(block, 1.0)
        ref = span_residual_sq(block.values, out.modes, w) / 9
        assert actual_mean_error(block, out) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_batches_match_one_residual(self, weighted):
        # 40000 x 60 is 19.2 MB: five row panels of 8000 rows
        rng = np.random.default_rng(13)
        dim, cols = 40000, 60
        w = rng.uniform(0.5, 2.0, dim) if weighted else None
        space = InnerProductSpace(dim, w)
        block = SnapshotBlock(space, rng.standard_normal((dim, 4)) @ rng.standard_normal((4, cols))
                              + 1e-3 * rng.standard_normal((dim, cols)))
        out = pod(block, 0.5)
        assert 0 < out.count < cols
        resid = block.values - out.modes @ space.gram(out.modes, block.values)
        ref = float(np.sum(space.norms_sq(resid))) / cols
        assert actual_mean_error(block, out) == pytest.approx(ref, rel=1e-12)

    def test_mapped_batches_reach_blas_aligned(self, tmp_path, monkeypatch):
        # an .hpd payload sits 23 bytes into the file: every row panel is
        # copied to aligned memory, so the result is the in-memory one, bit for bit
        rng = np.random.default_rng(17)
        path = tmp_path / "tall.hpd"
        write_matrix(path, rng.standard_normal((3000, 5)) @ rng.standard_normal((5, 900))
                     + 1e-3 * rng.standard_normal((3000, 900)))
        mapped = load_snapshots(path)
        assert not mapped.values.flags.aligned
        in_memory = SnapshotBlock(mapped.space, np.array(mapped.values))
        out = pod(in_memory, 0.5)
        ref = actual_mean_error(in_memory, out)
        aligned, real = [], InnerProductSpace.gram

        def spy(space, a, b):
            aligned.append(b.flags.aligned)
            return real(space, a, b)

        monkeypatch.setattr(InnerProductSpace, "gram", spy)
        assert actual_mean_error(mapped, out) == ref
        assert len(aligned) == len(POD._row_panels(3000, 900))
        assert all(aligned)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_batches_far_from_rounding_take_one_product(self, monkeypatch, weighted):
        # ||S||^2_W - ||U^T W S||^2_F summed over the row panels, no residual formed
        rng = np.random.default_rng(23)
        dim, cols = 300, 50
        w = rng.uniform(0.5, 2.0, dim) if weighted else None
        space = InnerProductSpace(dim, w)
        block = SnapshotBlock(space, rng.standard_normal((dim, 4)) @ rng.standard_normal((4, cols))
                              + 0.3 * rng.standard_normal((dim, cols)))
        out = pod(block, 30.0)
        assert 0 < out.count < cols
        monkeypatch.setattr(POD, "BATCH_BYTES", 8 * 60 * cols)  # five row panels
        assert len(POD._row_panels(dim, cols)) == 5
        resid = block.values - out.modes @ space.gram(out.modes, block.values)
        ref = float(np.sum(space.norms_sq(resid))) / cols
        subtractions, real = [], np.subtract
        monkeypatch.setattr(np, "subtract", lambda *a, **k: subtractions.append(1) or real(*a, **k))
        got = actual_mean_error(block, out)
        assert subtractions == []
        assert got == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_batches_near_rounding_measure_the_residual(self, monkeypatch, weighted):
        # columns inside the span leave a rounding-level error, which the
        # difference of two energies cannot resolve: a second pass sums the
        # explicit residual, one subtraction per row panel
        rng = np.random.default_rng(29)
        dim, cols = 300, 50
        w = rng.uniform(0.5, 2.0, dim) if weighted else None
        space = InnerProductSpace(dim, w)
        block = SnapshotBlock(space, rng.standard_normal((dim, 6)) @ rng.standard_normal((6, cols)))
        out = pod(block, 1e-6)
        assert out.count == 6
        monkeypatch.setattr(POD, "BATCH_BYTES", 8 * 60 * cols)  # five row panels
        assert len(POD._row_panels(dim, cols)) == 5
        resid = block.values - out.modes @ space.gram(out.modes, block.values)
        ref = float(np.sum(space.norms_sq(resid))) / cols
        energy = float(np.sum(space.norms_sq(block.values))) / cols
        subtractions, real = [], np.subtract
        monkeypatch.setattr(np, "subtract", lambda *a, **k: subtractions.append(1) or real(*a, **k))
        got = actual_mean_error(block, out)
        assert len(subtractions) == 5
        assert 0.0 <= got <= 1e-20 * energy
        assert abs(got - ref) <= 1e-24 * energy

    @pytest.mark.parametrize("dim, cols", [(8000, 300), (400, 4000)], ids=["tall", "wide"])
    def test_one_panel_at_a_time(self, tmp_path, monkeypatch, dim, cols):
        # a mapped block in 1 MiB row panels: the calling thread holds one
        # aligned panel copy and its k x n product, and the running sum
        # U^T W S; 64 KiB of slack for NumPy's temporaries.  A wide block's
        # k x m product would outgrow a panel, so it runs in column groups
        # of n columns
        path = tmp_path / "block.hpd"
        write_matrix(path, synthetic_decay(dim, cols, 0.05, seed=0).values)
        mapped = load_snapshots(path)
        out = pod(SnapshotBlock(mapped.space, np.array(mapped.values)), 0.5)
        k = out.count
        ref = actual_mean_error(mapped, out)
        monkeypatch.setattr(POD, "BATCH_BYTES", 2**20)
        groups = POD._row_panels(cols, k)
        n = max(b - a for a, b in groups)
        assert (len(groups) > 1) == (cols > dim)
        assert len(POD._row_panels(dim, n)) > 2
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = actual_mean_error(mapped, out)
            added = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(ref, rel=1e-12)
        assert 0 < k < min(dim, cols)
        assert added <= POD.BATCH_BYTES + 8 * k * n + 8 * k * n + 64 * 1024

    def test_rejects_passthrough_modes(self):
        block = SnapshotBlock(InnerProductSpace(3), np.eye(3))
        raw = pod(block, 0.0)
        with pytest.raises(ValueError):
            actual_mean_error(block, raw)

    def test_rejects_other_spaces(self):
        block = SnapshotBlock(InnerProductSpace(3), np.eye(3))
        modes = pod(block, 0.5)
        with pytest.raises(ValueError, match="different spaces"):
            actual_mean_error(SnapshotBlock(InnerProductSpace(3, np.full(3, 2.0)), np.eye(3)), modes)


class TestStackedInput:
    def test_interior_peak_below_the_stacked_input(self):
        # four children of 40 modes in R^40000: stacked, the root's input
        # would take 51 MB; it is written one row panel of about 4 MiB at a
        # time, and only for as long as that panel is in use
        rng = np.random.default_rng(19)
        dim, k, n = 40000, 4, 40
        space = InnerProductSpace(dim)
        tree = build_star(k)
        maps = derive_maps(tree, {leaf: n for leaf in tree.children[tree.root]})
        leaves = LeafAssignment({leaf: SnapshotBlock(space, np.zeros((dim, 0)))
                                 for leaf in tree.children[tree.root]})
        sigmas = np.exp(-0.3 * np.arange(n))
        children = [POD._NodeOutput(np.linalg.qr(rng.standard_normal((dim, n)))[0], sigmas, sigmas, 0.0)
                    for _ in range(k)]
        tol = ToleranceAssignment((0.5,) + (0.0,) * k)
        stacked_bytes = 8 * dim * k * n
        tracemalloc.start()
        try:
            out, _, report = evaluate_node(tree, maps, tree.root, tol, PodBackend(), leaves,
                                           children, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.input_count == k * n
        assert 0 < out.count < k * n
        assert peak < stacked_bytes / 2


class TestFactoredLeaves:
    """A leaf below the root on the tall "gram" route that truncates hands its
    parent its own columns S and its right vectors psi; S psi, its scaled
    modes, is never formed."""

    @pytest.fixture(scope="class")
    def mapped(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("factored") / "tall.hpd"
        write_matrix(path, synthetic_decay(12000, 240, 0.05, seed=0).values)
        return load_snapshots(path)

    @staticmethod
    def star(block):
        tree = build_star(6)
        leaves = distribute_columns(tree, block, block_size=40)
        return tree, leaves, assign_tolerances(tree, leaves, 1e-2, 0.75)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_star_peaks_below_half_its_leaf_modes(self, mapped, monkeypatch, workers):
        # 1 MiB panels keep the root's own working set small next to the six
        # leaves' 12000 x 37 modes (21 MB), which used to wait for the root
        monkeypatch.setattr(POD, "BATCH_BYTES", 2**20)
        tree, leaves, tol = self.star(mapped)
        tracemalloc.start()
        try:
            result, _ = run_parallel(tree, leaves, tol, worker_count=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = [result.report_for(leaf).output_mode_count for leaf in leaves.blocks]
        assert all(0 < k < 40 for k in kept)
        assert peak < 8 * mapped.space.dimension * sum(kept) / 2

    def test_truncating_leaf_shares_the_map(self, mapped):
        tree, leaves, tol = self.star(mapped)
        maps = derive_maps(tree, leaves.counts())
        leaf = maps.leaf_order[0]
        block = leaves.blocks[leaf]
        out, lhat, report = evaluate_node(tree, maps, leaf, tol, PodBackend(), leaves, [], True)
        assert np.shares_memory(out.columns, mapped.values)
        assert lhat is out.coef
        assert out.coef.shape == (40, out.count)
        assert 0 < out.count == report.output_mode_count < 40
        ref = pod(block, tol.epsilons[leaf], want_right=True)
        assert np.array_equal(out.sigmas, ref.sigmas)
        assert out.tail_energy == report.discarded_tail_energy == ref.tail_energy
        # psi as the solve left it, before the sign convention
        assert np.array_equal(np.abs(out.coef), np.abs(ref.right))
        scaled = np.asarray(block.values) @ out.coef
        assert np.allclose(np.abs(scaled), np.abs(ref.scaled()), rtol=0.0, atol=1e-12 * ref.sigmas[0])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_root_matches_the_two_stage_formula(self, monkeypatch, weighted):
        rng = np.random.default_rng(113)
        dim, per, k = 600, 20, 4
        weights = rng.uniform(0.5, 2.0, dim) if weighted else None
        block = SnapshotBlock(InnerProductSpace(dim, weights), synthetic_decay(dim, per * k, 0.2, seed=5).values)
        tree = build_star(k)
        leaves = distribute_columns(tree, block)
        tol = assign_tolerances(tree, leaves, 1e-2, 0.75)
        # three row panels per leaf, about eight at the root
        monkeypatch.setattr(POD, "BATCH_BYTES", 8 * dim * 8)
        assert len(POD._row_panels(dim, per)) == 3
        finished, real = [], POD._fix_signs
        monkeypatch.setattr(POD, "_fix_signs", lambda modes, *a, **kw: finished.append(modes.shape)
                            or real(modes, *a, **kw))
        runs = [run_parallel(tree, leaves, tol, worker_count=w, track_right_factor=True)[0]
                for w in (1, 2, 3)]
        # no leaf forms, mends or sign-fixes modes: only the root does
        assert finished == [(dim, runs[0].mode_count)] * 3
        monkeypatch.undo()
        result = runs[0]
        for other in runs[1:]:
            assert np.array_equal(other.modes.sigmas, result.modes.sigmas)
            assert np.array_equal(other.modes.modes, result.modes.modes)
            assert np.array_equal(other.right_factor, result.right_factor)
        assert all(0 < result.report_for(leaf).output_mode_count < per for leaf in leaves.blocks)
        # each leaf's modes formed and scaled, then the root's POD of them
        kids = [pod(leaves.blocks[leaf], tol.epsilons[leaf], want_right=True)
                for leaf in tree.children[tree.root]]
        stacked = SnapshotBlock(block.space, np.hstack([ms.scaled() for ms in kids]))
        ref = pod(stacked, tol.epsilons[tree.root], want_right=True)
        assert result.mode_count == ref.count
        assert np.allclose(result.modes.sigmas, ref.sigmas, rtol=1e-12, atol=0.0)
        assert np.allclose(result.modes.modes, ref.modes, rtol=0.0, atol=1e-12 * np.max(np.abs(ref.modes)))
        lhat = scipy.linalg.block_diag(*[ms.right for ms in kids]) @ ref.right
        assert np.allclose(result.right_factor, lhat, rtol=0.0, atol=1e-12)


class TestRunHapod:
    def test_single_node_equals_flat_pod(self):
        rng = np.random.default_rng(11)
        block = SnapshotBlock(InnerProductSpace(8), rng.standard_normal((8, 12)))
        tree = RootedTree(((),), 0)
        result = run_hapod(tree, LeafAssignment({0: block}), ToleranceAssignment((0.8,)))
        ref = pod(block, 0.8)
        assert result.mode_count == ref.count
        assert np.allclose(result.modes.sigmas, ref.sigmas, rtol=1e-12, atol=0)
        assert np.allclose(result.modes.modes, ref.modes, rtol=1e-12, atol=1e-14)

    def test_star_matches_two_stage_formula(self):
        rng = np.random.default_rng(13)
        tree, leaves, block = star_case(rng)
        tol = assign_tolerances(tree, leaves, 0.1, omega=0.75)
        result = run_hapod(tree, leaves, tol)

        stages = []
        for leaf in (1, 2, 3, 4):
            out = pod(leaves.blocks[leaf], tol.epsilons[leaf])
            stages.append(out.scaled())
        ref = pod(SnapshotBlock(block.space, np.hstack(stages)), tol.epsilons[0])
        assert result.mode_count == ref.count
        assert np.allclose(result.modes.sigmas, ref.sigmas, rtol=1e-9)

    def test_chain_matches_sequential_formula(self):
        rng = np.random.default_rng(17)
        k = 4
        space = InnerProductSpace(10)
        blocks = [SnapshotBlock(space, rng.standard_normal((10, c)))
                  for c in (6, 3, 8, 5)]
        target, omega = 0.2, 0.6
        tree = build_chain(k)
        maps = derive_maps(tree)
        assignment = LeafAssignment(dict(zip(maps.leaf_order, blocks)))
        tol = assign_tolerances(tree, assignment, target, omega=omega,
                                zero_leaf_tolerance=True)
        result = run_hapod(tree, assignment, tol)

        # independent bottom-up recursion straight from the tolerance rule
        seen = blocks[0].count
        carried = blocks[0].values
        sigmas = np.ones(blocks[0].count)
        for j in range(1, k):
            seen += blocks[j].count
            if j < k - 1:
                eps = math.sqrt(seen) * math.sqrt(1 - omega**2) / math.sqrt(k - 1) * target
            else:
                eps = math.sqrt(seen) * omega * target
            joined = np.hstack([carried * sigmas[None, :], blocks[j].values])
            out = pod(SnapshotBlock(space, joined), eps)
            carried, sigmas = out.modes, out.sigmas
        assert result.mode_count == len(sigmas)
        assert np.allclose(result.modes.sigmas, sigmas, rtol=1e-9)

    def test_bounds_hold_on_random_cases(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            tree, maps, leaves, tol, data, space = random_case(rng, max_nodes=12,
                                                               max_dim=40, max_cols=80)
            result = run_hapod(tree, leaves, tol)
            total_sq = float(np.sum(space.weigh(data) ** 2))
            resid = span_residual_sq(data, result.modes.modes,
                                     space.weights if space.weights is not None else None)
            bound = error_bound(tree, tol, maps=maps)
            assert resid <= bound * bound + 1e-8 * max(total_sq, 1.0)
            cap = oracle_pod_count(
                data, tol.epsilons[tree.root],
                space.weights if space.weights is not None else None)
            assert result.mode_count <= cap

    def test_reports_bookkeeping(self):
        rng = np.random.default_rng(23)
        tree, leaves, _ = star_case(rng, k=3, per_leaf=7)
        tol = assign_tolerances(tree, leaves, 0.3)
        result = run_hapod(tree, leaves, tol)
        assert len(result.reports) == tree.node_count
        by_node = {r.node: r for r in result.reports}
        for leaf in (1, 2, 3):
            assert by_node[leaf].is_leaf
            assert by_node[leaf].input_count == 7
            assert by_node[leaf].subordinate_count == 7
        root = by_node[0]
        assert not root.is_leaf
        assert root.subordinate_count == 21
        assert root.input_count == sum(by_node[leaf].output_mode_count
                                       for leaf in (1, 2, 3))
        assert root.output_mode_count == result.mode_count
        assert all(r.wall_time >= 0.0 for r in result.reports)
        assert result.report_for(2) == by_node[2]
        with pytest.raises(KeyError, match="no report for node 4"):
            result.report_for(4)

    def test_rejects_mismatched_inputs(self):
        rng = np.random.default_rng(29)
        tree, leaves, _ = star_case(rng, k=2, per_leaf=3)
        with pytest.raises(ValueError):
            run_hapod(tree, leaves, ToleranceAssignment((0.1, 0.1)))
        with pytest.raises(ValueError, match="empty"):
            LeafAssignment({})
        missing = LeafAssignment({1: leaves.blocks[1]})
        with pytest.raises(ValueError):
            run_hapod(tree, missing, ToleranceAssignment((0.1, 0.1, 0.1)))
        extra = LeafAssignment({**leaves.blocks, 0: leaves.blocks[1]})
        with pytest.raises(ValueError):
            run_hapod(tree, extra, ToleranceAssignment((0.1, 0.1, 0.1)))

    def test_leaf_assignment_rejects_mixed_spaces(self):
        a = SnapshotBlock(InnerProductSpace(3), np.zeros((3, 1)))
        b = SnapshotBlock(InnerProductSpace(3, np.array([1.0, 2.0, 1.0])), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            LeafAssignment({1: a, 2: b})


class TestRightFactor:
    def test_properties_on_random_cases(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            tree, maps, leaves, tol, _, space = random_case(rng, max_nodes=10,
                                                            max_dim=30, max_cols=60)
            result = run_hapod(tree, leaves, tol, track_right_factor=True)
            lhat = result.right_factor
            stacked = stacked_leaf_columns(maps, leaves)
            assert lhat.shape == (stacked.shape[1], result.mode_count)
            if result.mode_count:
                drift = np.max(np.abs(lhat.T @ lhat - np.eye(result.mode_count)))
                assert drift <= 1e-8
            approx = (result.modes.modes * result.modes.sigmas[None, :]) @ lhat.T
            resid = stacked - approx
            if space.weights is not None:
                resid = resid * np.sqrt(space.weights)[:, None]
            bound = error_bound(tree, tol, maps=maps)
            total_sq = float(np.sum(space.weigh(stacked) ** 2))
            assert float(np.sum(resid * resid)) <= bound * bound + 1e-8 * max(total_sq, 1.0)

    def test_rows_follow_depth_first_leaf_order(self):
        # keep everything (tiny tolerances) so the product reproduces each
        # snapshot column; any row permutation mistake shows up immediately
        rng = np.random.default_rng(37)
        tree = build_chain(3)
        maps = derive_maps(tree)
        space = InnerProductSpace(6)
        blocks = {leaf: SnapshotBlock(space, rng.standard_normal((6, 2 + i)))
                  for i, leaf in enumerate(maps.leaf_order)}
        leaves = LeafAssignment(blocks)
        tol = ToleranceAssignment((1e-10,) * tree.node_count)
        result = run_hapod(tree, leaves, tol, track_right_factor=True)
        stacked = stacked_leaf_columns(maps, leaves)
        approx = (result.modes.modes * result.modes.sigmas[None, :]) @ result.right_factor.T
        assert np.allclose(approx, stacked, atol=1e-8)

    def test_merge_matches_block_diagonal_product(self):
        # each node hands back only its own right vectors, here with a child
        # that kept no modes; the run stacks the block-diagonal product, in
        # which a child that passes its columns through (psi None) is I
        rng = np.random.default_rng(43)
        space = InnerProductSpace(10, rng.uniform(0.5, 2.0, 10))
        tree = build_star(3)
        leaves = LeafAssignment({
            1: SnapshotBlock(space, rng.standard_normal((10, 6))),
            2: SnapshotBlock(space, 1e-3 * rng.standard_normal((10, 4))),
            3: SnapshotBlock(space, rng.standard_normal((10, 8))),
        })
        tol = ToleranceAssignment((0.3, 0.5, 1.0, 0.5))
        maps = derive_maps(tree, leaves.counts())
        kids = [evaluate_node(tree, maps, c, tol, PodBackend(), leaves, [], True)
                for c in tree.children[tree.root]]
        assert [out.count == 0 for out, _, _ in kids] == [False, True, False]
        out, psi, report = evaluate_node(tree, maps, tree.root, tol, PodBackend(), leaves,
                                         [kid for kid, _, _ in kids], True)
        assert psi is out.right
        assert psi.shape == (report.input_count, out.count)
        ref = scipy.linalg.block_diag(*[np.eye(rep.input_count) if own is None else own
                                        for _, own, rep in kids]) @ psi
        lhat = run_hapod(tree, leaves, tol, track_right_factor=True).right_factor
        assert lhat.shape == ref.shape == (18, out.count)
        assert np.allclose(lhat, ref, rtol=1e-12, atol=0.0)

    def test_each_node_returns_only_its_own_right_vectors(self, monkeypatch):
        # psi has one row per input column of the node, not one per
        # snapshot below it; None is the identity of a node that passes its
        # columns through
        block = synthetic_decay(30, 6 * 12, 0.1, seed=3)
        tree = build_chain(6)
        leaves = distribute_columns(tree, block, block_size=12)
        tol = assign_tolerances(tree, leaves, 1e-2, 0.75)
        shapes, real = [], hapod.parallel.evaluate_node

        def record(*args, **kwargs):
            out, psi, report = real(*args, **kwargs)
            shape = (report.input_count,) * 2 if psi is None else psi.shape
            shapes.append((shape, (report.input_count, report.output_mode_count)))
            return out, psi, report

        monkeypatch.setattr(hapod.parallel, "evaluate_node", record)
        result, _ = run_parallel(tree, leaves, tol, track_right_factor=True)
        assert len(shapes) == tree.node_count
        assert all(got == want for got, want in shapes)
        assert any(report.input_count < report.subordinate_count for report in result.reports)
        assert result.right_factor.shape == (block.count, result.mode_count)

    @pytest.mark.parametrize("topology", ["star", "chain", "balanced"])
    def test_wide_nodes_give_an_orthonormal_factor(self, topology):
        # 50 x 3000 at eps* = 1e-7: the factor drifted by up to 6.5e-7 while
        # wide nodes' right vectors went unmended
        block = synthetic_decay(50, 3000, 0.4, seed=2)
        tree = {"star": build_star(6), "chain": build_chain(6), "balanced": build_balanced(12, 2)}[topology]
        leaves = distribute_columns(tree, block)
        tol = assign_tolerances(tree, leaves, 1e-7, 0.75)
        result, _ = run_parallel(tree, leaves, tol, worker_count=2, track_right_factor=True)
        lhat, k = result.right_factor, result.mode_count
        assert lhat.shape == (3000, k) and k > 20
        assert np.max(np.abs(lhat.T @ lhat - np.eye(k))) <= 1e-12
        resid = block.values - (result.modes.modes * result.modes.sigmas[None, :]) @ lhat.T
        assert float(np.sum(resid * resid)) <= certified_squared_error(result.reports)

    @pytest.mark.parametrize("shape", ["one-node", "star-with-empty-leaf"])
    def test_one_node_and_empty_leaf_trees(self, shape):
        rng = np.random.default_rng(47)
        space = InnerProductSpace(8)
        if shape == "one-node":
            tree = RootedTree(((),), 0)
            blocks = {0: SnapshotBlock(space, rng.standard_normal((8, 5)))}
        else:
            tree = build_star(3)
            blocks = {1: SnapshotBlock(space, rng.standard_normal((8, 4))),
                      2: SnapshotBlock(space, np.zeros((8, 0))),
                      3: SnapshotBlock(space, rng.standard_normal((8, 6)))}
        leaves = LeafAssignment(blocks)
        tol = assign_tolerances(tree, leaves, 0.1, 1.0 if shape == "one-node" else 0.75)
        runs = [run_parallel(tree, leaves, tol, worker_count=w, track_right_factor=True)[0]
                for w in (1, 2)]
        lhat = runs[0].right_factor
        assert np.array_equal(runs[1].right_factor, lhat)
        stacked = stacked_leaf_columns(derive_maps(tree, leaves.counts()), leaves)
        assert lhat.shape == (stacked.shape[1], runs[0].mode_count) and runs[0].mode_count > 0
        assert np.max(np.abs(lhat.T @ lhat - np.eye(runs[0].mode_count))) <= 1e-8
        resid = stacked - (runs[0].modes.modes * runs[0].modes.sigmas[None, :]) @ lhat.T
        assert float(np.sum(resid * resid)) <= runs[0].apriori_error_bound ** 2 + 1e-12
        if shape == "one-node":
            ref = pod(blocks[0], tol.epsilons[0], want_right=True)
            assert np.array_equal(lhat, ref.right)

    def test_disabled_by_default(self):
        rng = np.random.default_rng(41)
        tree, leaves, _ = star_case(rng, k=2, per_leaf=4)
        tol = assign_tolerances(tree, leaves, 0.5)
        assert run_hapod(tree, leaves, tol).right_factor is None


class TestPassthroughLeaves:
    """Leaves below the root whose tolerance lies under their smallest
    sigma hand their columns on raw instead of decomposing them."""

    def case(self, weights=None):
        # 40 x 10 Gaussian leaves have sigmas near 3, far above their
        # tolerance of about 0.1
        rng = np.random.default_rng(107)
        block = SnapshotBlock(InnerProductSpace(40, weights), rng.standard_normal((40, 160)))
        tree = build_balanced(16, 2)
        leaves = distribute_columns(tree, block)
        return tree, leaves, assign_tolerances(tree, leaves, 0.05)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_eigensolve_per_non_leaf_node(self, monkeypatch, weighted):
        weights = np.random.default_rng(109).uniform(0.5, 2.0, 40) if weighted else None
        tree, leaves, tol = self.case(weights)
        calls = []
        real = POD._descending_eigh
        monkeypatch.setattr(POD, "_descending_eigh", lambda *a, **k: calls.append(1) or real(*a, **k))
        result = run_hapod(tree, leaves, tol)
        assert len(calls) == sum(1 for kids in tree.children if kids) == 5
        for leaf, block in leaves.blocks.items():
            report = result.report_for(leaf)
            assert report.output_mode_count == block.count == 10
            assert report.discarded_tail_energy == 0.0
        space = leaves.space
        assert result.modes.orthonormal
        g = space.gram(result.modes.modes, result.modes.modes)
        assert np.max(np.abs(g - np.eye(result.mode_count))) <= 1e-10

        def explicit(v):
            # every node decomposed, the leaves included
            if not tree.children[v]:
                return pod(leaves.blocks[v], tol.epsilons[v])
            stacked = np.hstack([explicit(c).scaled() for c in tree.children[v]])
            return pod(SnapshotBlock(space, stacked), tol.epsilons[v])

        ref = explicit(tree.root)
        assert result.mode_count == ref.count
        assert np.allclose(result.modes.sigmas, ref.sigmas, rtol=1e-10, atol=0.0)

    def test_passthrough_leaves_stack_unscaled(self, monkeypatch):
        tree, leaves, tol = self.case()
        real, scales = SnapshotBlock._stack, []

        def spy(space, parts):
            scales.append([scale for _, scale in parts])
            return real(space, parts)

        monkeypatch.setattr(SnapshotBlock, "_stack", staticmethod(spy))
        run_hapod(tree, leaves, tol)
        # four interior nodes over raw leaves, then the root over their modes
        assert [[scale is None for scale in node] for node in scales] == [[True] * 4] * 4 + [[False] * 4]

    def test_root_leaf_is_decomposed(self):
        rng = np.random.default_rng(111)
        block = SnapshotBlock(InnerProductSpace(40), rng.standard_normal((40, 10)))
        tree = RootedTree(((),), 0)
        result = run_hapod(tree, LeafAssignment({0: block}), ToleranceAssignment((0.1,)))
        assert result.modes.orthonormal and result.mode_count == 10
        g = result.modes.modes.T @ result.modes.modes
        assert np.max(np.abs(g - np.eye(10))) <= 1e-10


class TestIncrementalSession:
    def test_burgers_merges_come_out_orthonormal_without_householder(self, monkeypatch):
        # the merges' modes S psi / sigma drift by up to u * sigma_1^2 /
        # sigma_r^2; one Cholesky step of their Gramian, not a QR, mends them
        data = burgers_snapshots(BurgersConfig(grid_size=200, step_count=2000,
                                               spark_probability=1e-2, seed=5))
        merged = []
        for name in ("pod", "block_gramian_pod"):
            real = getattr(hapod.hierarchy, name)
            monkeypatch.setattr(hapod.hierarchy, name,
                                lambda *a, real=real, **k: merged.append(real(*a, **k)) or merged[-1])
        qr_calls = []
        real_qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or real_qr(*a, **k))
        session = IncrementalSession(1e-3, 0.75, planned_block_count=20)
        for a in range(0, 2000, 100):
            session.push(SnapshotBlock(data.space, data.values[:, a : a + 100]))
        session.finalize()
        merged = [ms for ms in merged if ms.orthonormal]
        assert len(merged) == 19 and qr_calls == []
        for ms in merged:
            gram = data.space.gram(ms.modes, ms.modes)
            assert np.max(np.abs(gram - np.eye(ms.count))) <= 1e-12

    def test_single_block_equals_flat_pod(self):
        rng = np.random.default_rng(43)
        block = SnapshotBlock(InnerProductSpace(9), rng.standard_normal((9, 14)))
        session = IncrementalSession(0.2, 0.75, planned_block_count=1)
        session.push(block)
        result = session.finalize()
        ref = pod(block, math.sqrt(14) * 0.75 * 0.2)
        assert result.mode_count == ref.count
        assert np.allclose(result.modes.sigmas, ref.sigmas, rtol=1e-12)

    def test_single_block_matches_one_node_chain_run(self):
        # one tolerance rule: the session and assign_tolerances give a
        # one-node chain the same root tolerance, hence the same result
        block = SnapshotBlock(InnerProductSpace(9), np.random.default_rng(43).standard_normal((9, 14)))
        session = IncrementalSession(0.2, 0.75, planned_block_count=1)
        session.push(block)
        inc = session.finalize()
        tree = build_chain(1)
        assignment = LeafAssignment({tree.root: block})
        tol = assign_tolerances(tree, assignment, 0.2, 0.75, zero_leaf_tolerance=True)
        ref = run_hapod(tree, assignment, tol)
        assert [replace(r, wall_time=0.0) for r in inc.reports] == \
            [replace(r, wall_time=0.0) for r in ref.reports]
        assert [r.local_epsilon for r in inc.reports] == list(tol.epsilons)
        assert inc.apriori_error_bound == ref.apriori_error_bound
        assert np.array_equal(inc.modes.sigmas, ref.modes.sigmas)

    @pytest.mark.parametrize("counts", [(6, 3, 8, 5), (4, 0, 7, 2)])
    def test_matches_chain_run(self, counts):
        rng = np.random.default_rng(47)
        space = InnerProductSpace(10)
        blocks = [SnapshotBlock(space, rng.standard_normal((10, c))) for c in counts]
        target, omega = 0.15, 0.75
        k = len(blocks)

        session = IncrementalSession(target, omega, planned_block_count=k,
                                     backend=PodBackend("gram"))
        for b in blocks:
            session.push(b)
        inc = session.finalize()

        tree = build_chain(k)
        maps = derive_maps(tree)
        assignment = LeafAssignment(dict(zip(maps.leaf_order, blocks)))
        tol = assign_tolerances(tree, assignment, target, omega=omega,
                                zero_leaf_tolerance=True)
        ref = run_hapod(tree, assignment, tol, backend=PodBackend("gram"))

        assert inc.mode_count == ref.mode_count
        assert np.allclose(inc.modes.sigmas, ref.modes.sigmas, rtol=1e-9)
        assert inc.apriori_error_bound == pytest.approx(ref.apriori_error_bound,
                                                        rel=1e-12)
        # merge reports carry the same node ids as the chain run
        inc_eps = {r.node: r.local_epsilon for r in inc.reports}
        ref_eps = {r.node: r.local_epsilon for r in ref.reports}
        assert inc_eps == pytest.approx(ref_eps)
        fields = ("input_count", "subordinate_count", "output_mode_count")
        inc_counts = {r.node: tuple(getattr(r, f) for f in fields) for r in inc.reports}
        ref_counts = {r.node: tuple(getattr(r, f) for f in fields) for r in ref.reports}
        assert inc_counts == ref_counts

    def test_svd_session_never_squares(self, monkeypatch):
        rng = np.random.default_rng(41)
        space = InnerProductSpace(30)
        blocks = [SnapshotBlock(space, rng.standard_normal((30, 8))) for _ in range(5)]
        target, omega, backend = 0.4, 0.75, PodBackend("svd")
        tree = build_chain(len(blocks))
        assignment = LeafAssignment(dict(zip(derive_maps(tree).leaf_order, blocks)))
        tol = assign_tolerances(tree, assignment, target, omega=omega, zero_leaf_tolerance=True)
        ref = run_hapod(tree, assignment, tol, backend=backend)

        calls = []
        real = POD._descending_eigh
        monkeypatch.setattr(POD, "_descending_eigh", lambda *a, **k: calls.append(1) or real(*a, **k))
        session = IncrementalSession(target, omega, planned_block_count=len(blocks), backend=backend)
        for b in blocks:
            session.push(b)
        inc = session.finalize()
        assert calls == []
        assert inc.mode_count == ref.mode_count
        assert np.allclose(inc.modes.sigmas, ref.modes.sigmas, rtol=1e-12)

    def test_early_finalize_keeps_guarantee(self):
        rng = np.random.default_rng(53)
        space = InnerProductSpace(12)
        blocks = [SnapshotBlock(space, rng.standard_normal((12, 9))) for _ in range(3)]
        target = 0.5
        session = IncrementalSession(target, 0.75, planned_block_count=10)
        for b in blocks:
            session.push(b)
        result = session.finalize()
        joined = SnapshotBlock(space, np.hstack([b.values for b in blocks]))
        assert actual_mean_error(joined, result.modes) <= target * target
        assert result.report_for(0).local_epsilon == pytest.approx(
            math.sqrt(27) * 0.75 * target)

    def test_session_misuse_raises(self):
        rng = np.random.default_rng(59)
        space = InnerProductSpace(4)
        block = SnapshotBlock(space, rng.standard_normal((4, 3)))
        session = IncrementalSession(0.1, 0.5, planned_block_count=2)
        session.push(block)
        session.push(block)
        with pytest.raises(SessionError):
            session.push(block)
        session.finalize()
        with pytest.raises(SessionError):
            session.finalize()
        with pytest.raises(SessionError):
            session.push(block)

        empty = IncrementalSession(0.1, 0.5, planned_block_count=2)
        with pytest.raises(SessionError):
            empty.finalize()

    def test_only_empty_blocks_raise_as_the_chain_run_does(self):
        empty = SnapshotBlock(InnerProductSpace(5), np.zeros((5, 0)))
        tree = build_chain(2)
        assignment = LeafAssignment(dict(zip(derive_maps(tree).leaf_order, [empty, empty])))
        with pytest.raises(ValueError) as chain:
            tol = assign_tolerances(tree, assignment, 0.1, 0.75, zero_leaf_tolerance=True)
            run_hapod(tree, assignment, tol)
        session = IncrementalSession(0.1, 0.75, planned_block_count=2)
        session.push(empty)
        session.push(empty)
        with pytest.raises(ValueError) as info:
            session.finalize()
        assert str(info.value) == str(chain.value) == "no snapshots anywhere in the tree"

    def test_refused_push_leaves_the_session_unchanged(self):
        # a block whose Gramian overflows is refused, and the session goes on
        # as if it had never been pushed
        rng = np.random.default_rng(61)
        space = InnerProductSpace(20)
        blocks = [SnapshotBlock(space, rng.standard_normal((20, 10))) for _ in range(3)]
        clean, refused = (IncrementalSession(0.1, 0.75, planned_block_count=3) for _ in range(2))
        clean.push(blocks[0])
        refused.push(blocks[0])
        with pytest.raises(np.linalg.LinAlgError, match="overflows"):
            refused.push(SnapshotBlock(space, blocks[1].values * 1e160))
        for b in blocks[1:]:
            clean.push(b)
            refused.push(b)
        want, got = clean.finalize(), refused.finalize()
        assert [replace(r, wall_time=0.0) for r in got.reports] == \
            [replace(r, wall_time=0.0) for r in want.reports]
        assert got.apriori_error_bound == want.apriori_error_bound
        assert np.array_equal(got.modes.sigmas, want.modes.sigmas)

    def test_rejects_space_change_mid_stream(self):
        session = IncrementalSession(0.1, 0.5, planned_block_count=3)
        session.push(SnapshotBlock(InnerProductSpace(4), np.zeros((4, 2))))
        other = SnapshotBlock(InnerProductSpace(4, np.full(4, 2.0)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            session.push(other)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            IncrementalSession(0.0, 0.5, 3)
        with pytest.raises(ValueError):
            IncrementalSession(0.1, 1.2, 3)
        with pytest.raises(ValueError):
            IncrementalSession(0.1, 0.5, 0)

    def test_set_up_memory_is_linear_in_planned_blocks(self):
        # the maps keep a few entries per node of the 7999-node chain; a table
        # of every node's subtree would hold about 16 million ids
        tracemalloc.start()
        try:
            IncrementalSession(0.1, 0.75, planned_block_count=4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCertificate:
    """The tails the nodes discarded, with each node's rounding allowance,
    bound the error the run actually leaves."""

    TARGET = 1e-2

    @staticmethod
    def allowance(reports):
        u = float(np.finfo(np.float64).eps)
        return sum(u * r.input_count * r.input_energy for r in reports)

    @pytest.mark.parametrize("shape", ["star", "balanced", "chain"])
    def test_tails_bound_the_measured_error(self, shape):
        block = synthetic_decay(60, 600, 0.05, 11)
        tree = {"star": build_star(6), "balanced": build_balanced(6, 2), "chain": build_chain(6)}[shape]
        leaves = distribute_columns(tree, block)
        result = run_hapod(tree, leaves, assign_tolerances(tree, leaves, self.TARGET))
        certified = result.aposteriori_error_bound ** 2
        assert certified == pytest.approx(certified_squared_error(result.reports), rel=1e-12)
        assert 0.0 < block.count * actual_mean_error(block, result.modes) <= certified
        assert certified <= block.count * self.TARGET ** 2
        assert all(r.input_energy > 0.0 for r in result.reports)

    def test_session_bound_matches_the_chain_run(self):
        rng = np.random.default_rng(71)
        blocks = [SnapshotBlock(InnerProductSpace(30), rng.standard_normal((30, 30)) * np.exp(-0.2 * np.arange(30)))
                  for _ in range(5)]
        session = IncrementalSession(self.TARGET, 0.75, planned_block_count=len(blocks))
        for b in blocks:
            session.push(b)
        inc = session.finalize()
        joined = SnapshotBlock(blocks[0].space, np.hstack([b.values for b in blocks]))
        assert 0.0 < joined.count * actual_mean_error(joined, inc.modes) <= inc.aposteriori_error_bound ** 2

        tree = build_chain(len(blocks))
        assignment = LeafAssignment(dict(zip(derive_maps(tree).leaf_order, blocks)))
        tol = assign_tolerances(tree, assignment, self.TARGET, zero_leaf_tolerance=True)
        ref = run_hapod(tree, assignment, tol)
        # the bottom leaf and the later leaves pass their blocks through and decompose nothing
        for r in (*inc.reports, *ref.reports):
            assert (r.input_energy == 0.0) == (r.local_epsilon == 0.0)
        slack = self.allowance(inc.reports) + self.allowance(ref.reports)
        assert abs(inc.aposteriori_error_bound ** 2 - ref.aposteriori_error_bound ** 2) <= slack


class TestOmegaTradeoff:
    def test_root_count_bounded_and_monotone(self):
        block = synthetic_decay(40, 120, 0.15, seed=2)
        tree = build_star(6)
        leaves = distribute_columns(tree, block)
        target = 0.05
        flat_counts = []
        for omega in (0.1, 0.5, 0.75, 0.95):
            tol = assign_tolerances(tree, leaves, target, omega=omega)
            result = run_hapod(tree, leaves, tol)
            cap = oracle_pod_count(block.values, math.sqrt(120) * omega * target)
            flat_counts.append(cap)
            assert result.mode_count <= cap
            assert actual_mean_error(block, result.modes) <= target * target
        assert flat_counts == sorted(flat_counts, reverse=True)
