from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapod.hierarchy
from hapod import (
    InnerProductSpace,
    LeafAssignment,
    SnapshotBlock,
    ToleranceAssignment,
    assign_tolerances,
    build_balanced,
    build_chain,
    build_star,
    distribute_columns,
    plan,
    run_hapod,
    run_parallel,
)
from hapod.parallel import peak_resident_modes
from helpers import random_case


class TestPlan:
    def test_star(self):
        assert plan(build_star(4)).waves == ((1, 2, 3, 4), (0,))

    def test_chain(self):
        # leaves fire first, then each merge in turn
        assert plan(build_chain(3)).waves == ((2, 3, 4), (1,), (0,))

    def test_balanced_hundred(self):
        waves = plan(build_balanced(100, 2)).waves
        assert tuple(len(w) for w in waves) == (100, 10, 1)

    def test_single_node(self):
        from hapod import RootedTree
        assert plan(RootedTree(((),), 0)).waves == ((0,),)


class TestRunParallel:
    def make_case(self, seed=3, k=8, per_leaf=20, dim=40):
        rng = np.random.default_rng(seed)
        space = InnerProductSpace(dim)
        block = SnapshotBlock(space, rng.standard_normal((dim, per_leaf * k)))
        tree = build_star(k)
        leaves = distribute_columns(tree, block)
        tol = assign_tolerances(tree, leaves, 0.1)
        return tree, leaves, tol

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_matches_sequential(self, workers):
        tree, leaves, tol = self.make_case()
        seq = run_hapod(tree, leaves, tol)
        par, stats = run_parallel(tree, leaves, tol, worker_count=workers)
        assert par.mode_count == seq.mode_count
        assert np.allclose(par.modes.sigmas, seq.modes.sigmas, rtol=1e-12, atol=0)
        assert np.allclose(par.modes.modes, seq.modes.modes, rtol=1e-12, atol=1e-14)
        assert stats.peak_resident_modes >= par.mode_count

    def test_right_factor_matches_sequential(self):
        rng = np.random.default_rng(11)
        tree, maps, leaves, tol, _, _ = random_case(rng, max_nodes=12,
                                                    max_dim=30, max_cols=60)
        seq = run_hapod(tree, leaves, tol, track_right_factor=True)
        par, _ = run_parallel(tree, leaves, tol, worker_count=4,
                              track_right_factor=True)
        assert np.allclose(par.right_factor, seq.right_factor, rtol=1e-12, atol=1e-14)

    def test_stats_shapes(self):
        tree, leaves, tol = self.make_case(k=6)
        result, stats = run_parallel(tree, leaves, tol, worker_count=2)
        assert len(stats.wave_times) == 2
        assert set(stats.node_times) == set(range(tree.node_count))
        assert stats.critical_path_time <= stats.total_node_time + 1e-12
        assert stats.peak_resident_modes <= leaves.total_count + result.mode_count
        assert len(result.reports) == tree.node_count

    def test_rejects_zero_workers(self):
        tree, leaves, tol = self.make_case(k=2)
        with pytest.raises(ValueError):
            run_parallel(tree, leaves, tol, worker_count=0)

    def test_node_failure_is_named(self, monkeypatch):
        tree, leaves, tol = self.make_case(k=3)
        real = hapod.hierarchy.evaluate_node

        def explode(tree_, maps_, node, *rest):
            if node == 2:
                raise FloatingPointError("synthetic breakdown")
            return real(tree_, maps_, node, *rest)

        monkeypatch.setattr("hapod.parallel.evaluate_node", explode)
        with pytest.raises(FloatingPointError, match="node 2"):
            run_parallel(tree, leaves, tol, worker_count=4)


class TestWorkerCountInvariance:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_bit_identical_for_one_two_three_workers(self, seed):
        rng = np.random.default_rng(seed)
        tree, _, leaves, tol, _, _ = random_case(rng, max_nodes=20, max_dim=40, max_cols=120)
        runs = [run_parallel(tree, leaves, tol, worker_count=w, track_right_factor=True)[0]
                for w in (1, 2, 3)]
        first = runs[0]
        for other in runs[1:]:
            assert np.array_equal(other.modes.sigmas, first.modes.sigmas)
            assert np.array_equal(other.modes.modes, first.modes.modes)
            assert np.array_equal(other.right_factor, first.right_factor)
            assert [replace(r, wall_time=0.0) for r in other.reports] == [
                replace(r, wall_time=0.0) for r in first.reports]


class TestPeakResidentModes:
    def test_star_passthrough_counts(self):
        # epsilon 0 everywhere: leaves emit their raw columns (3 + 4), the
        # root emits all 7 while both children are still held
        space = InnerProductSpace(5)
        rng = np.random.default_rng(13)
        tree = build_star(2)
        leaves = LeafAssignment({
            1: SnapshotBlock(space, rng.standard_normal((5, 3))),
            2: SnapshotBlock(space, rng.standard_normal((5, 4))),
        })
        tol = ToleranceAssignment((0.0, 0.0, 0.0))
        result, stats = run_parallel(tree, leaves, tol)
        assert stats.peak_resident_modes == 14
        assert peak_resident_modes(tree, result.reports) == 14

    def test_chain_releases_between_waves(self):
        # passthrough chain over blocks of 2, 3, 4: wave peaks are 9 (all
        # leaves), 9 - released(2,3) + produced(5), then 4 + 5 + 9 at the root
        space = InnerProductSpace(5)
        rng = np.random.default_rng(17)
        tree = build_chain(3)
        from hapod import derive_maps
        maps = derive_maps(tree)
        sizes = dict(zip(maps.leaf_order, (2, 3, 4)))
        leaves = LeafAssignment({
            leaf: SnapshotBlock(space, rng.standard_normal((5, sizes[leaf])))
            for leaf in maps.leaf_order
        })
        tol = ToleranceAssignment((0.0,) * tree.node_count)
        result, stats = run_parallel(tree, leaves, tol)
        assert stats.peak_resident_modes == 18
