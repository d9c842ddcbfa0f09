import importlib
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hapod.hierarchy
from hapod import (
    InnerProductSpace,
    NodeReport,
    RootedTree,
    SnapshotBlock,
    assign_tolerances,
    build_balanced,
    build_chain,
    build_star,
    critical_path_time,
    derive_maps,
    distribute_columns,
    run_hapod,
    run_parallel,
    synthetic_decay,
)
from hapod.io import load_snapshots, write_matrix
from hapod.parallel import _pooled_spread
from helpers import random_case


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
        par, _ = run_parallel(tree, leaves, tol, worker_count=workers)
        assert par.mode_count == seq.mode_count
        assert np.allclose(par.modes.sigmas, seq.modes.sigmas, rtol=1e-12, atol=0)
        assert np.allclose(par.modes.modes, seq.modes.modes, rtol=1e-12, atol=1e-14)

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
        assert stats.critical_path_time <= stats.total_node_time + 1e-12
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


    def test_panel_failure_is_named(self, monkeypatch):
        # a panel that fails on a helper thread fails its node, not the pool
        pod_module = importlib.import_module("hapod.pod")
        block = SnapshotBlock(InnerProductSpace(200), synthetic_decay(200, 60, 0.3, seed=4).values)
        tree = build_star(3)
        leaves = distribute_columns(tree, block)
        tol = assign_tolerances(tree, leaves, 1e-9)
        # leaves of 20 columns in 5 panels of 40 rows, taller than wide, so
        # the pool runs them; leaf 2's last one fails
        monkeypatch.setattr(pod_module, "BATCH_BYTES", 8 * 40 * 20)
        last = leaves.blocks[2].values[-40:]
        real = pod_module.gramian

        def fail_last_panel(b):
            if b.values.shape == last.shape and np.array_equal(b.values, last):
                raise FloatingPointError("synthetic breakdown")
            return real(b)

        monkeypatch.setattr(pod_module, "gramian", fail_last_panel)
        with pytest.raises(FloatingPointError, match="node 2"):
            run_parallel(tree, leaves, tol, worker_count=2)


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

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_with_wide_nodes(self, weighted, monkeypatch):
        # 12 rows against leaves of 20 columns and merges of dozens: every
        # node decomposes through the 12 x 12 correlation matrix, first in
        # one panel, then with 10-column panels, which split the root too
        pod_module = importlib.import_module("hapod.pod")
        dim = 12
        weights = np.random.default_rng(5).uniform(0.5, 2.0, dim) if weighted else None
        data = synthetic_decay(dim, 320, 0.3, seed=9).values
        block = SnapshotBlock(InnerProductSpace(dim, weights), data)
        tree = build_balanced(16, 2)
        leaves = distribute_columns(tree, block, block_size=20)
        tol = assign_tolerances(tree, leaves, 1e-4)
        for panels in (1, 2):
            if panels > 1:
                monkeypatch.setattr(pod_module, "BATCH_BYTES", 8 * dim * 10)
            runs = [run_parallel(tree, leaves, tol, worker_count=w, track_right_factor=True)[0]
                    for w in (1, 2, 3)]
            assert all(r.input_count > dim for r in runs[0].reports)
            root = runs[0].report_for(tree.root)
            assert len(pod_module._row_panels(root.input_count, dim)) >= panels
            for other in runs[1:]:
                assert np.array_equal(other.modes.sigmas, runs[0].modes.sigmas)
                assert np.array_equal(other.modes.modes, runs[0].modes.modes)
                assert np.array_equal(other.right_factor, runs[0].right_factor)


    def test_bit_identical_with_panelled_nodes(self, monkeypatch):
        # 65536 rows and 8 MiB panels: the leaves of 20 columns split into 2
        # row panels each, the root over 4 x 20 modes into 5, so panels of a
        # node run on idle workers whenever there are any
        pod_module = importlib.import_module("hapod.pod")
        monkeypatch.setattr(pod_module, "BATCH_BYTES", 2**23)
        dim = 2**16
        data = synthetic_decay(dim, 80, 0.2, seed=21).values
        block = SnapshotBlock(InnerProductSpace(dim), data)
        tree = build_star(4)
        leaves = distribute_columns(tree, block, block_size=20)
        tol = assign_tolerances(tree, leaves, 1e-9)
        assert len(pod_module._row_panels(dim, 20)) == 2
        runs = [run_parallel(tree, leaves, tol, worker_count=w, track_right_factor=True)[0]
                for w in (1, 2, 3)]
        root = runs[0].report_for(tree.root)
        assert len(pod_module._row_panels(dim, root.input_count)) == 5
        for other in runs[1:]:
            assert np.array_equal(other.modes.sigmas, runs[0].modes.sigmas)
            assert np.array_equal(other.modes.modes, runs[0].modes.modes)
            assert np.array_equal(other.right_factor, runs[0].right_factor)


    def test_bit_identical_with_passthrough_leaves(self):
        # 40 x 10 Gaussian leaves keep every column, so all 16 hand their
        # raw columns and identity right factors to their parents
        rng = np.random.default_rng(113)
        block = SnapshotBlock(InnerProductSpace(40), rng.standard_normal((40, 160)))
        tree = build_balanced(16, 2)
        leaves = distribute_columns(tree, block)
        tol = assign_tolerances(tree, leaves, 0.05)
        runs = [run_parallel(tree, leaves, tol, worker_count=w, track_right_factor=True)[0]
                for w in (1, 2, 3)]
        assert all(runs[0].report_for(leaf).discarded_tail_energy == 0.0
                   and runs[0].report_for(leaf).output_mode_count == 10 for leaf in leaves.blocks)
        # the factor still reproduces the snapshots within the a-priori bound
        first = runs[0]
        resid = block.values - (first.modes.modes * first.modes.sigmas[None, :]) @ first.right_factor.T
        assert float(np.sum(resid * resid)) <= first.apriori_error_bound ** 2
        for other in runs[1:]:
            assert np.array_equal(other.modes.sigmas, runs[0].modes.sigmas)
            assert np.array_equal(other.modes.modes, runs[0].modes.modes)
            assert np.array_equal(other.right_factor, runs[0].right_factor)


class TestPooledSpread:
    def test_owners_filling_the_pool_finish_alone(self):
        # eight owners take all eight threads of the pool, so the panels
        # they submit queue behind them and each owner must run its own; a
        # short switch interval interleaves the submissions and
        # cancellations.  Every panel must run exactly once and come back in
        # panel order.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                spread = _pooled_spread(pool, 7)
                hits = [[0] * 200 for _ in range(8)]

                def owner(o):
                    def panel(p):
                        hits[o][p] += 1
                        time.sleep(0)
                        return o * 1000 + p
                    taken = []
                    spread(panel, 200, taken.append)
                    return taken

                owners = [pool.submit(owner, o) for o in range(8)]
                results = [f.result(timeout=60) for f in owners]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[o * 1000 + p for p in range(200)] for o in range(8)]
        assert hits == [[1] * 200] * 8

    def test_results_are_handed_on_in_order_and_dropped(self):
        # panels of random length on four threads: take sees every result
        # once, in panel order, one call at a time, and no finished result
        # outlives its turn
        rng = np.random.default_rng(5)
        delays = rng.uniform(0.0, 2e-3, 120)
        alive, taken, inside = weakref.WeakSet(), [], []

        class Part:
            def __init__(self, p):
                self.p = p

        def panel(p):
            time.sleep(delays[p])
            part = Part(p)
            alive.add(part)
            return part

        def take(part):
            inside.append(1)
            assert len(inside) == 1
            taken.append(part.p)
            inside.pop()

        with ThreadPoolExecutor(4) as pool:
            _pooled_spread(pool, 3)(panel, 120, take)
        assert taken == list(range(120))
        assert len(alive) == 0

    def test_take_runs_on_the_calling_thread(self):
        # panels of random length on four threads, so helpers often finish
        # the panel due next; take is still called by the caller alone
        rng = np.random.default_rng(8)
        delays = rng.uniform(0.0, 2e-3, 120)
        ran, took = set(), []

        def panel(p):
            time.sleep(delays[p])
            ran.add(threading.get_ident())
            return p

        def take(p):
            took.append((p, threading.get_ident()))

        with ThreadPoolExecutor(4) as pool:
            _pooled_spread(pool, 3)(panel, 120, take)
        assert [p for p, _ in took] == list(range(120))
        assert {t for _, t in took} == {threading.get_ident()}
        assert len(ran) > 1

    def test_parks_at_most_one_result_per_helper(self):
        # the first panel a pool thread runs is held until the last panel
        # has run, or for half a second: no panel may start once `helpers`
        # results wait behind it, so the rest never runs on ahead
        count, caller = 20, threading.get_ident()
        holding, release, lock = threading.Event(), threading.Event(), threading.Lock()
        finished, taken, ahead = set(), [], []

        def panel(p):
            if threading.get_ident() == caller:
                holding.wait(timeout=5.0)
            elif not holding.is_set():
                holding.set()
                release.wait(timeout=0.5)
            if p == count - 1:
                release.set()
            with lock:
                finished.add(p)
                # finished, and behind a panel not yet handed on
                ahead.append(sum(q > len(taken) for q in finished))
            return p

        def take(p):
            with lock:
                taken.append(p)

        with ThreadPoolExecutor(2) as pool:
            _pooled_spread(pool, 1)(panel, count, take)
        assert holding.is_set()
        assert taken == list(range(count))
        assert max(ahead) <= 1

    def test_parking_bound_holds_under_contention(self):
        # six threads on fewer cores and a short switch interval: every
        # panel runs once, the results come back in order, and no more than
        # `helpers` results ever finish ahead of their turn
        count, helpers = 300, 5
        lock = threading.Lock()
        ran, finished, taken, ahead = [], set(), [], []

        def panel(p):
            time.sleep(0)
            with lock:
                ran.append(p)
                finished.add(p)
                ahead.append(sum(q > len(taken) for q in finished))
            return p

        def take(p):
            with lock:
                taken.append(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(helpers + 1) as pool:
                runner = threading.Thread(target=_pooled_spread(pool, helpers), args=(panel, count, take))
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert taken == list(range(count))
        assert sorted(ran) == list(range(count))
        assert max(ahead) <= helpers

    def test_failing_take_waits_for_the_claimed_panels(self):
        # take fails on the first result while pool threads still run the
        # panels submitted ahead of it; spread raises only once those have
        # finished, and starts nothing after the failure
        started, finished = set(), set()

        def panel(p):
            started.add(p)
            if p:
                time.sleep(0.02)
            finished.add(p)
            return p

        def take(p):
            raise KeyError(p)

        with ThreadPoolExecutor(4) as pool:
            with pytest.raises(KeyError) as caught:
                _pooled_spread(pool, 3)(panel, 100, take)
            assert finished == started
            assert caught.value.args == (0,)
            assert len(started) < 100

    def test_a_panel_the_caller_took_over_fails_in_its_turn(self):
        # one pool thread busy with panel 1 while the caller waits for it:
        # the caller cancels queued panel 2, runs it itself, and its error
        # is raised in panel 2's turn, after panels 0 and 1 were handed on
        caller, ran_by, taken = threading.get_ident(), {}, []

        def panel(p):
            ran_by[p] = threading.get_ident()
            if p == 1:
                time.sleep(0.2)
            if p == 2:
                raise KeyError(p)
            return p

        with ThreadPoolExecutor(1) as pool:
            with pytest.raises(KeyError) as caught:
                _pooled_spread(pool, 2)(panel, 6, taken.append)
        assert caught.value.args == (2,)
        assert taken == [0, 1]
        assert ran_by[2] == caller != ran_by[1]

    def test_a_full_window_holds_no_pool_thread(self):
        # one pool thread and one helper: the pool runs panel 1 while the
        # calling thread runs panel 0, so the window is full for as long as
        # panel 0 runs.  A task submitted to the same pool from inside panel
        # 0 must still find the thread free, not held by a waiting helper.
        caller, first, taken = threading.get_ident(), [], []
        with ThreadPoolExecutor(1) as pool:
            def panel(p):
                if threading.get_ident() == caller and not first:
                    first.append(p)
                    time.sleep(0.2)
                    pool.submit(int).result(timeout=2.0)
                return p

            _pooled_spread(pool, 1)(panel, 10, taken.append)
        assert first
        assert taken == list(range(10))

    def test_window_in_bytes_on_a_mapped_star(self, tmp_path):
        # a mapped tall star whose 679-column root runs 1334 x 679 panels,
        # taller than wide, on the pool.  A second worker may add one panel
        # in flight and one partial Gramian waiting for its turn per helper,
        # and 64 KiB of slack for the pool's and the futures' bookkeeping.
        path = tmp_path / "tall.hpd"
        write_matrix(path, synthetic_decay(8000, 800, 0.05, seed=0).values)
        block = load_snapshots(path)
        tree = build_star(20)
        leaves = distribute_columns(tree, block, block_size=40)
        tol = assign_tolerances(tree, leaves, 1e-2, 0.75)
        peaks = {}
        for workers in (1, 2):
            tracemalloc.start()
            try:
                result, _ = run_parallel(tree, leaves, tol, worker_count=workers)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        m = result.report_for(tree.root).input_count
        panels = importlib.import_module("hapod.pod")._row_panels(8000, m)
        rows = panels[0][1] - panels[0][0]
        assert len(panels) > 1 and rows > m
        helpers, slack = 1, 64 * 1024
        assert peaks[2] <= peaks[1] + helpers * 8 * (rows * m + m * m) + slack


class TestCriticalPathTime:
    def test_longest_path_through_the_tree(self):
        # root 0 -> (1, 2), 1 -> (3, 4).  The slow leaf 2 shares level 1 with
        # leaves 3 and 4, so the sum of level maxima (10 + 1 + 1) pairs it with
        # node 1, which no path does; the longest path is 0-2 (1 + 10).
        tree = RootedTree(((1, 2), (3, 4), (), (), ()), 0)
        maps = derive_maps(tree)
        times = {0: 1.0, 1: 1.0, 2: 10.0, 3: 1.0, 4: 1.0}
        reports = [NodeReport(v, maps.level[v], not tree.children[v], 1, 1, 0.1, 1, 0.0, t)
                   for v, t in times.items()]
        assert critical_path_time(tree, reports) == 11.0
        # a slower interior node moves the path into the other subtree
        reports[1] = replace(reports[1], wall_time=12.0)
        assert critical_path_time(tree, reports) == 14.0


class TestMappedChainMemory:
    def test_passthrough_leaves_stay_in_the_map(self, tmp_path):
        # the paper's incremental setting: zero-tolerance leaves of a mapped
        # file hand their columns up as they are, so leaves that run ahead
        # of the serial merges on a second worker hold no copies
        path = tmp_path / "tall.hpd"
        write_matrix(path, synthetic_decay(4000, 400, 0.05, seed=0).values)
        block = load_snapshots(path)
        tree = build_chain(10)
        leaves = distribute_columns(tree, block, block_size=40)
        maps = derive_maps(tree, leaves.counts())
        tol = assign_tolerances(tree, leaves, 1e-2, 0.75, zero_leaf_tolerance=True)
        first = maps.leaf_order[0]
        out, _, _ = hapod.hierarchy.evaluate_node(tree, maps, first, tol, None, leaves, [], False)
        assert out.coef is None
        assert np.shares_memory(out.columns, block.values)
        peaks = {}
        for workers in (1, 2):
            tracemalloc.start()
            try:
                run_parallel(tree, leaves, tol, worker_count=workers)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + leaves.blocks[first].values.nbytes
