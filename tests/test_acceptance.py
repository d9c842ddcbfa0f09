"""Acceptance suite: the guarantees the library is sold on, checked end to end
against brute-force recomputation.  Each test prints one verdict line; the
randomized suites use fixed seeds so a pass is reproducible.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from hapod import (
    BurgersConfig,
    IncrementalSession,
    InnerProductSpace,
    LeafAssignment,
    PodBackend,
    RootedTree,
    SnapshotBlock,
    ToleranceAssignment,
    assign_tolerances,
    block_gramian_pod,
    build_chain,
    build_balanced,
    build_star,
    burgers_snapshots,
    derive_maps,
    distribute_columns,
    error_bound,
    pod,
    run_hapod,
    run_parallel,
    synthetic_decay,
)
from hapod.cli import main as cli_main
from hapod.io import read_floats, read_matrix, write_matrix
from helpers import naive_rank, oracle_pod_count, random_case, span_residual_sq, stacked_leaf_columns

CASE_COUNT = 200
CASE_SEED = 20260819


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def iter_cases(count=CASE_COUNT, **kw):
    """The shared randomized problem set; both bound suites replay the same
    seed so they see identical cases without holding them all in memory."""
    rng = np.random.default_rng(CASE_SEED)
    for _ in range(count):
        yield random_case(rng, max_nodes=30, max_dim=200, max_cols=500, **kw)


@pytest.fixture(scope="module")
def burgers():
    block = burgers_snapshots(BurgersConfig())
    svals = scipy.linalg.svdvals(block.values)
    return block, svals


def test_error_bound_on_random_trees():
    started = time.perf_counter()
    worst = 0.0
    for tree, maps, leaves, tol, data, space in iter_cases():
        result = run_hapod(tree, leaves, tol)
        resid = span_residual_sq(data, result.modes.modes, space.weights)
        bound_sq = error_bound(tree, tol, maps=maps) ** 2
        total_sq = float(np.sum(space.weigh(data) ** 2))
        slack = 1e-8 * max(total_sq, 1.0)
        assert resid <= bound_sq + slack, (
            f"residual {resid} exceeds budget {bound_sq} (+{slack})")
        worst = max(worst, resid - bound_sq)
    elapsed = time.perf_counter() - started
    verdict(
        "error-bound", elapsed < 120.0,
        f"{CASE_COUNT} random trees within budget, worst overshoot {worst:.3e}, "
        f"{elapsed:.1f}s < 120s",
    )


def test_mode_bound_on_random_trees():
    checked = 0
    for tree, maps, leaves, tol, data, space in iter_cases():
        result = run_hapod(tree, leaves, tol)
        subtree_sets = [set(maps.subtree_nodes[v]) for v in range(tree.node_count)]
        for report in result.reports:
            sub = np.hstack(
                [leaves.blocks[u].values for u in maps.leaf_order
                 if u in subtree_sets[report.node]]
            )
            cap = oracle_pod_count(sub, tol.epsilons[report.node], space.weights)
            assert report.output_mode_count <= cap, (
                f"node {report.node}: {report.output_mode_count} modes "
                f"exceed the flat count {cap}")
            checked += 1
    verdict("mode-bound", True,
            f"{checked} node outputs within their flat-POD counts, zero violations")


def test_tolerance_selection_grid(burgers):
    block, svals = burgers
    m = block.count
    tree = build_balanced(100, 2)
    leaves = distribute_columns(tree, block, block_size=100)
    rows = []
    for omega in (0.1, 0.5, 0.75, 0.95, 0.999):
        for eps_star in (1e-1, 1e-2, 1e-3):
            tol = assign_tolerances(tree, leaves, eps_star, omega=omega)
            result = run_hapod(tree, leaves, tol)
            mean_err = span_residual_sq(block.values, result.modes.modes) / m
            cap = naive_rank(svals, math.sqrt(m) * omega * eps_star)
            assert mean_err <= eps_star**2, (
                f"omega={omega} eps*={eps_star}: mean error {mean_err}")
            assert result.mode_count <= cap, (
                f"omega={omega} eps*={eps_star}: {result.mode_count} > {cap}")
            rows.append((omega, eps_star, result.mode_count, cap))
    verdict("tolerance-selection", True,
            f"{len(rows)} omega/eps grid points: mean error under target and "
            f"root count within the flat bound")


def test_incremental_burgers_close_to_direct(burgers):
    block, svals = burgers
    m = block.count
    started = time.perf_counter()
    lines = []
    for eps_star in (1.0, 0.1, 0.01, 0.001):
        direct = naive_rank(svals, math.sqrt(m) * eps_star)
        session = IncrementalSession(eps_star, 0.75, planned_block_count=100)
        for start in range(0, m, 100):
            session.push(SnapshotBlock(block.space, block.values[:, start:start + 100]))
        result = session.finalize()
        mean_err = span_residual_sq(block.values, result.modes.modes) / m
        peak = result.max_intermediate_modes()
        assert mean_err <= eps_star**2, f"eps*={eps_star}: mean error {mean_err}"
        assert result.mode_count <= direct + 6, (
            f"eps*={eps_star}: {result.mode_count} modes vs direct {direct}")
        assert peak <= direct + 20, (
            f"eps*={eps_star}: intermediate peak {peak} vs direct {direct}")
        lines.append(f"eps*={eps_star:g}: {result.mode_count}/{direct} modes, peak {peak}")
    elapsed = time.perf_counter() - started
    verdict("incremental-burgers",
            elapsed < 300.0,
            "; ".join(lines) + f"; {elapsed:.1f}s < 300s")


def test_equivalences():
    rng = np.random.default_rng(404)

    # one node, no hierarchy: identical to a flat POD
    block = SnapshotBlock(InnerProductSpace(30), rng.standard_normal((30, 40)))
    lone = run_hapod(RootedTree(((),), 0), LeafAssignment({0: block}),
                     ToleranceAssignment((1.0,)))
    ref = pod(block, 1.0)
    assert lone.mode_count == ref.count
    assert np.allclose(lone.modes.sigmas, ref.sigmas, rtol=1e-12, atol=0)

    # streaming session vs the equivalent chain run
    space = InnerProductSpace(80)
    blocks = [SnapshotBlock(space, rng.standard_normal((80, 25))) for _ in range(12)]
    session = IncrementalSession(0.3, 0.75, planned_block_count=12,
                                 backend=PodBackend("gram"))
    for b in blocks:
        session.push(b)
    inc = session.finalize()
    chain = build_chain(12)
    chain_leaves = LeafAssignment(dict(zip(derive_maps(chain).leaf_order, blocks)))
    chain_tol = assign_tolerances(chain, chain_leaves, 0.3, omega=0.75,
                                  zero_leaf_tolerance=True)
    seq = run_hapod(chain, chain_leaves, chain_tol, backend=PodBackend("gram"))
    assert inc.mode_count == seq.mode_count
    assert np.allclose(inc.modes.sigmas, seq.modes.sigmas, rtol=1e-9)

    # distributed star vs writing out its two stages by hand
    star = build_star(8)
    data = SnapshotBlock(space, rng.standard_normal((80, 240)))
    star_leaves = distribute_columns(star, data)
    star_tol = assign_tolerances(star, star_leaves, 0.2, omega=0.75)
    mine = run_hapod(star, star_leaves, star_tol)
    stage = np.hstack([
        pod(star_leaves.blocks[leaf], star_tol.epsilons[leaf]).scaled()
        for leaf in range(1, 9)
    ])
    two_stage = pod(SnapshotBlock(space, stage), star_tol.epsilons[0])
    assert mine.mode_count == two_stage.count
    assert np.allclose(mine.modes.sigmas, two_stage.sigmas, rtol=1e-9)

    # Gramian block update vs recomputing the concatenation from scratch
    for _ in range(10):
        a = SnapshotBlock(space, rng.standard_normal((80, int(rng.integers(1, 30)))))
        b = SnapshotBlock(space, rng.standard_normal((80, int(rng.integers(0, 30)))))
        prior = pod(a, float(rng.uniform(0.5, 3.0)))
        eps = float(rng.uniform(0.5, 5.0))
        fast = block_gramian_pod(prior, b, eps)
        slow = pod(SnapshotBlock(space, np.hstack([prior.scaled(), b.values])), eps)
        assert fast.count == slow.count
        assert np.allclose(fast.sigmas, slow.sigmas, rtol=1e-7, atol=1e-10)

    # worker count must not change a single bit of the mathematics
    tree = build_balanced(16, 2)
    wide = SnapshotBlock(space, rng.standard_normal((80, 320)))
    wide_leaves = distribute_columns(tree, wide)
    wide_tol = assign_tolerances(tree, wide_leaves, 0.1)
    seq_wide = run_hapod(tree, wide_leaves, wide_tol)
    for workers in (1, 2, 8):
        par, _ = run_parallel(tree, wide_leaves, wide_tol, worker_count=workers)
        assert par.mode_count == seq_wide.mode_count
        assert np.allclose(par.modes.sigmas, seq_wide.modes.sigmas, rtol=1e-12, atol=0)
        assert np.allclose(par.modes.modes, seq_wide.modes.modes, rtol=1e-12, atol=1e-14)

    verdict("equivalences", True,
            "single-node, session/chain, star two-stage, Gramian update, "
            "and 1/2/8-worker runs all agree")


def test_right_factor_reconstruction():
    rng = np.random.default_rng(977)
    worst_drift = 0.0
    worst_margin = -np.inf
    for _ in range(20):
        tree, maps, leaves, tol, _, space = random_case(
            rng, max_nodes=20, max_dim=80, max_cols=200)
        result = run_hapod(tree, leaves, tol, track_right_factor=True)
        lhat = result.right_factor
        if result.mode_count:
            drift = float(np.max(np.abs(lhat.T @ lhat - np.eye(result.mode_count))))
            worst_drift = max(worst_drift, drift)
            assert drift <= 1e-8, f"right factor drift {drift}"
        stacked = stacked_leaf_columns(maps, leaves)
        approx = (result.modes.modes * result.modes.sigmas[None, :]) @ lhat.T
        resid = space.weigh(stacked - approx)
        resid_sq = float(np.sum(resid * resid))
        bound_sq = error_bound(tree, tol, maps=maps) ** 2
        assert resid_sq <= bound_sq, (
            f"reconstruction {resid_sq} exceeds budget {bound_sq}")
        worst_margin = max(worst_margin, resid_sq - bound_sq)
    verdict("right-factor", True,
            f"20 trees: orthonormality drift <= {worst_drift:.2e}, "
            f"worst budget margin {worst_margin:.3e}")


def test_speed_against_flat_pod():
    # soft criterion: report the scaling, warn when it misses, never fail
    dim, eps_star = 500, 1e-3
    flat_times, tree_times = {}, {}
    for m in (4000, 8000):
        data = synthetic_decay(dim, m, 0.02, seed=1)
        started = time.perf_counter()
        flat = pod(data, math.sqrt(m) * eps_star, PodBackend("gram"))
        flat_times[m] = time.perf_counter() - started

        tree = build_balanced(m // 100, 2)
        leaves = distribute_columns(tree, data, block_size=100)
        tol = assign_tolerances(tree, leaves, eps_star)
        started = time.perf_counter()
        result = run_hapod(tree, leaves, tol, PodBackend("gram"))
        tree_times[m] = time.perf_counter() - started
        assert result.mode_count <= flat.count + 10
    flat_ratio = flat_times[8000] / flat_times[4000]
    tree_ratio = tree_times[8000] / tree_times[4000]
    detail = (
        f"flat {flat_times[4000]:.1f}s -> {flat_times[8000]:.1f}s (x{flat_ratio:.2f}), "
        f"tree {tree_times[4000]:.1f}s -> {tree_times[8000]:.1f}s (x{tree_ratio:.2f})"
    )
    if not (flat_ratio >= 3.0 and tree_ratio <= 2.5
            and tree_times[8000] < flat_times[8000]):
        warnings.warn(f"scaling targets missed on this machine: {detail}")
    verdict("speed-scaling", True, detail)


def test_persistence_and_determinism(tmp_path):
    # container round trip is byte exact, including signed zeros
    rng = np.random.default_rng(55)
    values = rng.standard_normal((40, 17))
    values[0, 0] = -0.0
    values[1, 2] = 0.0
    w = rng.uniform(0.5, 2.0, 40)
    path = tmp_path / "roundtrip.hpd"
    write_matrix(path, values, weights=w)
    back, back_w = read_matrix(path)
    assert back.tobytes() == values.tobytes()
    assert back_w.tobytes() == w.tobytes()

    # one manifest, two runs, identical bytes out
    snaps = tmp_path / "snaps.hpd"
    assert cli_main(["gen", "synthetic", "--rows", "60", "--cols", "400",
                     "--decay-rate", "0.03", "--seed", "11", "-o", str(snaps)]) == 0
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["run", str(snaps), "--out", str(out),
                         "--eps-star", "0.01", "--topology", "balanced",
                         "--block-size", "50", "--workers", "4"]) == 0
        outs.append(out)
    same_sigmas = (outs[0] / "sigmas.txt").read_bytes() == (outs[1] / "sigmas.txt").read_bytes()
    same_modes = (outs[0] / "modes.hpd").read_bytes() == (outs[1] / "modes.hpd").read_bytes()
    verdict("persistence-determinism", same_sigmas and same_modes,
            "byte-exact container round trip; repeated runs emit identical bytes")
