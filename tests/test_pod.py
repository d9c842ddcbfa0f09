import importlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hapod import (
    BurgersConfig,
    IncrementalSession,
    InnerProductSpace,
    ModeSet,
    PodBackend,
    SnapshotBlock,
    assign_tolerances,
    block_gramian_pod,
    build_chain,
    burgers_snapshots,
    distribute_columns,
    gramian,
    pod,
    run_parallel,
    synthetic_decay,
    truncation_rank,
)
from hapod.io import load_snapshots, write_matrix
from hapod.pod import _ColumnStack, _fix_signs, _mended
from helpers import naive_rank, oracle_pod_count, span_residual_sq

POD = importlib.import_module("hapod.pod")  # hapod.pod is the function


def euclid(dim):
    return InnerProductSpace(dim)


def random_block(rng, dim, cols, weights=None):
    return SnapshotBlock(InnerProductSpace(dim, weights),
                         rng.standard_normal((dim, cols)))


def spectrum_block(rng, dim, cols, sigmas, weights=None):
    """A block whose singular values in the weighted inner product are sigmas."""
    r = len(sigmas)
    u = np.linalg.qr(rng.standard_normal((dim, r)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, r)))[0]
    values = (u * sigmas[None, :]) @ v.T
    if weights is not None:
        values = values / np.sqrt(weights)[:, None]
    return SnapshotBlock(InnerProductSpace(dim, weights), values)


# integer-valued sigmas keep every tail sum exact in float64, so the naive
# enumeration and the library's reversed cumulative sum cannot disagree on
# ties for numerical reasons
sigma_lists = st.lists(st.integers(0, 20), min_size=0, max_size=12).map(
    lambda xs: np.array(sorted((float(x) for x in xs), reverse=True)))


class TestTruncationRank:
    def test_frozen_examples(self):
        assert truncation_rank(np.array([2.0, 1.0, 1.0]), 1.5) == 1
        assert truncation_rank(np.array([3.0]), 10.0) == 0
        assert truncation_rank(np.array([2.0, 1.0]), 0.0) == 2
        assert truncation_rank(np.array([]), 0.5) == 0

    @given(sigmas=sigma_lists, eps_half=st.integers(0, 50))
    def test_matches_naive_enumeration(self, sigmas, eps_half):
        eps = eps_half / 2.0
        assert truncation_rank(sigmas, eps) == naive_rank(sigmas, eps)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            truncation_rank(np.array([1.0]), -0.1)

    def test_rejects_increasing_sigmas(self):
        with pytest.raises(ValueError):
            truncation_rank(np.array([1.0, 2.0]), 0.5)

    @pytest.mark.parametrize("sigmas", [[2.0, np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]])
    def test_rejects_nonfinite_sigmas(self, sigmas):
        with pytest.raises(ValueError, match="finite"):
            truncation_rank(np.array(sigmas), 0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_nonfinite_epsilon(self, eps):
        with pytest.raises(ValueError, match="finite"):
            truncation_rank(np.array([2.0, 1.0]), eps)


class TestGramian:
    def test_identity_columns(self):
        block = SnapshotBlock(euclid(3), np.eye(3))
        assert np.allclose(gramian(block), np.eye(3))

    def test_repeated_unit_column(self):
        v = np.zeros((5, 4))
        v[2] = 1.0
        g = gramian(SnapshotBlock(euclid(5), v))
        assert np.allclose(g, np.ones((4, 4)))

    def test_against_double_loop(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.1, 3.0, 6)
        block = random_block(rng, 6, 5, weights=w)
        g = gramian(block)
        for i in range(5):
            for j in range(5):
                ref = float(np.sum(w * block.values[:, i] * block.values[:, j]))
                assert abs(g[i, j] - ref) < 1e-12
        assert np.array_equal(g, g.T)

    def test_unweighted_is_exactly_symmetric(self):
        # S^T S of one BLAS operand goes through syrk, which mirrors one
        # triangle: exactly symmetric in any memory order, which is why an
        # unweighted Gramian needs no symmetrizing pass
        rng = np.random.default_rng(13)
        a = rng.standard_normal((300, 70))
        views = {
            "C order": a,
            "F order": np.asfortranarray(a),
            "transposed": rng.standard_normal((70, 300)).T,
            "column range": a[:, 5:60],
            "row range of F order": np.asfortranarray(a)[20:250],
            "no unit stride": a[:, ::2],
        }
        for name, values in views.items():
            g = gramian(SnapshotBlock(euclid(values.shape[0]), values))
            assert np.array_equal(g, g.T), name
            assert np.allclose(g, values.T @ values, rtol=1e-13, atol=1e-12), name

    def test_weighted_is_symmetrized(self):
        # S^T (W S) is a general product, not symmetric in rounding: it is
        # averaged with its transpose
        rng = np.random.default_rng(17)
        w = rng.uniform(0.5, 2.0, 300)
        block = random_block(rng, 300, 70, weights=w)
        h = block.values.T @ (w[:, None] * block.values)
        assert not np.array_equal(h, h.T)
        g = gramian(block)
        assert np.array_equal(g, g.T)
        assert np.array_equal(g, (h + h.T) * 0.5)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    def test_overflow_is_refused_without_a_warning(self, weighted):
        # squares beyond the float range: the products and the sum of the
        # panels stay silent, and pod's trace check reports the overflow
        space = InnerProductSpace(30, np.full(30, 2.0) if weighted else None)
        block = SnapshotBlock(space, 1e160 * np.random.default_rng(3).standard_normal((30, 40)))
        with pytest.raises(np.linalg.LinAlgError, match="Gramian overflows"):
            pod(block, 0.1, PodBackend("gram"))


class TestPodAgainstDenseSvd:
    @pytest.mark.parametrize("kind", ["gram", "svd"])
    @pytest.mark.parametrize("eps", [1e-8, 0.5, 2.0, 10.0, 1e6])
    def test_sigmas_and_count(self, kind, eps):
        rng = np.random.default_rng(7)
        block = random_block(rng, 20, 15)
        out = pod(block, eps, PodBackend(kind))
        ref = scipy.linalg.svdvals(block.values)
        assert out.count == oracle_pod_count(block.values, eps)
        assert np.allclose(out.sigmas, ref[:out.count], rtol=1e-7)

    @pytest.mark.parametrize("kind", ["gram", "svd"])
    def test_count_is_minimal(self, kind):
        # one fewer mode must violate the budget, the chosen count must meet it
        rng = np.random.default_rng(19)
        block = random_block(rng, 12, 9)
        ref = scipy.linalg.svdvals(block.values)
        for eps in [0.3, 1.0, 2.5, 5.0]:
            n = pod(block, eps, PodBackend(kind)).count
            assert sum(float(s * s) for s in ref[n:]) <= eps * eps
            if n > 0:
                assert sum(float(s * s) for s in ref[n - 1:]) > eps * eps

    def test_projection_error_within_budget(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            dim = int(rng.integers(4, 40))
            cols = int(rng.integers(1, 60))
            weights = rng.uniform(0.2, 4.0, dim) if trial % 3 == 0 else None
            block = random_block(rng, dim, cols, weights=weights)
            total_sq = float(np.sum(block.space.weigh(block.values) ** 2))
            eps = float(rng.uniform(0, 1.2)) * np.sqrt(total_sq)
            kind = "svd" if trial % 2 else "gram"
            out = pod(block, eps, PodBackend(kind))
            resid = span_residual_sq(block.values, out.modes, weights)
            assert resid <= eps * eps + 1e-9 * total_sq

    def test_tail_energy_matches_discarded_spectrum(self):
        rng = np.random.default_rng(29)
        block = random_block(rng, 10, 8)
        ref = scipy.linalg.svdvals(block.values)
        out = pod(block, 1.0)
        assert out.tail_energy == pytest.approx(
            sum(float(s * s) for s in ref[out.count:]), rel=1e-8)


class TestPodConventions:
    def test_passthrough_returns_raw_snapshots(self):
        rng = np.random.default_rng(31)
        block = random_block(rng, 6, 4)
        out = pod(block, 0.0, want_right=True)
        assert not out.orthonormal
        assert np.array_equal(out.modes, block.values)
        assert np.array_equal(out.sigmas, np.ones(4))
        assert np.array_equal(out.right, np.eye(4))
        assert out.tail_energy == 0.0

    def test_repeated_unit_column_single_mode(self):
        v = np.zeros((5, 4))
        v[1] = 1.0
        out = pod(SnapshotBlock(euclid(5), v), 0.1)
        assert out.count == 1
        assert out.sigmas[0] == pytest.approx(2.0, abs=1e-12)
        assert out.modes[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_block(self):
        out = pod(SnapshotBlock(euclid(4), np.zeros((4, 0))), 0.5, want_right=True)
        assert out.count == 0
        assert out.right.shape == (0, 0)

    def test_zero_block_keeps_right_rows(self):
        out = pod(SnapshotBlock(euclid(4), np.zeros((4, 3))), 0.5, want_right=True)
        assert out.count == 0
        assert out.right.shape == (3, 0)
        assert out.tail_energy == 0.0

    def test_rejects_negative_epsilon(self):
        block = SnapshotBlock(euclid(2), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            pod(block, -1e-9)

    @pytest.mark.parametrize("kind", ["gram", "svd"])
    @pytest.mark.parametrize("eps", [np.nan, np.inf, 1e200])
    def test_rejects_nonfinite_epsilon(self, kind, eps):
        block = random_block(np.random.default_rng(3), 6, 4)
        with pytest.raises(ValueError, match="finite"):
            pod(block, eps, PodBackend(kind))

    def test_rejects_nonfinite_snapshots(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            SnapshotBlock(euclid(3), bad)

    def test_sign_convention(self):
        rng = np.random.default_rng(37)
        block = random_block(rng, 9, 7)
        for kind in ("gram", "svd"):
            out = pod(block, 0.3, PodBackend(kind))
            for k in range(out.count):
                col = out.modes[:, k]
                assert col[np.argmax(np.abs(col))] > 0

    def test_backends_agree_on_well_conditioned_data(self):
        from hapod import synthetic_decay
        block = synthetic_decay(30, 50, 0.3, seed=5)
        a = pod(block, 0.05, PodBackend("gram"))
        b = pod(block, 0.05, PodBackend("svd"))
        assert a.count == b.count
        assert np.allclose(a.sigmas, b.sigmas, rtol=1e-6)
        # compare spans, not entries: entries of the weakest modes see the
        # squared conditioning of the Gramian path
        proj_a = a.modes @ a.modes.T
        proj_b = b.modes @ b.modes.T
        assert np.max(np.abs(proj_a - proj_b)) <= 1e-6

    def test_weighted_equals_scaled_euclidean(self):
        rng = np.random.default_rng(41)
        w = rng.uniform(0.3, 2.5, 8)
        vals = rng.standard_normal((8, 10))
        weighted = pod(SnapshotBlock(InnerProductSpace(8, w), vals), 0.4)
        scaled = pod(SnapshotBlock(euclid(8), vals * np.sqrt(w)[:, None]), 0.4)
        assert weighted.count == scaled.count
        assert np.allclose(weighted.sigmas, scaled.sigmas, rtol=1e-10)
        # the sign convention acts in each space's own coordinates, so the
        # mapped modes agree column by column only up to sign
        mapped = weighted.modes * np.sqrt(w)[:, None]
        flips = np.sign(np.sum(mapped * scaled.modes, axis=0))
        assert np.allclose(mapped * flips, scaled.modes, rtol=1e-10, atol=1e-12)

    def test_modes_orthonormal_with_clustered_spectrum(self):
        rng = np.random.default_rng(43)
        u, _ = scipy.linalg.qr(rng.standard_normal((12, 12)), mode="economic")
        v, _ = scipy.linalg.qr(rng.standard_normal((9, 9)), mode="economic")
        sig = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25])
        block = SnapshotBlock(euclid(12), (u[:, :9] * sig) @ v.T)
        for kind in ("gram", "svd"):
            out = pod(block, 0.2, PodBackend(kind))
            g = out.modes.T @ out.modes
            assert np.max(np.abs(g - np.eye(out.count))) <= 1e-8


class TestGramRoutes:
    """The gram kind eigendecomposes the Gramian of a tall block and the
    correlation matrix of a wide one; both must agree with the SVD."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), short=st.integers(1, 30), extra=st.integers(1, 30),
           wide=st.booleans(), weighted=st.booleans(), ratio=st.floats(0.5, 0.8),
           data=st.data())
    def test_gram_agrees_with_svd(self, seed, short, extra, wide, weighted, ratio, data):
        rng = np.random.default_rng(seed)
        dim, cols = (short, short + extra) if wide else (short + extra, short)
        rank = data.draw(st.integers(1, min(short, 10)), label="rank")
        keep = data.draw(st.integers(0, rank), label="keep")
        # sigmas >= 0.5**9 sit far above the cutoff, so both routes resolve them
        sigmas = ratio ** np.arange(rank)
        weights = rng.uniform(0.5, 2.0, dim) if weighted else None
        block = spectrum_block(rng, dim, cols, sigmas, weights)
        tails = np.append(np.cumsum((sigmas ** 2)[::-1])[::-1], 0.0)
        # budget halfway into the gap, so the count is keep on either route
        eps_sq = tails[keep] + 0.5 * (sigmas[keep - 1] ** 2 if keep else tails[0])
        out = {kind: pod(block, np.sqrt(eps_sq), PodBackend(kind), want_right=True)
               for kind in ("gram", "svd")}
        gram, svd = out["gram"], out["svd"]
        assert gram.count == svd.count == keep
        assert np.allclose(gram.sigmas, svd.sigmas, rtol=1e-8, atol=0.0)
        ga, sa = block.space.weigh(gram.modes), block.space.weigh(svd.modes)
        assert np.max(np.abs(ga @ ga.T - sa @ sa.T), initial=0.0) <= 1e-7
        for ms in (gram, svd):
            assert ms.right.shape == (cols, keep)
            assert np.max(np.abs(ms.right.T @ ms.right - np.eye(keep)), initial=0.0) <= 1e-8
            resid = block.space.weigh(block.values - (ms.modes * ms.sigmas[None, :]) @ ms.right.T)
            assert float(np.sum(resid * resid)) <= eps_sq

    @pytest.mark.parametrize("weighted", [False, True])
    def test_wide_right_vectors_come_out_orthonormal(self, weighted):
        # X psi / sigma of a wide block drifted by about 1e-5 before the
        # product was mended like a tall block's modes
        data = synthetic_decay(50, 300, 0.4, 1)
        weights = np.linspace(0.5, 2.0, 50) if weighted else None
        block = SnapshotBlock(InnerProductSpace(50, weights), data.values)
        out = pod(block, 1e-6, want_right=True)
        assert out.right.shape == (300, out.count) and out.count > 20
        assert np.max(np.abs(out.right.T @ out.right - np.eye(out.count))) <= 1e-12

    @pytest.mark.parametrize("kind, floor", [("svd", -14.0), ("gram", -10.0), ("gram", -14.0)])
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(5, 60), cols=st.integers(5, 60),
           weighted=st.booleans(), rate=st.floats(0.05, 3.0),
           exponent=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), data=st.data())
    def test_discarded_tail_within_budget(self, kind, floor, seed, dim, cols, weighted,
                                          rate, exponent, data):
        # the certified bound must hold down to the route's accuracy floor
        # (ratio 10**floor, drawn often: the energy a too-eager noise cutoff
        # drops only shows there), including blocks of lower rank
        rng = np.random.default_rng(seed)
        rank = data.draw(st.integers(1, min(dim, cols)), label="rank")
        weights = rng.uniform(0.5, 2.0, dim) if weighted else None
        block = spectrum_block(rng, dim, cols, np.exp(-rate * np.arange(rank)), weights)
        total_sq = float(np.sum(block.space.weigh(block.values) ** 2))
        eps_sq = 10.0 ** (floor * exponent) * total_sq
        out = pod(block, np.sqrt(eps_sq), PodBackend(kind))
        assert span_residual_sq(block.values, out.modes, weights) <= eps_sq

    def test_budget_below_the_gram_floor_is_redone(self):
        # at 1e-14 of the energy the Gramian route drops eigenvalues that sum
        # past the budget (1.24 eps^2 for this block); its truncation cannot
        # certify that, so the node is redone on "svd"
        block = spectrum_block(np.random.default_rng(0), 9, 15, np.exp(-2.0 * np.arange(9)))
        eps_sq = 1e-14 * float(np.sum(block.values ** 2))
        out = pod(block, np.sqrt(eps_sq))
        assert span_residual_sq(block.values, out.modes) <= eps_sq
        assert out.tail_energy <= eps_sq

    def test_burgers_merges_certify_their_tails(self):
        # each merge's energy times the Gramian floor exceeds eps^2 here, so
        # every merge is redone on "svd", whose tail is the explicit residual
        data = burgers_snapshots(BurgersConfig(grid_size=500, step_count=1500, spark_probability=1e-2,
                                               seed=0))
        eps = 1e-6
        prior = pod(SnapshotBlock(data.space, data.values[:, :100]), eps)
        for a in range(100, data.count, 100):
            fresh = SnapshotBlock(data.space, data.values[:, a : a + 100])
            stacked = np.hstack([prior.scaled(), fresh.values])
            prior = block_gramian_pod(prior, fresh, eps)
            resid = span_residual_sq(stacked, prior.modes, data.space.weights)
            assert prior.tail_energy <= eps * eps
            assert prior.tail_energy == pytest.approx(resid, rel=0.0, abs=1e-6 * eps * eps)

    @pytest.mark.parametrize("kind", ["gram", "svd"])
    @pytest.mark.parametrize("dim, cols, rate", [(9, 15, 2.0), (17, 17, 1.0)])
    def test_budget_just_below_the_energy_keeps_a_mode(self, kind, dim, cols, rate):
        # here the eigenvalues that pass the noise floor sum to less than the
        # block's energy, and this budget falls between the two
        sigmas = np.exp(-rate * np.arange(min(dim, cols)))
        block = spectrum_block(np.random.default_rng(0), dim, cols, sigmas)
        total_sq = float(np.sum(block.values ** 2))
        eps_sq = 10.0 ** (-10.0 * np.finfo(np.float64).eps) * total_sq
        assert eps_sq < total_sq
        out = pod(block, np.sqrt(eps_sq), PodBackend(kind))
        assert out.count >= 1
        assert span_residual_sq(block.values, out.modes) <= eps_sq

    @pytest.mark.parametrize("dim, cols", [(8, 20), (20, 8), (10, 10)])
    def test_eigh_sees_the_smaller_square(self, monkeypatch, dim, cols):
        sizes = []
        real = POD._descending_eigh

        def spy(a, *args, **kwargs):
            sizes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(POD, "_descending_eigh", spy)
        rng = np.random.default_rng(67)
        pod(random_block(rng, dim, cols, rng.uniform(0.5, 2.0, dim)), 0.1, want_right=True)
        n = min(dim, cols)
        assert sizes == [(n, n)]

    def test_every_eigensolve_goes_through_one_function(self, monkeypatch, pivoted_ranks):
        # counting at `_descending_eigh` sees what counting at SciPy sees:
        # a full-rank tall Gramian, a tall one solved on its numerical
        # range, and a wide block's correlation matrix
        rng = np.random.default_rng(69)
        blocks = {
            "full-rank tall": random_block(rng, 40, 20),
            "range-reduced tall": SnapshotBlock(euclid(200), rng.standard_normal((200, 6))
                                                @ rng.standard_normal((6, 60))),
            "wide": random_block(rng, 20, 40),
        }
        calls = {"scipy": 0, "hapod": 0}
        for owner, name, key in ((scipy.linalg, "eigh", "scipy"), (POD, "_descending_eigh", "hapod")):
            real = getattr(owner, name)

            def spy(*args, real=real, key=key, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        for name, block in blocks.items():
            before = dict(calls)
            pod(block, 1e-6, want_right=True)
            assert calls["scipy"] - before["scipy"] == calls["hapod"] - before["hapod"] == 1, name
        assert pivoted_ranks == [(20, 20), (60, 6)]


class TestUnalignedInput:
    def test_mapped_block_reaches_the_gramian_aligned(self, tmp_path, monkeypatch):
        path = tmp_path / "tall.hpd"
        rng = np.random.default_rng(71)
        write_matrix(path, rng.standard_normal((2000, 6)) @ rng.standard_normal((6, 100))
                     + 1e-3 * rng.standard_normal((2000, 100)))
        block = load_snapshots(path)
        assert not block.values.flags.aligned  # the payload follows a 23-byte header
        ref = pod(SnapshotBlock(block.space, np.array(block.values, order="F")), 0.05)
        module = importlib.import_module("hapod.pod")  # hapod.pod is the function
        real, aligned, scans = module.gramian, [], []
        real_check = SnapshotBlock.__post_init__

        def spy(b):
            aligned.append(b.values.flags.aligned)
            return real(b)

        def counting_check(b):
            scans.append(b.count)
            real_check(b)

        monkeypatch.setattr(module, "gramian", spy)
        monkeypatch.setattr(SnapshotBlock, "__post_init__", counting_check)
        out = pod(block, 0.05)
        assert aligned == [True]
        assert scans == []  # the copy is not scanned for non-finite entries again
        assert 0 < out.count < 100
        assert np.array_equal(out.sigmas, ref.sigmas)
        assert np.array_equal(out.modes, ref.modes)


class TestMemoryLayout:
    def test_only_what_blas_cannot_read_is_copied(self, tmp_path, monkeypatch):
        # NumPy hands BLAS aligned operands with one unit stride: those
        # reach the Gramian as the caller's array, the rest are copied
        rng = np.random.default_rng(73)
        values = rng.standard_normal((300, 12)) @ rng.standard_normal((12, 160)) \
            + 1e-3 * rng.standard_normal((300, 160))
        path = tmp_path / "tall.hpd"
        write_matrix(path, values[:, :80])
        inputs = [
            (values[:, 20:100], True),                 # columns of a row-major array
            (np.asfortranarray(values)[40:260], True),  # rows of an aligned column-major one
            (load_snapshots(path).values, False),      # unaligned map
            (values[:, ::2], False),                   # no unit stride
        ]
        real, seen = POD.gramian, []

        def spy(b):
            seen.append(b.values)
            return real(b)

        for source, direct in inputs:
            space = euclid(source.shape[0])
            ref = pod(SnapshotBlock(space, np.array(source, order="K")), 0.05, want_right=True)
            seen.clear()
            monkeypatch.setattr(POD, "gramian", spy)
            out = pod(SnapshotBlock(space, source), 0.05, want_right=True)
            monkeypatch.undo()
            assert len(seen) == 1
            assert np.shares_memory(seen[0], source) == direct
            assert seen[0].flags.aligned and 8 in seen[0].strides
            assert 0 < out.count < source.shape[1]
            for a, b in ((out.sigmas, ref.sigmas), (out.modes, ref.modes), (out.right, ref.right)):
                assert a.tobytes() == b.tobytes()


class TestRowPanels:
    def test_panels_follow_the_shape_only(self):
        for d, m in [(1, 1), (50, 7), (20000, 100), (20000, 470), (10**6, 3), (5, 10**6)]:
            panels = POD._row_panels(d, m)
            assert len(panels) == min(d, math.ceil(8 * d * m / POD.BATCH_BYTES))
            assert panels[0][0] == 0 and panels[-1][1] == d
            assert all(a < b for a, b in panels)
            assert all(b == c for (_, b), (c, _) in zip(panels, panels[1:]))
        # a 20000-row root over ten children of 47 modes: eighteen panels
        assert len(POD._row_panels(20000, 470)) == 18

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(8, 80), cols=st.integers(1, 8),
           pieces=st.integers(2, 7), weighted=st.booleans(), want_right=st.booleans(),
           wide=st.booleans(), rate=st.floats(0.05, 0.3), data=st.data())
    def test_many_panels_match_one(self, seed, dim, cols, pieces, weighted, want_right, wide,
                                   rate, data):
        rng = np.random.default_rng(seed)
        cols = min(cols, dim)
        # a wide block is panelled as its dim x cols transpose
        shape = (cols, dim) if wide else (dim, cols)
        weights = rng.uniform(0.5, 2.0, shape[0]) if weighted else None
        sigmas = np.exp(-rate * np.arange(cols))
        block = spectrum_block(rng, *shape, sigmas, weights)
        keep = data.draw(st.integers(1, cols), label="keep")
        # budget halfway into the gap after the kept sigmas
        eps_sq = float(np.sum(sigmas[keep:] ** 2)) + 0.5 * sigmas[keep - 1] ** 2
        one = pod(block, np.sqrt(eps_sq), want_right=want_right)
        assert len(POD._row_panels(dim, cols)) == 1
        with mock.patch.object(POD, "BATCH_BYTES", max(1, 8 * dim * cols // pieces)):
            assert len(POD._row_panels(dim, cols)) >= 2
            many = pod(block, np.sqrt(eps_sq), want_right=want_right)
        assert many.count == one.count == keep
        assert np.allclose(many.sigmas, one.sigmas, rtol=1e-12, atol=0.0)
        ma, oa = block.space.weigh(many.modes), block.space.weigh(one.modes)
        assert np.max(np.abs(ma @ ma.T - oa @ oa.T)) <= 1e-10
        assert (many.right is None) == (not want_right)
        if want_right:
            resid = block.space.weigh(block.values - (many.modes * many.sigmas[None, :]) @ many.right.T)
            assert float(np.sum(resid * resid)) <= eps_sq

    @pytest.mark.parametrize("dim, cols", [(60, 5), (5, 60)], ids=["tall", "wide"])
    def test_gramian_runs_once_per_panel(self, monkeypatch, dim, cols):
        rng = np.random.default_rng(73)
        block = random_block(rng, dim, cols, rng.uniform(0.5, 2.0, dim))
        monkeypatch.setattr(POD, "BATCH_BYTES", 8 * 60 * 5 // 4)
        real, shapes = POD.gramian, []

        def spy(b):
            shapes.append(b.values.shape)
            return real(b)

        monkeypatch.setattr(POD, "gramian", spy)
        pod(block, 0.5)
        # the tall block takes four panels of 15 rows, whose products add up
        # to one 60-row Gramian; the wide block's column groups hold at most
        # dim columns, so its transpose takes twelve panels of 5 rows
        assert shapes == ([(15, 5)] * 4 if dim > cols else [(5, 5)] * 12)

    def test_mapped_wide_block_holds_a_few_panels(self, tmp_path):
        # a wide block is read one column group of at most d columns at a
        # time, so a flat POD of a mapped 500 x 8000 file (32 MB, unaligned
        # behind its header) holds its 500 x 500 correlation matrix and a few
        # panels of that size, not a 32 MB copy of the payload
        path = tmp_path / "wide.hpd"
        values = synthetic_decay(500, 8000, 0.02, seed=0).values
        write_matrix(path, values)
        eps = math.sqrt(8000) * 0.75 * 1e-3
        ref = pod(SnapshotBlock(euclid(500), values), eps)
        del values
        block = load_snapshots(path)
        assert not block.values.flags.aligned
        tracemalloc.start()
        try:
            out = pod(block, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.count == ref.count == 216
        assert np.allclose(out.sigmas, ref.sigmas, rtol=1e-12, atol=0.0)
        assert peak < 12e6

    def test_stack_writes_any_column_range(self):
        # a column group of a stack crosses the parts' edges anywhere; the
        # product of a coefficient part may round differently per range
        rng = np.random.default_rng(97)
        child = pod(random_block(rng, 30, 12), 0.8)
        leaf = rng.standard_normal((30, 9))
        psi = np.linalg.qr(rng.standard_normal((9, 4)))[0]
        fresh = rng.standard_normal((30, 5))
        parts = [(child.modes, child.sigmas), (leaf, psi), (fresh, None)]
        stack = _ColumnStack(parts)
        dense = np.hstack([child.scaled(), leaf @ psi, fresh])
        assert stack.shape == dense.shape
        product = np.zeros(dense.shape[1], dtype=bool)
        product[child.count : child.count + 4] = True
        for a in range(dense.shape[1]):
            for b in range(a + 1, dense.shape[1] + 1):
                got = stack[:, a:b]
                assert got.flags.c_contiguous
                exact = ~product[a:b]
                assert np.array_equal(got[:, exact], dense[:, a:b][:, exact]), (a, b)
                assert np.allclose(got, dense[:, a:b], rtol=0.0, atol=1e-14), (a, b)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_partial_gramians_are_summed_as_they_come(self, monkeypatch, weighted):
        # 400 panels of 10 rows: holding every 100 x 100 partial Gramian
        # would take 32 MB, ten times the 3.2 MB block; the running sum
        # keeps the peak below the block's size
        rng = np.random.default_rng(83)
        dim, cols = 4000, 100
        weights = rng.uniform(0.5, 2.0, dim) if weighted else None
        block = spectrum_block(rng, dim, cols, np.exp(-0.5 * np.arange(8)), weights)
        monkeypatch.setattr(POD, "BATCH_BYTES", 8 * cols * 10)
        assert len(POD._row_panels(dim, cols)) == 400
        tracemalloc.start()
        try:
            out = pod(block, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.count == 8
        assert peak < block.values.nbytes

    def test_one_panel_stack_is_the_stacked_array(self):
        rng = np.random.default_rng(79)
        weights = rng.uniform(0.5, 2.0, 40)
        space = InnerProductSpace(40, weights)
        children = [pod(random_block(rng, 40, 12, weights), 0.8) for _ in range(3)]
        fresh = random_block(rng, 40, 5, weights)
        stacked = np.hstack([ms.scaled() for ms in children] + [fresh.values])
        parts = [(ms.modes, ms.sigmas) for ms in children] + [(fresh.values, None)]
        lazy = SnapshotBlock._stack(space, parts)
        assert lazy.count == stacked.shape[1] and lazy.values.nbytes == stacked.nbytes
        assert np.array_equal(np.asarray(lazy.values), stacked)
        ref = pod(SnapshotBlock(space, stacked), 0.3, want_right=True)
        out = pod(lazy, 0.3, want_right=True)
        assert np.array_equal(out.sigmas, ref.sigmas)
        assert np.array_equal(out.modes, ref.modes)
        assert np.array_equal(out.right, ref.right)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_panelled_stack_is_written_once(self, monkeypatch, weighted):
        # the Gram pass writes each panel's stacked rows; the assembly
        # multiplies the parts themselves, so no row is written twice
        rng = np.random.default_rng(89)
        dim = 600
        weights = rng.uniform(0.5, 2.0, dim) if weighted else None
        space = InnerProductSpace(dim, weights)
        children = [pod(random_block(rng, dim, 15, weights), 2.0) for _ in range(3)]
        fresh = random_block(rng, dim, 7, weights)
        parts = [(ms.modes, ms.sigmas) for ms in children] + [(fresh.values, None)]
        lazy = SnapshotBlock._stack(space, parts)
        monkeypatch.setattr(POD, "BATCH_BYTES", 8 * lazy.count * 100)
        panels = len(POD._row_panels(dim, lazy.count))
        assert panels == 6
        ref = pod(SnapshotBlock(space, np.asarray(lazy.values)), 0.5, want_right=True)

        calls = []
        real = _ColumnStack.__getitem__
        monkeypatch.setattr(_ColumnStack, "__getitem__", lambda self, rows: calls.append(rows) or real(self, rows))
        out = pod(lazy, 0.5, want_right=True)
        assert len(calls) == panels
        assert np.array_equal(out.sigmas, ref.sigmas)
        assert np.allclose(out.modes, ref.modes, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref.modes)))
        assert np.array_equal(out.right, ref.right)


class TestFinishModes:
    def test_drifted_modes_are_reorthonormalized(self):
        rng = np.random.default_rng(61)
        dim, n = 30, 6
        weights = rng.uniform(0.5, 2.0, dim)
        space = InnerProductSpace(dim, weights)
        exact = space.unweigh(scipy.linalg.orth(rng.standard_normal((dim, n))))
        drifted = exact + 1e-6 * rng.standard_normal((dim, n))
        right = np.linalg.qr(rng.standard_normal((10, n)))[0]
        assert np.max(np.abs(space.gram(drifted, drifted) - np.eye(n))) > 1e-8

        modes, right_out = _fix_signs(_mended(drifted, space.gram(drifted, drifted)), right)
        assert np.max(np.abs(space.gram(modes, modes) - np.eye(n))) <= 1e-12
        # same span: the drifted columns lie in the span of the result
        assert span_residual_sq(drifted, modes, weights) <= 1e-20
        # each mode keeps its orientation relative to its right vector
        flips = np.sign(np.diag(space.gram(modes, drifted)))
        assert np.array_equal(flips, np.sign(np.sum(right_out * right, axis=0)))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_drifted_modes_that_lost_rank_raise(self, weighted):
        # the old Householder QR orthonormalized such a set without a word
        rng = np.random.default_rng(67)
        dim, n = 30, 6
        weights = rng.uniform(0.5, 2.0, dim) if weighted else None
        space = InnerProductSpace(dim, weights)
        drifted = space.unweigh(scipy.linalg.orth(rng.standard_normal((dim, n))))
        drifted += 1e-6 * rng.standard_normal((dim, n))
        drifted[:, 4] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _mended(drifted, space.gram(drifted, drifted))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 9), cols=st.integers(1, 6),
           fortran=st.booleans())
    def test_signs_match_the_argmax_reference(self, data, rows, cols, fortran):
        entries = st.one_of(st.integers(-3, 3).map(float),
                            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True))
        modes = data.draw(arrays(np.float64, (rows, cols), elements=entries))
        # exact +a / -a ties for the largest magnitude, and zero columns
        for j in data.draw(st.sets(st.integers(0, cols - 1))):
            if rows >= 2:
                i, k = data.draw(st.permutations(range(rows)))[:2]
                a = float(np.max(np.abs(modes[:, j]))) + data.draw(st.sampled_from([0.0, 1.0]))
                modes[i, j], modes[k, j] = a, -a
        for j in data.draw(st.sets(st.integers(0, cols - 1), max_size=1)):
            modes[:, j] = data.draw(st.sampled_from([0.0, -0.0]))
        if fortran:
            modes = np.asfortranarray(modes)
        right = data.draw(arrays(np.float64, (4, cols), elements=entries))

        pick = np.argmax(np.abs(modes), axis=0)
        signs = np.sign(modes[pick, np.arange(cols)])
        signs[signs == 0.0] = 1.0

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        copies = modes.copy(order="K"), right.copy()
        out, out_right = _fix_signs(modes, right)
        assert np.array_equal(bits(out), bits(modes * signs))
        assert np.array_equal(bits(out_right), bits(right * signs))
        assert np.array_equal(bits(modes), bits(copies[0])) and np.array_equal(bits(right), bits(copies[1]))
        # arrays pod made itself are scaled in place, to the same bits
        own, own_right = _fix_signs(copies[0], copies[1], owned=True)
        assert own is copies[0] and own_right is copies[1]
        assert np.array_equal(bits(own), bits(out)) and np.array_equal(bits(own_right), bits(out_right))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("route", ["wide", "svd-tall", "svd-wide"])
    def test_vectors_orthonormal_by_construction_form_no_mode_gramian(self, monkeypatch, route,
                                                                       weighted):
        rng = np.random.default_rng(71)
        dim, cols = (40, 90) if route != "svd-tall" else (90, 40)
        weights = rng.uniform(0.5, 2.0, dim) if weighted else None
        block = spectrum_block(rng, dim, cols, np.exp(-0.3 * np.arange(30)), weights)
        finishing, late = [], []
        real_gram, real_finish = InnerProductSpace.gram, POD._fix_signs

        def gram(self, a, b):
            if finishing:
                late.append(a.shape)
            return real_gram(self, a, b)

        def finish_modes(*args, **kwargs):
            finishing.append(True)
            return real_finish(*args, **kwargs)

        monkeypatch.setattr(InnerProductSpace, "gram", gram)
        monkeypatch.setattr(POD, "_fix_signs", finish_modes)
        backend = PodBackend("gram" if route == "wide" else "svd")
        out = pod(block, 1e-6, backend, want_right=True)
        assert finishing and late == []
        assert out.count > 20
        drift = np.max(np.abs(real_gram(block.space, out.modes, out.modes) - np.eye(out.count)))
        assert drift <= 1e-12


def burgers_data():
    return burgers_snapshots(BurgersConfig(grid_size=500, step_count=3000,
                                           spark_probability=1e-2, seed=5))


@pytest.fixture(scope="module")
def burgers_merges():
    """(block, epsilon) of each merge of a session over a Burgers trajectory."""
    data = burgers_data()
    calls, real = [], POD.pod

    def spy(block, epsilon, *args, **kwargs):
        calls.append((block, epsilon))
        return real(block, epsilon, *args, **kwargs)

    with mock.patch.object(POD, "pod", spy):
        session = IncrementalSession(1e-3, 0.75, planned_block_count=30)
        for a in range(0, data.count, 100):
            session.push(SnapshotBlock(data.space, data.values[:, a : a + 100]))
        session.finalize()
    assert len(calls) == 29
    return data, calls


@pytest.fixture
def pivoted_ranks(monkeypatch):
    """(m, q) of every pivoted Cholesky: q pivots above its tolerance."""
    ranks, real = [], scipy.linalg.lapack.dpstrf

    def spy(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        ranks.append((a.shape[0], out[2]))
        return out

    monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", spy)
    return ranks


class TestRangeSolve:
    """A tall Gramian is eigendecomposed on its numerical range: a pivoted
    Cholesky stopped at the noise floor leaves q <= m columns."""

    @pytest.mark.parametrize("source", ["slice", "weighted-slice", "merge"])
    def test_reduced_solve_matches_the_full_solve(self, monkeypatch, pivoted_ranks, burgers_merges,
                                                  source):
        data, merges = burgers_merges
        if source == "merge":
            block, eps = merges[-1]
        else:
            weighted = source == "weighted-slice"
            weights = np.random.default_rng(79).uniform(0.5, 2.0, 500) if weighted else None
            block = SnapshotBlock(InnerProductSpace(500, weights), data.values[:, 1000:1150])
            eps = 1e-6 * np.sqrt(np.sum(block.space.weigh(block.values) ** 2))
        out = pod(block, eps, want_right=True)
        ((m, q),) = pivoted_ranks
        assert q < m == block.count
        with monkeypatch.context() as patch:
            # the whole Gramian, as without the factor
            patch.setattr(POD, "_range_eigh", POD._descending_eigh)
            ref = pod(block, eps, want_right=True)
        assert out.count == ref.count > 1
        floor = POD.DEFAULT_GRAM_CUTOFF * m * ref.sigmas[0] ** 2
        assert np.max(np.abs(out.sigmas**2 - ref.sigmas**2)) <= floor
        eye = np.eye(out.count)
        assert np.max(np.abs(block.space.gram(out.modes, out.modes) - eye)) <= 1e-12
        assert np.max(np.abs(out.right.T @ out.right - eye)) <= 1e-12
        assert out.right.shape == (m, out.count)

    def test_eigh_sees_the_numerical_range_of_a_merge(self, monkeypatch, pivoted_ranks,
                                                      burgers_merges):
        _, merges = burgers_merges
        block, eps = merges[-1]
        sizes, real = [], POD._descending_eigh

        def spy(a, *args, **kwargs):
            sizes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(POD, "_descending_eigh", spy)
        pod(block, eps)
        ((m, q),) = pivoted_ranks
        assert m == block.count and 3 * q < m
        assert sizes == [(q, q)]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("panels", [1, 3])
    def test_full_rank_block_takes_the_full_solve(self, monkeypatch, pivoted_ranks, weighted,
                                                  panels):
        rng = np.random.default_rng(83)
        dim, cols = 90, 40
        weights = rng.uniform(0.5, 2.0, dim) if weighted else None
        block = spectrum_block(rng, dim, cols, np.exp(-0.2 * np.arange(cols)), weights)
        monkeypatch.setattr(POD, "BATCH_BYTES", -(-8 * dim * cols // panels))
        assert len(POD._row_panels(dim, cols)) == panels
        out = pod(block, 1e-3, want_right=True)
        assert pivoted_ranks == [(cols, cols)]
        monkeypatch.setattr(POD, "_range_eigh", POD._descending_eigh)
        ref = pod(block, 1e-3, want_right=True)
        for a, b in [(out.sigmas, ref.sigmas), (out.modes, ref.modes), (out.right, ref.right)]:
            assert np.array_equal(a, b)

    def test_low_rank_chain_is_bit_identical_across_workers(self, pivoted_ranks):
        data = burgers_data()
        tree = build_chain(15)
        leaves = distribute_columns(tree, data, block_size=200)
        tol = assign_tolerances(tree, leaves, 1e-3, 0.75)
        runs = [run_parallel(tree, leaves, tol, worker_count=w)[0] for w in (1, 2, 3)]
        assert any(q < m for m, q in pivoted_ranks)
        first = runs[0]
        for other in runs[1:]:
            assert np.array_equal(other.modes.sigmas, first.modes.sigmas)
            assert np.array_equal(other.modes.modes, first.modes.modes)
            counts = [[r.output_mode_count for r in run.reports] for run in (first, other)]
            assert counts[0] == counts[1]


class TestBlockGramianPod:
    def test_matches_slow_concatenation(self):
        rng = np.random.default_rng(47)
        for trial in range(12):
            dim = int(rng.integers(5, 30))
            weights = rng.uniform(0.4, 2.0, dim) if trial % 4 == 0 else None
            space = InnerProductSpace(dim, weights)
            a = SnapshotBlock(space, rng.standard_normal((dim, int(rng.integers(1, 12)))))
            b = SnapshotBlock(space, rng.standard_normal((dim, int(rng.integers(0, 12)))))
            prior = pod(a, float(rng.uniform(0.1, 1.0)))
            eps = float(rng.uniform(0.1, 3.0))
            fast = block_gramian_pod(prior, b, eps)
            slow = pod(SnapshotBlock(space, np.hstack([prior.scaled(), b.values])), eps)
            assert fast.count == slow.count
            assert np.allclose(fast.sigmas, slow.sigmas, rtol=1e-7, atol=1e-10)

    def test_empty_prior_is_plain_pod(self):
        rng = np.random.default_rng(53)
        space = euclid(7)
        empty = pod(SnapshotBlock(space, np.zeros((7, 0))), 0.5)
        fresh = SnapshotBlock(space, rng.standard_normal((7, 5)))
        out = block_gramian_pod(empty, fresh, 0.6)
        ref = pod(fresh, 0.6)
        assert out.count == ref.count
        assert np.allclose(out.sigmas, ref.sigmas, rtol=1e-12)

    def test_empty_fresh_retruncates_prior(self):
        # prior sigmas [2, 1]: budget 0.5 keeps both, budget 1.5 drops one
        space = euclid(6)
        u = np.zeros((6, 2))
        u[0, 0] = 1.0
        u[1, 1] = 1.0
        prior = ModeSet(space, np.array([2.0, 1.0]), u)
        nothing = SnapshotBlock(space, np.zeros((6, 0)))
        keep = block_gramian_pod(prior, nothing, 0.5)
        assert keep.count == 2
        assert np.allclose(keep.sigmas, [2.0, 1.0], rtol=1e-12)
        drop = block_gramian_pod(prior, nothing, 1.5)
        assert drop.count == 1
        assert drop.sigmas[0] == pytest.approx(2.0, rel=1e-12)

    def test_epsilon_zero_passthrough(self):
        rng = np.random.default_rng(59)
        space = euclid(5)
        prior = pod(SnapshotBlock(space, rng.standard_normal((5, 3))), 0.2)
        fresh = SnapshotBlock(space, rng.standard_normal((5, 2)))
        out = block_gramian_pod(prior, fresh, 0.0)
        assert not out.orthonormal
        assert out.count == prior.count + 2
        assert np.allclose(out.modes[:, :prior.count], prior.scaled())

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_nonfinite_epsilon(self, eps):
        rng = np.random.default_rng(61)
        prior = pod(random_block(rng, 5, 3), 0.2)
        with pytest.raises(ValueError, match="finite"):
            block_gramian_pod(prior, random_block(rng, 5, 2), eps)

    def test_rejects_space_mismatch(self):
        prior = pod(SnapshotBlock(euclid(3), np.eye(3)), 0.1)
        other = SnapshotBlock(InnerProductSpace(3, np.array([1.0, 2.0, 3.0])), np.eye(3))
        with pytest.raises(ValueError, match="space"):
            block_gramian_pod(prior, other, 0.5)


class TestFiniteCheck:
    """`SnapshotBlock` reads each chunk of its values for min and max in one
    go, along the slow axis, and still finds every non-finite entry."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finds_nonfinite_entries_in_any_chunk(self, monkeypatch, order, where, bad):
        monkeypatch.setattr(POD, "_CHECK_BYTES", 8 * 40 * 4)  # 3 to 4 rows or columns a chunk
        values = np.asarray(np.random.default_rng(61).standard_normal((50, 40)), order=order)
        SnapshotBlock(euclid(50), values)
        at = (0, 0) if where == "first" else (49, 39)
        values[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SnapshotBlock(euclid(50), values)

    def test_chunks_cover_a_strided_view(self, monkeypatch):
        monkeypatch.setattr(POD, "_CHECK_BYTES", 64)
        values = np.random.default_rng(67).standard_normal((30, 20))
        view = values[:, 3:17:2]
        SnapshotBlock(euclid(30), view)
        values[29, 15] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SnapshotBlock(euclid(30), view)


class TestValidation:
    def test_mode_set_rejects_increasing_sigmas(self):
        with pytest.raises(ValueError):
            ModeSet(euclid(2), np.array([1.0, 2.0]), np.eye(2))

    def test_mode_set_rejects_a_shape_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ModeSet(euclid(3), np.array([2.0, 1.0]), np.eye(3))

    def test_mode_set_passthrough_requires_unit_sigmas(self):
        with pytest.raises(ValueError):
            ModeSet(euclid(2), np.array([2.0, 1.0]), np.eye(2), orthonormal=False)

    def test_space_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            InnerProductSpace(3, np.array([1.0, 0.0, 2.0]))

    def test_spaces_of_other_dimensions_differ(self):
        assert not euclid(3).same_as(euclid(4))
        assert not InnerProductSpace(3, np.ones(3)).same_as(InnerProductSpace(4, np.ones(4)))

    def test_space_rejects_wrong_weight_shape(self):
        with pytest.raises(ValueError):
            InnerProductSpace(3, np.ones(4))
        with pytest.raises(ValueError, match="positive integer"):
            InnerProductSpace(0)

    def test_block_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SnapshotBlock(euclid(3), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="2-d"):
            SnapshotBlock(euclid(3), np.zeros(3))

    def test_caller_arrays_stay_writeable(self):
        w, values, fvalues = np.ones(3), np.ones((3, 2)), np.ones((3, 2), order="F")
        sigmas, modes, right = np.ones(2), np.eye(3)[:, :2].copy(), np.eye(2)
        space = InnerProductSpace(3, w)
        block, fblock = SnapshotBlock(space, values), SnapshotBlock(space, fvalues)
        ms = ModeSet(space, sigmas, modes, right=right)
        for a in (w, values, fvalues, sigmas, modes, right):
            assert a.flags.writeable
        for a in (space.weights, block.values, fblock.values, ms.sigmas, ms.modes, ms.right):
            assert not a.flags.writeable

    def test_backend_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PodBackend("qr")


class TestPassFull:
    """A leaf below the root (`_leaf_step`) hands up the raw columns of a
    tall block whose every singular value exceeds epsilon, and decomposes
    otherwise."""

    SIGMAS = np.array([5.0, 4.0, 3.0, 2.0, 1.0])

    @staticmethod
    def leaf(block, eps, backend=None):
        """The leaf's output and its right vectors."""
        return POD._leaf_step(block, eps, backend, want_right=True)

    def assert_same(self, leaf, ref):
        # decomposed by `pod`: the modes, scaled by their sigmas
        out, right = leaf
        assert out.coef is out.sigmas and out.tail_energy == ref.tail_energy
        assert np.array_equal(out.sigmas, ref.sigmas)
        assert np.array_equal(out.columns, ref.modes)
        assert (right is None) == (ref.right is None)
        if right is not None:
            assert np.array_equal(right, ref.right)

    def assert_factored(self, leaf, ref, block):
        # the same POD stopped after its eigensolve: the leaf's own columns
        # times its right vectors psi, before the sign convention
        out, right = leaf
        assert out.columns is block.values and out.coef is right
        assert out.tail_energy == ref.tail_energy
        assert np.array_equal(out.sigmas, ref.sigmas)
        signs = np.sign(np.sum(right * ref.right, axis=0))
        assert np.array_equal(right * signs, ref.right)
        scaled = block.values @ right * signs
        assert np.allclose(scaled, ref.scaled(), rtol=0.0, atol=1e-12 * self.SIGMAS[0])

    def assert_passthrough(self, leaf, block):
        out, right = leaf
        assert out.coef is None
        assert np.array_equal(out.columns, block.values)
        assert np.array_equal(out.sigmas, np.ones(block.count))
        assert out.tail_energy == 0.0
        assert right is None  # the identity, never formed

    @pytest.mark.parametrize("panels", [1, 3])
    def test_below_smallest_sigma_passes_through(self, monkeypatch, panels):
        block = spectrum_block(np.random.default_rng(91), 12, 5, self.SIGMAS)
        if panels > 1:
            monkeypatch.setattr(POD, "BATCH_BYTES", 8 * 4 * 5)
        assert len(POD._row_panels(12, 5)) == panels
        self.assert_passthrough(self.leaf(block, 0.9), block)

    @pytest.mark.parametrize("eps", [1.1, 2.5, 10.0])
    def test_above_smallest_sigma_is_unchanged(self, eps):
        block = spectrum_block(np.random.default_rng(93), 12, 5, self.SIGMAS)
        out = self.leaf(block, eps)
        self.assert_factored(out, pod(block, eps, want_right=True), block)
        assert out[0].coef is not None and out[0].count < block.count

    def test_skips_the_eigensolve(self, monkeypatch):
        block = spectrum_block(np.random.default_rng(95), 12, 5, self.SIGMAS)
        calls = []
        real = POD._descending_eigh
        monkeypatch.setattr(POD, "_descending_eigh", lambda *a, **k: calls.append(1) or real(*a, **k))
        self.leaf(block, 0.9)
        assert calls == []
        self.leaf(block, 1.1)
        assert calls == [1]

    def test_wide_block_is_decomposed(self):
        # 5 rows, 12 columns: every nonzero sigma exceeds epsilon, but only
        # a tall block can hand its columns on
        block = spectrum_block(np.random.default_rng(97), 5, 12, self.SIGMAS)
        out = self.leaf(block, 0.9)
        self.assert_same(out, pod(block, 0.9, want_right=True))
        assert out[0].coef is not None and out[0].count == 5

    def test_svd_backend_is_decomposed(self):
        block = spectrum_block(np.random.default_rng(99), 12, 5, self.SIGMAS)
        svd = PodBackend("svd")
        out = self.leaf(block, 0.9, svd)
        self.assert_same(out, pod(block, 0.9, svd, want_right=True))
        assert out[0].coef is not None and out[0].count == 5

    def test_weighted_block_checks_the_weighted_sigmas(self):
        # small weights make every Euclidean sigma exceed 3, while the
        # weighted ones run down to 1: 1.5 must decompose, 0.9 pass through
        rng = np.random.default_rng(101)
        weights = rng.uniform(0.01, 0.1, 12)
        block = spectrum_block(rng, 12, 5, self.SIGMAS, weights)
        assert scipy.linalg.svdvals(block.values)[-1] > 3.0
        out = self.leaf(block, 1.5)
        self.assert_factored(out, pod(block, 1.5, want_right=True), block)
        assert out[0].count == 4
        self.assert_passthrough(self.leaf(block, 0.9), block)

    def test_rank_deficient_block_is_decomposed(self):
        rng = np.random.default_rng(103)
        values = rng.standard_normal((12, 5))
        values[:, 4] = values[:, 0]
        block = SnapshotBlock(euclid(12), values)
        out, _ = self.leaf(block, 1e-3)
        assert out.coef is not None and out.count == 4

    def test_passthrough_prior_stacks_unscaled(self, monkeypatch):
        rng = np.random.default_rng(105)
        fresh = random_block(rng, 8, 2)
        real, scales = SnapshotBlock._stack, []

        def spy(space, parts):
            scales.append([scale for _, scale in parts])
            return real(space, parts)

        monkeypatch.setattr(SnapshotBlock, "_stack", staticmethod(spy))
        passed = pod(random_block(rng, 8, 3), 0.0)
        kept = pod(random_block(rng, 8, 3), 0.1)
        block_gramian_pod(passed, fresh, 0.1)
        block_gramian_pod(kept, fresh, 0.1)
        assert scales[0] == [None, None]
        assert scales[1][0] is kept.sigmas and scales[1][1] is None
