import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hapod import (
    InnerProductSpace,
    ModeSet,
    PodBackend,
    SnapshotBlock,
    block_gramian_pod,
    gramian,
    pod,
    truncation_rank,
)
from hapod.pod import _finish_modes
from helpers import naive_rank, oracle_pod_count, span_residual_sq


def euclid(dim):
    return InnerProductSpace(dim)


def random_block(rng, dim, cols, weights=None):
    return SnapshotBlock(InnerProductSpace(dim, weights),
                         rng.standard_normal((dim, cols)))


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

        modes, right_out = _finish_modes(drifted, right, space, want_right=True)
        assert np.max(np.abs(space.gram(modes, modes) - np.eye(n))) <= 1e-12
        # same span: the drifted columns lie in the span of the result
        assert span_residual_sq(drifted, modes, weights) <= 1e-20
        # each mode keeps its orientation relative to its right vector
        flips = np.sign(np.diag(space.gram(modes, drifted)))
        assert np.array_equal(flips, np.sign(np.sum(right_out * right, axis=0)))


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

    def test_rejects_passthrough_prior(self):
        space = euclid(3)
        raw = pod(SnapshotBlock(space, np.eye(3)), 0.0)
        with pytest.raises(ValueError, match="orthonormal"):
            block_gramian_pod(raw, SnapshotBlock(space, np.eye(3)), 0.5)

    def test_rejects_space_mismatch(self):
        prior = pod(SnapshotBlock(euclid(3), np.eye(3)), 0.1)
        other = SnapshotBlock(InnerProductSpace(3, np.array([1.0, 2.0, 3.0])), np.eye(3))
        with pytest.raises(ValueError, match="space"):
            block_gramian_pod(prior, other, 0.5)


class TestValidation:
    def test_mode_set_rejects_increasing_sigmas(self):
        with pytest.raises(ValueError):
            ModeSet(euclid(2), np.array([1.0, 2.0]), np.eye(2))

    def test_mode_set_passthrough_requires_unit_sigmas(self):
        with pytest.raises(ValueError):
            ModeSet(euclid(2), np.array([2.0, 1.0]), np.eye(2), orthonormal=False)

    def test_space_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            InnerProductSpace(3, np.array([1.0, 0.0, 2.0]))

    def test_space_rejects_wrong_weight_shape(self):
        with pytest.raises(ValueError):
            InnerProductSpace(3, np.ones(4))

    def test_block_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SnapshotBlock(euclid(3), np.zeros((4, 2)))

    def test_backend_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PodBackend("qr")

    def test_backend_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            PodBackend("gram", gram_eig_cutoff_factor=0.0)
