import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hapod import BurgersConfig, GenerationError, burgers_snapshots, synthetic_decay


def small(**kw):
    base = dict(grid_size=60, step_count=400, time_step=1e-4, seed=4)
    base.update(kw)
    return BurgersConfig(**base)


class TestBurgers:
    def test_shape_and_determinism(self):
        # spark probability large enough that a 400 step run certainly fires
        a = burgers_snapshots(small(spark_probability=0.02))
        b = burgers_snapshots(small(spark_probability=0.02))
        assert a.values.shape == (60, 400)
        assert np.array_equal(a.values, b.values)
        c = burgers_snapshots(small(spark_probability=0.02, seed=5))
        assert not np.array_equal(a.values, c.values)

    def test_no_sparks_means_no_motion(self):
        block = burgers_snapshots(small(spark_probability=0.0))
        assert np.all(block.values == 0.0)

    def test_stats_sidecar_consistent(self):
        block, stats = burgers_snapshots(small(step_count=2000), with_stats=True)
        steps = stats["spark_steps"]
        amps = stats["spark_amplitudes"]
        assert stats["spark_count"] == len(steps) == len(amps)
        assert np.all(np.diff(steps) > 0)
        assert np.all((steps >= 0) & (steps < 2000))
        assert np.all((amps >= 0.0) & (amps <= 0.2))
        # the forcing actually moved the state
        assert stats["spark_count"] > 0
        assert np.any(block.values != 0.0)

    def test_mass_decays_after_forcing_stops(self):
        block, stats = burgers_snapshots(small(step_count=3000, spark_probability=5e-3),
                                         with_stats=True)
        last = int(stats["spark_steps"].max())
        mass = block.values[:, last + 1:].sum(axis=0)
        assert np.all(np.diff(mass) <= 1e-12)

    def test_state_stays_nonnegative(self):
        block = burgers_snapshots(small(step_count=2000, spark_probability=5e-3))
        assert block.values.min() >= -1e-10

    def test_blow_up_reports_step(self):
        cfg = BurgersConfig(grid_size=20, step_count=80, time_step=10.0,
                            spark_probability=1.0, spark_max=10.0, seed=1)
        with pytest.raises(GenerationError) as err:
            burgers_snapshots(cfg)
        assert 0 <= err.value.step < 80

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BurgersConfig(grid_size=0)
        with pytest.raises(ValueError):
            BurgersConfig(time_step=0.0)
        with pytest.raises(ValueError):
            BurgersConfig(spark_probability=1.5)
        with pytest.raises(ValueError):
            BurgersConfig(spark_max=-0.1)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError):
                BurgersConfig(spark_max=value)


class TestSyntheticDecay:
    def test_spectrum_is_exactly_prescribed(self):
        for d, m in ((30, 50), (50, 30), (20, 20), (90, 30), (30, 90)):
            block = synthetic_decay(d, m, 0.25, seed=8)
            assert block.values.shape == (d, m)
            got = scipy.linalg.svdvals(block.values)
            want = np.exp(-0.25 * np.arange(1, min(d, m) + 1))
            assert np.allclose(got, want, rtol=1e-10)

    def test_deterministic(self):
        a = synthetic_decay(12, 7, 0.1, seed=3)
        b = synthetic_decay(12, 7, 0.1, seed=3)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, synthetic_decay(12, 7, 0.1, seed=4).values)

    def test_single_column_norm(self):
        block = synthetic_decay(9, 1, 0.5, seed=2)
        assert np.linalg.norm(block.values) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_zero_rate_gives_flat_spectrum(self):
        block = synthetic_decay(10, 6, 0.0, seed=5)
        assert np.allclose(scipy.linalg.svdvals(block.values), 1.0, rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_decay(0, 5, 0.1)
        with pytest.raises(ValueError):
            synthetic_decay(5, 5, -0.1)
        with pytest.raises(ValueError):
            synthetic_decay(5, 5, np.nan)

    @pytest.mark.parametrize("d, m", [(80, 40), (40, 80), (79, 40), (40, 40), (9, 1), (1, 9),
                                      (300, 20)])
    def test_matches_two_householder_frames(self, d, m):
        # the reference draws both Haar frames by sign-fixed Householder QR;
        # shapes of aspect ratio 2 or more take the Cholesky route instead
        k = min(d, m)

        def haar_frame(rows, seq):
            g = np.random.Generator(np.random.Philox(seq)).standard_normal((rows, k))
            q, r = scipy.linalg.qr(g, mode="economic")
            signs = np.sign(np.diag(r))
            signs[signs == 0.0] = 1.0
            return q * signs[None, :]

        spectrum = np.exp(-0.3 * np.arange(1, k + 1, dtype=np.float64))
        for seed in range(4):
            seq_left, seq_right = np.random.SeedSequence(seed).spawn(2)
            want = (haar_frame(d, seq_left) * spectrum[None, :]) @ haar_frame(m, seq_right).T
            got = synthetic_decay(d, m, 0.3, seed=seed).values
            assert got.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("d, m", [(8000, 400), (400, 8000)])
    def test_peak_memory_holds_one_gaussian_and_the_output(self, d, m):
        tracemalloc.start()
        try:
            block = synthetic_decay(d, m, 0.05, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * block.values.nbytes
