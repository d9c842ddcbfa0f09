"""Snapshot generators used by the experiments and the test suite.

Both generators draw from counter-based Philox streams split off one seed, so
the random draws are the same on every platform and do not depend on how
many values other streams consumed.  The output is bit-for-bit reproducible
on the same NumPy, SciPy and BLAS build with the same BLAS thread count:
synthetic_decay's QR, Cholesky and matrix products are LAPACK and BLAS
results, whose last bits may differ between builds and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pod import InnerProductSpace, SnapshotBlock

__all__ = ["BurgersConfig", "GenerationError", "burgers_snapshots", "synthetic_decay"]


class GenerationError(RuntimeError):
    """Time stepping produced a non-finite state; .step says when."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class BurgersConfig:
    """Forced 1-d Burgers trajectory on (0, 1), explicit Euler in time.

    The forcing is a Gaussian bump in space, switched on at random steps
    (Bernoulli per step with spark_probability) with amplitude uniform on
    [0, spark_max].  Defaults give ten expected sparks over the run.
    """

    grid_size: int = 500
    step_count: int = 10000
    time_step: float = 1e-4
    spark_probability: float = 1e-3
    spark_max: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.step_count < 1:
            raise ValueError("step_count must be positive")
        if not self.time_step > 0.0:
            raise ValueError("time_step must be positive")
        if not (0.0 <= self.spark_probability <= 1.0):
            raise ValueError("spark_probability must lie in [0, 1]")
        if not 0.0 <= self.spark_max < np.inf:
            raise ValueError("spark_max must be finite and nonnegative")


def _forcing_pattern(cfg: BurgersConfig):
    # one stream decides when a spark fires, a second one its amplitude, so
    # the spark times do not shift when amplitudes are resampled
    root = np.random.SeedSequence(cfg.seed)
    seq_times, seq_amp = root.spawn(2)
    fired = np.random.Generator(np.random.Philox(seq_times)).random(cfg.step_count) < cfg.spark_probability
    amplitudes = np.zeros(cfg.step_count)
    n_fired = int(np.count_nonzero(fired))
    if n_fired:
        amplitudes[fired] = np.random.Generator(np.random.Philox(seq_amp)).uniform(
            0.0, cfg.spark_max, size=n_fired
        )
    return fired, amplitudes


def burgers_snapshots(cfg: BurgersConfig, with_stats: bool = False):
    """Integrate dz/dt = -d(z^2/2)/dx + b(x) u(t) and return the states after
    every step as columns.

    Space discretization: cell-centered grid x_i = (i + 1/2)/N, conservative
    upwind flux difference (q_i - q_{i-1})/dx with zero left ghost value and a
    free outflow right end; the state starts at zero.  Each spark is an
    impulse: u(t) = amplitude * delta(t - t_spark), so the state jumps by
    amplitude * b(x) at the spark step no matter how small the time step is.
    (A per-step forcing of that amplitude would inject only time_step * b and
    the trajectory would never leave the linear regime.)  The scheme
    transports the sparked bumps rightward and steepens them into moving
    fronts, which is what makes the trajectory's spectrum decay slowly enough
    to be an interesting compression target.

    Returns the SnapshotBlock, or (block, stats) with spark bookkeeping when
    with_stats is set.  Raises GenerationError at the first non-finite state
    (time step too large for the realized amplitudes).
    """
    n = cfg.grid_size
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    bump = np.exp(-((x - 0.5) ** 2) / 20.0)
    fired, amplitudes = _forcing_pattern(cfg)

    z = np.zeros(n)
    out = np.empty((n, cfg.step_count))
    scale = cfg.time_step / dx
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.step_count):
            q = 0.5 * z * z
            dq = np.empty(n)
            dq[0] = q[0]  # ghost value left of the domain is zero
            dq[1:] = q[1:] - q[:-1]
            z = z - scale * dq + amplitudes[t] * bump
            if not np.all(np.isfinite(z)):
                raise GenerationError(t, f"state blew up at step {t}; reduce time_step")
            out[:, t] = z

    block = SnapshotBlock(InnerProductSpace(n), out)
    if not with_stats:
        return block
    stats = {
        "spark_count": int(np.count_nonzero(fired)),
        "spark_steps": np.flatnonzero(fired),
        "spark_amplitudes": amplitudes[fired],
    }
    return block, stats


def synthetic_decay(d: int, m: int, decay_rate: float, seed: int = 0) -> SnapshotBlock:
    """A d x m block with exactly prescribed singular values exp(-decay_rate * n),
    n = 1..min(d, m), and seeded random orthonormal factors.

    Each factor is the Haar frame of a Gaussian: the Q of its QR with the
    signs fixed so that R has a positive diagonal (Mezzadri 2007).  With
    k = min(d, m), the k x k frame F is a Householder QR.  When the taller
    max(d, m) x k Gaussian G has at least 2k rows, its frame G R^-1 is never
    formed: R is the Cholesky factor of G^T G, the same R in exact
    arithmetic, and the block is G C for d >= m and C^T G^T for d < m, with
    C = R^-1 diag(s) F^T.  Cholesky QR loses about kappa(G)^2 times the unit
    roundoff of orthogonality; a Gaussian with at least twice as many rows as
    columns has kappa(G) below about 6, but on squarer shapes kappa(G) has no
    such bound, so there both frames are Householder QRs.  The route depends
    on the shape only.
    """
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    if not decay_rate >= 0.0:
        raise ValueError("decay_rate must be nonnegative")
    k = min(d, m)
    seq_left, seq_right = np.random.SeedSequence(seed).spawn(2)

    def gaussian(rows: int, seq) -> np.ndarray:
        return np.random.Generator(np.random.Philox(seq)).standard_normal((rows, k))

    def haar_frame(g: np.ndarray) -> np.ndarray:
        q, r = scipy.linalg.qr(g, mode="economic", overwrite_a=True, check_finite=False)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        q *= signs
        return q

    spectrum = np.exp(-decay_rate * np.arange(1, k + 1, dtype=np.float64))
    if max(d, m) < 2 * k:
        left = haar_frame(gaussian(d, seq_left))
        left *= spectrum
        right = haar_frame(gaussian(m, seq_right))
        return SnapshotBlock(InnerProductSpace(d), left @ right.T)
    tall_seq, square_seq = (seq_left, seq_right) if d >= m else (seq_right, seq_left)
    g = gaussian(max(d, m), tall_seq)
    frame = haar_frame(gaussian(k, square_seq))
    r = scipy.linalg.cholesky(g.T @ g, check_finite=False)
    c = scipy.linalg.solve_triangular(r, spectrum[:, None] * frame.T, check_finite=False)
    return SnapshotBlock(InnerProductSpace(d), g @ c if d >= m else c.T @ g.T)
