"""Correctness gate applied after every operation, independent of hapod's own code.

Everything here is plain NumPy on the operation's output and the generated
input: explicit residuals for the error, an explicit Gramian for
orthonormality, and a flat-POD mode count from singular values the benchmark
knows without running hapod.
"""

from __future__ import annotations

import numpy as np

ORTHONORMAL_DRIFT = 1e-8
_RESIDUAL_CHUNK_BYTES = 32 * 2**20


def flat_mode_count(sigmas: np.ndarray, budget: float) -> int:
    """Smallest N with sum of squared sigmas beyond N at most budget**2."""
    s = np.sort(np.asarray(sigmas, dtype=np.float64))[::-1]
    tails = np.append(np.cumsum((s * s)[::-1])[::-1], 0.0)
    return int(np.flatnonzero(tails <= budget * budget)[0])


def mean_squared_error(data, modes: np.ndarray) -> float:
    """(1/m) sum_j ||s_j - U U^T s_j||^2 from explicit residuals, a column chunk
    at a time so that a memory-mapped input is never loaded whole."""
    d, m = data.shape
    step = max(1, _RESIDUAL_CHUNK_BYTES // (8 * d))
    total = 0.0
    for a in range(0, m, step):
        cols = np.asarray(data[:, a : a + step], dtype=np.float64)
        resid = cols - modes @ (modes.T @ cols)
        total += float(np.einsum("ij,ij->", resid, resid))
    return total / m


def check(outcome, data, target: float, flat_count: int, first_sigmas: np.ndarray | None) -> list[str]:
    """Names and details of every failed check; empty when the result is certified."""
    modes, sigmas = outcome.modes, outcome.sigmas
    if modes.ndim != 2 or modes.shape[0] != data.shape[0] or sigmas.shape != (modes.shape[1],):
        return [f"shape: modes {modes.shape}, sigmas {sigmas.shape} for {data.shape[0]} rows"]
    if not (np.all(np.isfinite(modes)) and np.all(np.isfinite(sigmas))):
        return ["finite: non-finite modes or sigmas"]
    problems = []
    n = modes.shape[1]
    drift = float(np.max(np.abs(modes.T @ modes - np.eye(n)))) if n else 0.0
    if drift > ORTHONORMAL_DRIFT:
        problems.append(f"orthonormal: Gramian drift {drift:.3e} > {ORTHONORMAL_DRIFT:g}")
    err = mean_squared_error(data, modes)
    if not err <= target * target:
        problems.append(f"mean-error: {err:.6g} > target {target * target:.6g}")
    if n > flat_count:
        problems.append(f"root-mode-bound: {n} modes > flat-POD count {flat_count}")
    if first_sigmas is not None and not np.array_equal(sigmas, first_sigmas):
        problems.append("repeatable: sigmas differ from the first repetition")
    return problems
