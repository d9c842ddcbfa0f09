"""Proper orthogonal decomposition of snapshot blocks.

The POD of a finite snapshot set is the left singular value decomposition of
the linear map that sends the j-th canonical basis vector to the j-th
snapshot.  Two classic routes are implemented: the method of snapshots
(eigendecomposition of the m x m Gramian, cheap for tall-and-skinny data) and
a direct SVD of the weighted snapshot matrix, which does not square the
condition number.

Everything works in R^d equipped with an optional strictly positive diagonal
weight vector; without weights the inner product is the Euclidean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "DEFAULT_GRAM_CUTOFF",
    "InnerProductSpace",
    "SnapshotBlock",
    "ModeSet",
    "PodBackend",
    "truncation_rank",
    "gramian",
    "pod",
    "block_gramian_pod",
]

#: Gramian eigenvalues below ``factor * lam_max * m`` count as numerical zeros.
DEFAULT_GRAM_CUTOFF = 4.0 * float(np.finfo(np.float64).eps)


def _read_only(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class InnerProductSpace:
    """R^d with an optional strictly positive diagonal weight vector.

    ``weights is None`` means the plain Euclidean dot product.  Weighted
    inner product: ``<u, v> = u @ (weights * v)``.
    """

    dimension: int
    weights: np.ndarray | None = None

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 1:
            raise ValueError(f"space dimension must be a positive integer, got {self.dimension}")
        object.__setattr__(self, "dimension", int(self.dimension))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (self.dimension,):
                raise ValueError(f"weights shape {w.shape} does not match dimension {self.dimension}")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise ValueError("weights must be finite and strictly positive")
            object.__setattr__(self, "weights", _read_only(w))
            object.__setattr__(self, "_sqrt_w", _read_only(np.sqrt(w)))
        else:
            object.__setattr__(self, "_sqrt_w", None)

    def same_as(self, other: "InnerProductSpace") -> bool:
        if self.dimension != other.dimension:
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        return self.weights is None or bool(np.array_equal(self.weights, other.weights))

    def weigh(self, a: np.ndarray) -> np.ndarray:
        """Map columns to Euclidean coordinates (multiply by diag(sqrt w))."""
        if self.weights is None:
            return a
        return a * self._sqrt_w[:, None]

    def unweigh(self, a: np.ndarray) -> np.ndarray:
        if self.weights is None:
            return a
        return a / self._sqrt_w[:, None]

    def gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All pairwise inner products between the columns of ``a`` and ``b``."""
        if self.weights is None:
            return a.T @ b
        return a.T @ (self.weights[:, None] * b)

    def norms_sq(self, a: np.ndarray) -> np.ndarray:
        """Squared norm of every column."""
        if self.weights is None:
            return np.einsum("ij,ij->j", a, a)
        return np.einsum("ij,ij->j", a, self.weights[:, None] * a)


@dataclass(frozen=True, eq=False)
class SnapshotBlock:
    """A d x m column block of snapshots living in one space."""

    space: InnerProductSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"snapshot block must be 2-d, got shape {v.shape}")
        if v.shape[0] != self.space.dimension:
            raise ValueError(
                f"snapshot rows {v.shape[0]} do not match space dimension {self.space.dimension}"
            )
        if v.size and not np.all(np.isfinite(v)):
            raise ValueError("snapshot block contains non-finite entries")
        object.__setattr__(self, "values", _read_only(v))

    @property
    def count(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ModeSet:
    """POD output: left singular vectors with their singular values.

    ``orthonormal=False`` marks the epsilon = 0 passthrough convention: the
    columns are raw snapshots, all sigmas are exactly one and nothing was
    decomposed.  ``tail_energy`` is the energy discarded by truncation,
    ``right`` optionally carries the matching right singular vectors (m x N,
    orthonormal columns in the Euclidean sense).
    """

    space: InnerProductSpace
    sigmas: np.ndarray
    modes: np.ndarray
    orthonormal: bool = True
    tail_energy: float = 0.0
    right: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=np.float64).reshape(-1)
        m = np.asarray(self.modes, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != self.space.dimension or m.shape[1] != s.size:
            raise ValueError(f"mode shape {m.shape} inconsistent with {s.size} sigmas in R^{self.space.dimension}")
        if s.size and (not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(np.diff(s) > 0.0)):
            raise ValueError("sigmas must be finite, nonnegative and non-increasing")
        if not self.orthonormal and s.size and not np.all(s == 1.0):
            raise ValueError("passthrough mode sets must carry unit sigmas")
        object.__setattr__(self, "sigmas", _read_only(s))
        object.__setattr__(self, "modes", _read_only(m))
        if self.right is not None:
            object.__setattr__(self, "right", _read_only(np.asarray(self.right, dtype=np.float64)))

    @property
    def count(self) -> int:
        return self.sigmas.size

    def scaled(self) -> np.ndarray:
        """Columns sigma_n * phi_n, the snapshots fed to the parent node."""
        return self.modes * self.sigmas[None, :]

    def as_block(self) -> SnapshotBlock:
        return SnapshotBlock(self.space, self.scaled())


@dataclass(frozen=True)
class PodBackend:
    """How the small dense decompositions are carried out.

    kind "gram" is the method of snapshots (Gramian eigendecomposition),
    "svd" a direct SVD of the weighted snapshot matrix.  Eigenvalues of the
    Gramian below ``gram_eig_cutoff_factor * lam_max * m`` are treated as
    numerical zeros and dropped before any truncation decision; the same rule
    is applied to squared singular values for the svd kind.
    """

    kind: str = "gram"
    gram_eig_cutoff_factor: float = DEFAULT_GRAM_CUTOFF

    def __post_init__(self):
        if self.kind not in ("gram", "svd"):
            raise ValueError(f"unknown backend kind {self.kind!r}, expected 'gram' or 'svd'")
        f = self.gram_eig_cutoff_factor
        if not (0.0 < f < 1.0):
            raise ValueError(f"gram_eig_cutoff_factor must lie in (0, 1), got {f}")


def truncation_rank(sigmas: np.ndarray, epsilon: float) -> int:
    """Smallest N whose discarded tail satisfies sum_{n>N} sigma_n^2 <= epsilon^2.

    epsilon = 0 keeps every sigma that carries energy; trailing exact zeros
    are never counted.
    """
    s = np.asarray(sigmas, dtype=np.float64).reshape(-1)
    if s.size and (np.any(s < 0.0) or np.any(np.diff(s) > 0.0)):
        raise ValueError("sigmas must be nonnegative and non-increasing")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    # tails[k] = sum of squares from index k on, accumulated small-to-large;
    # the appended zero guarantees a hit for every budget
    tails = np.zeros(s.size + 1)
    tails[:-1] = np.cumsum((s * s)[::-1])[::-1]
    return int(np.argmax(tails <= epsilon * epsilon))


def gramian(block: SnapshotBlock) -> np.ndarray:
    """The m x m matrix of pairwise snapshot inner products, explicitly symmetrized."""
    g = block.space.gram(block.values, block.values)
    return 0.5 * (g + g.T)


def _fix_signs(modes: np.ndarray, right: np.ndarray | None):
    """Deterministic sign convention: largest-magnitude entry of each mode positive."""
    if modes.shape[1] == 0:
        return modes, right
    pick = np.argmax(np.abs(modes), axis=0)
    signs = np.sign(modes[pick, np.arange(modes.shape[1])])
    signs[signs == 0.0] = 1.0
    modes = modes * signs[None, :]
    if right is not None:
        right = right * signs[None, :]
    return modes, right


def _reorthonormalize(modes: np.ndarray, space: InnerProductSpace) -> np.ndarray:
    """One QR in the space's Euclidean coordinates, column orientations kept."""
    q, r = np.linalg.qr(space.weigh(modes))
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)[None, :]
    return space.unweigh(q)


def _finish_modes(modes, right, space, want_right):
    # Re-orthonormalize only when the mode Gramian actually drifted; one QR
    # is enough because the drift comes from clustered eigenvalues, not from
    # loss of rank.
    n = modes.shape[1]
    if n:
        g = space.gram(modes, modes)
        off = g - np.eye(n)
        if np.max(np.abs(off)) > 1e-8:
            modes = _reorthonormalize(modes, space)
    modes, right = _fix_signs(modes, right)
    return modes, (right if want_right else None)


def _empty_mode_set(space, want_right, input_count=0, tail_energy=0.0):
    # right keeps one row per input column so stacked factors stay aligned
    return ModeSet(
        space,
        np.zeros(0),
        np.zeros((space.dimension, 0)),
        orthonormal=True,
        tail_energy=tail_energy,
        right=np.zeros((input_count, 0)) if want_right else None,
    )


def _passthrough(block: SnapshotBlock, want_right: bool) -> ModeSet:
    m = block.count
    return ModeSet(
        block.space,
        np.ones(m),
        block.values,
        orthonormal=False,
        tail_energy=0.0,
        right=np.eye(m) if want_right else None,
    )


def _from_spectrum(lam_desc, vec_desc, assemble, space, epsilon, cutoff, m, want_right):
    """Shared truncation logic.  lam_desc are Gramian eigenvalues (descending),
    assemble(idx) must return the first idx modes as a d x idx array."""
    lam_max = lam_desc[0] if lam_desc.size else 0.0
    if lam_max <= 0.0:
        return _empty_mode_set(space, want_right, input_count=m)
    keep = lam_desc >= cutoff * lam_max * m
    lam = lam_desc[keep]
    vec = vec_desc[:, keep]
    sig = np.sqrt(lam)
    rank = truncation_rank(sig, epsilon)
    tail = float(np.sum(lam[rank:]))
    modes = assemble(vec[:, :rank], sig[:rank])
    right = vec[:, :rank] if want_right else None
    modes, right = _finish_modes(modes, right, space, want_right)
    return ModeSet(space, sig[:rank], modes, orthonormal=True, tail_energy=tail, right=right)


def pod(block: SnapshotBlock, epsilon: float, backend: PodBackend | None = None,
        want_right: bool = False) -> ModeSet:
    """POD of a snapshot block, truncated at squared-error budget epsilon^2.

    Parameters
    ----------
    block
        Snapshots as columns; may have zero columns.
    epsilon
        Nonnegative truncation tolerance.  The discarded tail satisfies
        sum_{n>N} sigma_n^2 <= epsilon^2.  Zero requests the passthrough
        convention: the raw snapshots come back with unit sigmas and
        ``orthonormal=False``, no decomposition happens.
    backend
        Gramian eigendecomposition ("gram", default) or direct SVD ("svd").
    want_right
        Also return the right singular vectors (needed to track snapshot
        coefficients through a hierarchy).

    Returns
    -------
    ModeSet
        Modes orthonormal in the block's inner product, sigmas descending.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    backend = backend or PodBackend()
    if epsilon == 0.0:
        return _passthrough(block, want_right)
    m = block.count
    if m == 0:
        return _empty_mode_set(block.space, want_right)
    if backend.kind == "gram":
        lam, psi = scipy.linalg.eigh(gramian(block))
        lam = lam[::-1]
        psi = psi[:, ::-1]

        def assemble(vec, sig):
            return (block.values @ vec) / sig[None, :]

        return _from_spectrum(lam, psi, assemble, block.space, epsilon,
                              backend.gram_eig_cutoff_factor, m, want_right)
    # direct SVD of the weighted matrix
    u, s, vt = scipy.linalg.svd(block.space.weigh(block.values), full_matrices=False)
    lam = s * s
    v = vt.T

    def assemble(vec, sig):
        k = vec.shape[1]
        return block.space.unweigh(u[:, :k])

    return _from_spectrum(lam, v, assemble, block.space, epsilon,
                          backend.gram_eig_cutoff_factor, m, want_right)


def block_gramian_pod(prior: ModeSet, fresh: SnapshotBlock, epsilon: float,
                      cutoff_factor: float = DEFAULT_GRAM_CUTOFF,
                      want_right: bool = False) -> ModeSet:
    """POD of [sigma_1 phi_1, ..., sigma_N phi_N | fresh] on the Gramian route.

    The merge step of single-pass incremental compression: the scaled prior
    modes and the fresh columns are stacked and decomposed by `pod`, the same
    step a chain run's merge node performs.
    """
    if not prior.orthonormal:
        raise ValueError("prior modes must be orthonormal (passthrough sets cannot be extended this way)")
    if not prior.space.same_as(fresh.space):
        raise ValueError("prior modes and fresh block live in different spaces")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    columns = np.hstack([prior.scaled(), fresh.values])
    return pod(SnapshotBlock(prior.space, columns), epsilon, PodBackend("gram", cutoff_factor),
               want_right=want_right)
