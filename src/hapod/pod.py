"""Proper orthogonal decomposition of snapshot blocks.

The POD of a finite snapshot set is the left singular value decomposition of
the linear map that sends the j-th canonical basis vector to the j-th
snapshot.  Two classic routes are implemented.  The default squares the
problem and eigendecomposes the smaller of the two squared matrices: the
m x m Gramian (method of snapshots) for a block of m <= d columns in R^d, the
d x d correlation matrix for a wider block; both have the same nonzero
spectrum, and rank is at most min(d, m).  The other route is a direct SVD of
the weighted snapshot matrix, which does not square the condition number.

The Gramian route is the method of snapshots on a block X: the block itself
when it is tall, the transpose of its weighted values when it is wide, whose
Gramian is the correlation matrix and whose left and right vectors swap
places.  X is split into fixed row panels of about `BATCH_BYTES` each: the
partial Gramians X_p^T W_p X_p are added in panel order, one
eigendecomposition follows, and the products X_p psi / sigma are assembled a
panel at a time.  A wide block's panels are column groups of at most d
columns, each weighed and transposed when it runs, so X is never held whole
and no panel is larger than the d x d partial Gramian it feeds.  The panels
depend on the block's shape only, so the result does not depend on which
threads run them.  A node whose panels have more rows than columns, so
that each partial Gramian is smaller than its panel, submits them to the
run's pool as futures, at most one per other worker ahead of the panel due
next, and runs those no other thread has started; it alone adds the
results, in panel order (`_pooled_spread`).  Any other node runs its panels
on its own thread.  A block of one panel takes exactly the unpanelled route.
The mean-error pass of `hapod.hierarchy` runs over the same row panels, so
each data pass holds about one `BATCH_BYTES` piece per worker.
A node below the root hands its parent one record (A, R, sigma, tail,
energy), `_NodeOutput`, whose scaled modes sigma phi are A R: R is None for raw
columns A, the sigmas for orthonormal modes A, or the k right vectors psi of
a truncating tall leaf, A its own columns, whose product A psi is never
formed (`_leaf_step`).  The parent stacks the parts (A, R)
(`SnapshotBlock._stack`).  A panel of a stack writes A R only for its own
rows, or its own columns when wide, so the stacked input of a node is never
held whole, and the assembly of a tall one folds R into its coefficients
instead of writing them again.  Blocks and mode sets hold a read-only view of
the caller's array in its memory order, so the array must not change while
they are in use; only `_blas_ready` copies, panels BLAS cannot read.

The eigendecomposition is LAPACK's divide and conquer, written over the
Gramian, which must be finite.  A tall block's Gramian G is first factored by
a pivoted Cholesky P^T G P = U^T U that stops once every remaining pivot is
at most ``DEFAULT_GRAM_CUTOFF * max diag G``; the remainder is positive
semidefinite with norm below the noise floor that truncation drops anyway.
When U has q < m rows, the q x q matrix U U^T is eigendecomposed instead,
U U^T = V Lambda V^T, and psi = P U^T V Lambda^(-1/2); PDE snapshots are
numerically low rank, so q is often a fraction of m.  Such psi drift from
orthonormal by about u * lambda_1 / lambda_r, and the modes X psi / sigma of
every tall block by u * sigma_1^2 / sigma_r^2; one Cholesky step of their
Gramian restores either, for the kept columns only.  A full-rank G and the
correlation matrix of a wide block are solved whole; their eigenvectors come
out orthonormal, as do singular vectors.

Everything works in R^d equipped with an optional strictly positive diagonal
weight vector; without weights the inner product is the Euclidean one.
"""

from __future__ import annotations

from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

__all__ = [
    "BATCH_BYTES",
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

#: Gramian eigenvalues below ``factor * lam_max * m`` count as numerical zeros,
#: and a tall Gramian's pivoted Cholesky stops at pivots below
#: ``factor * max diag``, so what it leaves out stays under that floor.
DEFAULT_GRAM_CUTOFF = 4.0 * float(np.finfo(np.float64).eps)

#: Bytes per piece of a data pass: the row panels of a Gramian node (column
#: groups of a wide one) and of the mean-error pass.  A tall node spreads
#: its panels while they are taller than wide, below sqrt(BATCH_BYTES / 8),
#: about 724, columns; with 2 MiB a 679-column star root ran serially, and slower.
BATCH_BYTES = 2**22


def _read_only(a):
    # a view in the caller's memory order; the caller's array stays writeable
    a = np.asarray(a, dtype=np.float64).view()
    a.setflags(write=False)
    return a


def _valid_sigmas(sigmas) -> np.ndarray:
    """The one check of a spectrum: finite, nonnegative, non-increasing."""
    s = np.asarray(sigmas, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(np.diff(s) > 0.0):
        raise ValueError("sigmas must be finite, nonnegative and non-increasing")
    return s


def _valid_epsilon(epsilon) -> float:
    """The one check of a truncation tolerance: finite and nonnegative."""
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"tolerances must be finite and nonnegative, got {epsilon}")
    return float(epsilon)


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
    """A d x m column block of snapshots living in one space.  ``values`` is
    a read-only view of the caller's array in its memory order, so the array
    must not change while the block is in use; only `_blas_ready` copies."""

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
        if not _all_finite(v):
            raise ValueError("snapshot block contains non-finite entries")
        object.__setattr__(self, "values", _read_only(v))

    def _part(self, values: np.ndarray, space: InnerProductSpace | None = None) -> "SnapshotBlock":
        """A block over a slice or copy of these values, not scanned again;
        ``space`` replaces this block's space for a slice of its rows."""
        return _unchecked(space or self.space, _read_only(values))

    @staticmethod
    def _stack(space: InnerProductSpace, parts) -> "SnapshotBlock":
        """The block [A_1 R_1 | A_2 R_2 | ...] of already-checked parts
        (A_i, R_i), R_i None, a column scale or a coefficient matrix; see
        `_ColumnStack`."""
        return _unchecked(space, _ColumnStack(parts))

    @property
    def count(self) -> int:
        return self.values.shape[1]


#: Bytes per chunk of the finiteness check, small enough to stay in cache
#: between its two reductions.
_CHECK_BYTES = 2**20


def _all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the 2-d v is finite.  min and max propagate NaN
    and expose infinities without a temporary the size of v; they run chunk
    by chunk of about `_CHECK_BYTES` along the slow axis, so the second one
    reads the chunk from cache, not from memory or the file behind a map."""
    if not v.size:
        return True
    slow = 0 if abs(v.strides[0]) >= abs(v.strides[1]) else 1
    step = max(1, _CHECK_BYTES // (8 * v.shape[1 - slow]))
    for a in range(0, v.shape[slow], step):
        chunk = v[a : a + step] if slow == 0 else v[:, a : a + step]
        if not (np.isfinite(chunk.min()) and np.isfinite(chunk.max())):
            return False
    return True


def _unchecked(space, values) -> SnapshotBlock:
    block = object.__new__(SnapshotBlock)
    object.__setattr__(block, "space", space)
    object.__setattr__(block, "values", values)
    return block


class _ColumnStack:
    """The d x n values [A_1 R_1 | A_2 R_2 | ...] of a stacked block, where
    R_i is None (A_i as it is), a column scale (A_i diag(R_i)) or a
    coefficient matrix (the product A_i @ R_i).  They are never held whole: a
    slice of rows, or of rows and a column range, writes only those (C
    order), and ``np.asarray`` writes them all for the routes that need the
    whole."""

    def __init__(self, parts):
        self.parts = [(a, r, a.shape[1] if r is None or r.ndim == 1 else r.shape[1]) for a, r in parts]
        self.shape = (self.parts[0][0].shape[0], sum(k for _, _, k in self.parts))
        self.nbytes = 8 * self.shape[0] * self.shape[1]

    def __getitem__(self, index) -> np.ndarray:
        rows, cols = index if isinstance(index, tuple) else (index, slice(None))
        start, stop, _ = rows.indices(self.shape[0])
        a, b, _ = cols.indices(self.shape[1])
        out = np.empty((stop - start, b - a))
        at = 0
        for part, r, k in self.parts:
            lo, hi = max(a - at, 0), min(b - at, k)
            if lo < hi:
                dst = out[:, at + lo - a : at + hi - a]
                if r is None:
                    dst[...] = part[rows, lo:hi]
                elif r.ndim == 1:
                    np.multiply(part[rows, lo:hi], r[lo:hi], out=dst)
                else:
                    np.matmul(_blas_ready(part[rows]), r[:, lo:hi], out=dst)
            at += k
        return out

    def __array__(self, dtype=None, copy=None):
        return self[:]

    def times(self, rows: slice, coef: np.ndarray, out: np.ndarray):
        """Add self[rows] @ coef to out without writing those rows: each
        part's rows times its rows of coef, with the part's R folded in."""
        at = 0
        for a, r, k in self.parts:
            c = coef[at : at + k]
            at += k
            if r is not None:
                c = r[:, None] * c if r.ndim == 1 else r @ c
            out += _blas_ready(a[rows]) @ c


@dataclass(frozen=True, eq=False)
class ModeSet:
    """POD output: left singular vectors with their singular values.

    ``orthonormal=False`` marks the epsilon = 0 passthrough convention: the
    columns are raw snapshots, all sigmas are exactly one and nothing was
    decomposed.  ``tail_energy`` is the energy discarded by truncation, as
    certified by the route (`_gram_tail`), ``right`` optionally carries the
    matching right singular vectors (m x N, orthonormal columns in the
    Euclidean sense), and ``input_energy`` is the block's energy ||S||^2_W
    that the POD measured, 0 when nothing was decomposed.  Its arrays are
    read-only views of the caller's, as in `SnapshotBlock`.
    """

    space: InnerProductSpace
    sigmas: np.ndarray
    modes: np.ndarray
    orthonormal: bool = True
    tail_energy: float = 0.0
    right: np.ndarray | None = field(default=None, repr=False)
    input_energy: float = 0.0

    def __post_init__(self):
        s = _valid_sigmas(self.sigmas)
        m = np.asarray(self.modes, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != self.space.dimension or m.shape[1] != s.size:
            raise ValueError(f"mode shape {m.shape} inconsistent with {s.size} sigmas in R^{self.space.dimension}")
        if not self.orthonormal and s.size and not np.all(s == 1.0):
            raise ValueError("passthrough mode sets must carry unit sigmas")
        object.__setattr__(self, "sigmas", _read_only(s))
        object.__setattr__(self, "modes", _read_only(m))
        if self.right is not None:
            object.__setattr__(self, "right", _read_only(self.right))

    @property
    def count(self) -> int:
        return self.sigmas.size

    def scaled(self) -> np.ndarray:
        """Columns sigma_n * phi_n, the snapshots fed to the parent node."""
        return self.modes * self.sigmas[None, :]


class _NodeOutput(NamedTuple):
    """What a node below the root hands its parent: its scaled modes
    sigma_n phi_n are the columns of A R, the part (``columns``, ``coef``) of
    `SnapshotBlock._stack`.  ``coef`` is None for raw columns (unit sigmas),
    the sigmas for orthonormal modes, or the k right vectors psi (m x k,
    orthonormal) of a leaf whose ``columns`` are its own block values, a view
    of the caller's array.  ``sigmas``, ``tail_energy`` and ``input_energy``
    are as in `ModeSet`."""

    columns: np.ndarray
    coef: np.ndarray | None
    sigmas: np.ndarray
    tail_energy: float
    input_energy: float = 0.0

    @property
    def count(self) -> int:
        return self.sigmas.size


def _scaled(out: ModeSet) -> _NodeOutput:
    """A `ModeSet` as the record a parent stacks: R the sigmas, None for raw columns."""
    return _NodeOutput(out.modes, out.sigmas if out.orthonormal else None, out.sigmas, out.tail_energy,
                       out.input_energy)


@dataclass(frozen=True)
class PodBackend:
    """How the small dense decompositions are carried out.

    kind "gram" eigendecomposes the smaller squared matrix of a d x m block:
    the m x m Gramian S^T W S when m <= d, otherwise the d x d correlation
    matrix A A^T with A = W^(1/2) S.  "svd" is a direct SVD of the weighted
    snapshot matrix, kept as the cross-check.  On the gram kind, eigenvalues
    below ``DEFAULT_GRAM_CUTOFF * lam_max * m`` are treated as numerical
    zeros and dropped before any truncation decision.  On the svd kind the
    factor applies to the singular values themselves: sigma below
    ``DEFAULT_GRAM_CUTOFF * sigma_max * m`` is dropped.  That drops far
    less energy than the Gramian floor, so the svd kind keeps the tail bound
    at tolerances too small for the gram kind to resolve; a gram truncation
    that cannot certify its tail is redone on it (`_gram_tail`).
    """

    kind: str = "gram"

    def __post_init__(self):
        if self.kind not in ("gram", "svd"):
            raise ValueError(f"unknown backend kind {self.kind!r}, expected 'gram' or 'svd'")


def truncation_rank(sigmas: np.ndarray, epsilon: float) -> int:
    """Smallest N whose discarded tail satisfies sum_{n>N} sigma_n^2 <= epsilon^2.

    epsilon = 0 keeps every sigma that carries energy; trailing exact zeros
    are never counted.  Invalid sigmas or epsilon raise ValueError.
    """
    s = _valid_sigmas(sigmas)
    _valid_epsilon(epsilon)
    # tails[k] = sum of squares from index k on, accumulated small-to-large;
    # the appended zero guarantees a hit for every budget
    tails = np.zeros(s.size + 1)
    tails[:-1] = np.cumsum((s * s)[::-1])[::-1]
    return int(np.argmax(tails <= epsilon * epsilon))


def gramian(block: SnapshotBlock) -> np.ndarray:
    """The m x m matrix of pairwise snapshot inner products, exactly symmetric.
    Unweighted, it is S^T S of one operand BLAS can read, which NumPy hands to
    syrk: one triangle is computed and mirrored.  A weighted S^T (W S) is a
    general product, explicitly symmetrized.  Entries too large to square
    give a non-finite Gramian without a warning; the caller refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if block.space.weights is None:
            v = _blas_ready(block.values)
            return v.T @ v
        g = block.space.gram(block.values, block.values)
        g = g + g.T
    g *= 0.5
    return g


def _fix_signs(modes: np.ndarray, right: np.ndarray | None, owned: bool = False):
    """Deterministic sign convention: largest-magnitude entry of each mode
    positive, the first one where +a and -a are both largest.  With `owned`,
    an array that owns its memory (one `pod` made) is scaled in place; any
    other comes back as a scaled C-ordered copy."""
    if modes.shape[1] == 0:
        return modes, right
    top, low = modes.max(axis=0), -modes.min(axis=0)
    signs = np.where(top < low, -1.0, 1.0)
    for j in np.flatnonzero(top == low):
        col = modes[:, j]
        signs[j] = -1.0 if col[np.argmax(np.abs(col))] < 0.0 else 1.0

    def scale(a):
        return np.multiply(a, signs, out=a) if owned and a.flags.owndata else np.multiply(a, signs, order="C")

    return scale(modes), None if right is None else scale(right)


def _mended(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The columns of a, whose Gramian is g, orthonormal again.  One Cholesky
    step a L^-T, g = L L^T, restores orthonormality to rounding and keeps each
    column's orientation (L has a positive diagonal); it fails when the
    columns lost rank.  Columns within 1e-12 of orthonormal are kept as they are."""
    n = a.shape[1]
    if np.max(np.abs(g - np.eye(n)), initial=0.0) > 1e-12:
        a = a @ scipy.linalg.solve_triangular(np.linalg.cholesky(g), np.eye(n), lower=True).T
    return a


def _finish_modes(modes, right, space, drifts=True, owned=False):
    # Only the method of snapshots' modes S psi / sigma drift from
    # orthonormal, by about u * sigma_1^2 / sigma_r^2 (up to 2.4e-5 on a
    # Burgers chain); eigenvectors and singular vectors are orthonormal as
    # they come (`_range_eigh` mends its reduced ones), so their Gramian is
    # never formed.
    if drifts and modes.shape[1]:
        modes = _mended(modes, space.gram(modes, modes))
    return _fix_signs(modes, right, owned)


def _above_floor(values: np.ndarray, factor: float) -> np.ndarray:
    """The descending values at or above factor * values[0]; none if values[0] <= 0."""
    if not values.size or values[0] <= 0.0:
        return values[:0]
    return values[values >= factor * values[0]]


def _truncation(lam, epsilon, total, m):
    """The kept sigmas and the discarded tail energy of a block of m columns
    whose squared singular values above the noise cutoff are lam, descending,
    and whose energy measured from its entries is total."""
    sig = np.sqrt(lam)
    rank = truncation_rank(sig, epsilon)
    # lam sums to the block's energy only up to the solver's rounding, so a
    # budget just below that energy can pass the sum: keep no mode only when
    # the measured energy, with room for its own rounding, fits the budget
    if rank == 0 and total * (1.0 + DEFAULT_GRAM_CUTOFF * m) > epsilon * epsilon:
        rank = 1
    return sig[:rank], float(np.sum(lam[rank:]))


def _gram_tail(sig, epsilon, total, m):
    """The tail a "gram" truncation of m columns certifies: the measured
    energy total less the kept sigma^2, clipped at 0.  None when the route
    cannot certify its budget, so the node is redone on "svd": when that tail
    exceeds epsilon^2, or the route's own floor DEFAULT_GRAM_CUTOFF * m *
    total does, below which eigenvalues it dropped may sum past the budget."""
    tail = total - float(np.sum(sig * sig))
    if max(tail, DEFAULT_GRAM_CUTOFF * m * total) > epsilon * epsilon:
        return None
    return max(tail, 0.0)


def _descending_eigh(g: np.ndarray, factor: float):
    """Eigenvalues of the C-ordered symmetric g, largest first, cut at the
    noise floor ``factor * lam_max``, and ``vectors(n)``, the first n
    eigenvectors.  g.T is g in Fortran order, so divide and conquer writes
    the eigenvectors over it."""
    lam, vec = scipy.linalg.eigh(g.T, driver="evd", overwrite_a=True, check_finite=False)
    vec = vec[:, ::-1]
    return _above_floor(lam[::-1], factor), lambda n: vec[:, :n]


def _range_eigh(g: np.ndarray, factor: float):
    """`_descending_eigh` of the C-ordered m x m Gramian g, solved on its
    numerical range.

    LAPACK's pivoted Cholesky P^T g P = U^T U stops at the first pivot at
    most tol = DEFAULT_GRAM_CUTOFF * max diag g.  Its remainder is positive
    semidefinite with norm at most (m - q) * tol, below the floor, so when U
    has q < m rows the q x q matrix U U^T = V Lambda V^T carries every
    eigenvalue above it, with psi = P U^T V Lambda^(-1/2).  Those psi drift by
    about u * lambda_1 / lambda_r, so each set asked for is mended.  The
    factor is written over the lower triangle of g (the upper one of g.T),
    and `_descending_eigh` reads only the upper one, so a full-rank g is
    solved whole once its diagonal is put back, exactly as without the factor.
    """
    m = g.shape[0]
    diag = np.diag(g).copy()
    u, piv, q, _ = scipy.linalg.lapack.dpstrf(g.T, tol=DEFAULT_GRAM_CUTOFF * diag.max(), lower=0,
                                              overwrite_a=1)
    if q == m:
        np.fill_diagonal(g, diag)
        return _descending_eigh(g, factor)
    u = np.triu(u[:q])
    lam, small = _descending_eigh(u @ u.T, factor)

    def vectors(n):
        psi = np.empty((m, n))
        psi[piv - 1] = u.T @ (small(n) / np.sqrt(lam[:n]))
        return _mended(psi, psi.T @ psi)

    return lam, vectors


def _row_panels(d: int, m: int, least: int = 1) -> list[tuple[int, int]]:
    """Row ranges a:b splitting a d x m block into about d*m*8 / BATCH_BYTES
    equal panels, at least `least` of them: a function of the shape only."""
    count = min(d, max(least, -(-8 * d * m // BATCH_BYTES)))
    edges = [d * p // count for p in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _panel(block: SnapshotBlock, a: int, b: int, space: InnerProductSpace | None = None) -> SnapshotBlock:
    """Rows a:b of a block, over ``space`` (theirs), in memory BLAS can take."""
    return block._part(_blas_ready(block.values[a:b]), space)


def _blas_ready(values: np.ndarray) -> np.ndarray:
    """The one copy of snapshot data.  NumPy hands BLAS only aligned operands
    with a unit stride, so any other rows (an .hpd payload sits at an odd
    offset behind its header) are copied, in their own memory order."""
    if not values.flags.aligned or 8 not in values.strides:
        values = np.array(values, order="K")
    return values


def _pooled_spread(pool=None, helpers: int = 0):
    """A `pod` spread run by the calling thread with up to `helpers` panels on `pool`.

    Before panel p's turn, the panels up to p + `helpers` are submitted to
    the pool as futures, so at most `helpers` results ever wait for their
    turn.  The calling thread runs p itself when its future has not started,
    which it cancels; while another thread runs p, the calling thread
    cancels and runs any submitted panel that no thread has started.  It
    alone hands the results to `take`, in panel order, dropping each once
    handed.  A pool thread runs one panel and is free again, and the calling
    thread waits only for a panel that another thread is running, so no
    thread ever waits on a task that no free thread can start.  On a
    failure, the panels not started are cancelled and the exception of the
    first failing panel is raised once the started ones have finished.
    Without helpers the panels run in order on the calling thread.
    """

    def spread(fn, count, take=None):
        ahead = []  # futures of the panels after the turn's, in panel order
        try:
            for p in range(count):
                due = ahead.pop(0) if ahead else None
                while len(ahead) < min(helpers, count - 1 - p):
                    ahead.append(pool.submit(fn, p + 1 + len(ahead)))
                if due is None or due.cancel():
                    out = fn(p)
                else:
                    for i, later in enumerate(ahead):
                        if due.done():
                            break
                        if later.cancel():
                            ahead[i] = _ran(fn, p + 1 + i)
                    out = due.result()
                if take is not None:
                    take(out)
                del out
        finally:
            for later in ahead:
                later.cancel()
            wait(ahead)

    return spread


def _ran(fn, p) -> Future:
    """A finished future of fn(p), run on the calling thread."""
    done = Future()
    try:
        done.set_result(fn(p))
    except Exception as exc:
        done.set_exception(exc)
    return done


def pod(block: SnapshotBlock, epsilon: float, backend: PodBackend | None = None,
        want_right: bool = False, spread=None) -> ModeSet:
    """POD of a snapshot block, truncated at squared-error budget epsilon^2.

    Parameters
    ----------
    block
        Snapshots as columns; may have zero columns.
    epsilon
        Finite, nonnegative truncation tolerance (`_valid_epsilon`).  The
        discarded tail satisfies sum_{n>N} sigma_n^2 <= epsilon^2.  Zero
        requests the passthrough convention: the raw snapshots come back
        with unit sigmas, right vectors I and ``orthonormal=False``.
    backend
        Eigendecomposition of the smaller squared matrix ("gram", default:
        the Gramian for m <= d columns, the correlation matrix beyond, each
        formed over row panels, of the block or of its transpose) or direct
        SVD ("svd").
    want_right
        Also return the right singular vectors (needed to track snapshot
        coefficients through a hierarchy).
    spread
        ``spread(fn, count, take)`` runs ``fn(0), ..., fn(count - 1)``, the
        row panels of the Gramian route, and hands each result to ``take``
        (if given) on the calling thread, in panel order, as soon as it and
        those before it are done; see `_pooled_spread`.  The default runs
        them in order on the calling thread; the executor's spread submits
        the panels of a node, when taller than wide, to its pool as futures,
        at most one per other worker ahead of the one due next.  The result
        does not depend on it.

    Returns
    -------
    ModeSet
        Modes orthonormal in the block's inner product, sigmas descending.
        A "gram" truncation whose tail `_gram_tail` cannot certify is redone
        once on "svd", so every reported tail bounds what was discarded.
    """
    _valid_epsilon(epsilon)
    backend = backend or PodBackend()
    space, m = block.space, block.count
    d = space.dimension
    if epsilon == 0.0:
        return ModeSet(space, np.ones(m), block.values, orthonormal=False,
                       right=np.eye(m) if want_right else None)
    lam, total = np.zeros(0), 0.0
    if m and backend.kind == "svd":
        a = space.weigh(_panel(block, 0, d).values)
        total = float(np.vdot(a, a))
        if not np.isfinite(total):
            # the singular values would square to infinity in the truncation
            raise np.linalg.LinAlgError("snapshot energy overflows: entries too large to square")
        u, s, vt = scipy.linalg.svd(a, full_matrices=False)
        s = _above_floor(s, DEFAULT_GRAM_CUTOFF * m)
        lam = s * s
    elif m:
        lam, vectors, total, product = _gram_step(block, epsilon, spread)
    sig, tail = _truncation(lam, epsilon, total, m)
    if backend.kind == "gram":
        tail = _gram_tail(sig, epsilon, total, m)
        if tail is None:
            return pod(block, epsilon, PodBackend("svd"), want_right, spread)
    if not lam.size:
        # right keeps one row per input column so stacked factors stay aligned
        return ModeSet(space, lam, np.zeros((d, 0)), tail_energy=tail,
                       right=np.zeros((m, 0)) if want_right else None, input_energy=total)
    k = sig.size
    if backend.kind == "svd":
        modes, right = space.unweigh(u[:, :k]), vt[:k].T
    else:
        psi = vectors(k)
        coef = psi / sig[None, :]
        if m <= d:
            modes, right = product(coef), psi
        else:
            modes, right = space.unweigh(psi), product(coef) if want_right else None
    modes, right = _finish_modes(modes, right if want_right else None, space,
                                 drifts=backend.kind == "gram" and m <= d, owned=True)
    return ModeSet(space, sig, modes, tail_energy=tail, right=right, input_energy=total)


def _gram_step(block: SnapshotBlock, epsilon: float, spread, pass_full: bool = False):
    """The "gram" route of `pod` on a block of m > 0 columns, stopped before
    assembly: (lam, vectors, total, product), the eigenvalues above the noise
    floor and ``vectors(n)`` of the solve, the energy measured from the
    Gramian, and ``product(coef)``, X @ coef assembled over the row panels of
    X.  With `pass_full`, on a tall block, lam is None, and nothing is
    solved, when every eigenvalue of G exceeds epsilon^2 (see `_leaf_step`)."""
    space = block.space
    m, d = block.count, space.dimension
    wide = m > d
    # method of snapshots over fixed row panels of X: G = sum_p X_p^T W_p X_p
    # added in panel order as the panels finish, then X_p psi / sigma one
    # panel at a time.  A wide block squares its transpose X = (W^(1/2) S)^T,
    # a Euclidean m x d block: the Gramian of X is the correlation matrix,
    # its eigenvectors unweighed are the modes, and X psi / sigma are the
    # right vectors.  Its panels, column groups of S of at most d columns,
    # are formed when they run, so X is never held whole.
    rows, cols = (m, d) if wide else (d, m)
    panels = _row_panels(rows, cols, -(-m // d) if wide else 1)
    # each panel's space (a slice of the weights) is built once and serves
    # both passes; a single panel is also taken once
    w = None if wide else space.weights
    spaces = [InnerProductSpace(b - a, None if w is None else w[a:b]) for a, b in panels]

    def form(p):
        a, b = panels[p]
        if not wide:
            return _panel(block, a, b, spaces[p])
        # a view of the columns if BLAS can read them; a stack writes only
        # these, and a copy is weighed in place
        c = _blas_ready(block.values[:, a:b])
        if space.weights is not None:
            c = np.multiply(c, space._sqrt_w[:, None], out=c if c.flags.owndata else None)
        return _unchecked(spaces[p], c.T)

    whole = form(0) if len(panels) == 1 else None

    def panel(p):
        return whole if whole is not None else form(p)

    # a panel no taller than it is wide feeds a partial Gramian no smaller
    # than itself, so such a node runs its panels on its own thread: each
    # panel finished ahead of its turn elsewhere would hold one until then
    if panels[0][1] - panels[0][0] <= cols or spread is None:
        spread = _pooled_spread()
    g = None

    def add(part):
        nonlocal g
        if g is None:
            g = part
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # the trace refuses an overflow
                g += part

    spread(lambda p: gramian(panel(p)), len(panels), add)
    total = float(np.trace(g))
    if not np.isfinite(total):
        # no entry of G exceeds its diagonal, so the trace shows any overflow
        raise np.linalg.LinAlgError("snapshot Gramian overflows: entries too large to square")
    if pass_full:
        try:  # succeeds only if every eigenvalue of G exceeds epsilon^2
            np.linalg.cholesky(g - epsilon * epsilon * np.eye(m))
        except np.linalg.LinAlgError:
            pass
        else:
            return None, None, total, None
    lam, vectors = (_descending_eigh if wide else _range_eigh)(g, DEFAULT_GRAM_CUTOFF * m)
    del g

    # a tall stack of several panels is not written again: each part's rows
    # are multiplied in place of the stacked rows
    stack = block.values if not wide and isinstance(block.values, _ColumnStack) and whole is None else None

    def product(coef):
        out = np.zeros((rows, coef.shape[1]))

        def fill(p):
            a, b = panels[p]
            if stack is None:
                np.matmul(panel(p).values, coef, out=out[a:b])
            else:
                stack.times(slice(a, b), coef, out[a:b])

        spread(fill, len(panels))
        return out

    return lam, vectors, total, product


def _leaf_step(block: SnapshotBlock, epsilon: float, backend: PodBackend | None,
               want_right: bool = False, spread=None):
    """The `_NodeOutput` of a leaf whose output only its parent reads, and its
    right vectors if wanted, None for I.  On the tall "gram" route, when a
    Cholesky of G - epsilon^2 I succeeds, truncation would keep every column,
    so the leaf takes `pod`'s epsilon = 0 passthrough, its raw columns with
    unit sigmas, but reports the energy it measured.  A tall "gram" block
    whose truncation `_gram_tail` certifies stops after its eigensolve: its
    own columns S with its k right vectors psi, whose product S psi is the
    scaled modes sigma phi the parent stacks, so no d x k modes are formed,
    mended or sign-fixed; one it cannot certify is redone on "svd".  Any
    other leaf is `pod`'s."""
    m = block.count
    if epsilon > 0.0 and (backend or PodBackend()).kind == "gram" and 0 < m <= block.space.dimension:
        lam, vectors, total, _ = _gram_step(block, epsilon, spread, pass_full=True)
        if lam is None:  # truncation would keep every column
            return _scaled(pod(block, 0.0))._replace(input_energy=total), None
        sig, _ = _truncation(lam, epsilon, total, m)
        tail = _gram_tail(sig, epsilon, total, m)
        if tail is not None:
            # a contiguous copy: BLAS takes no reversed eigenvector columns
            psi = _read_only(np.ascontiguousarray(vectors(sig.size)))
            return _NodeOutput(block.values, psi, sig, tail, total), psi if want_right else None
        backend = PodBackend("svd")
    out = pod(block, epsilon, backend, want_right and epsilon > 0.0, spread)
    return _scaled(out), out.right


def block_gramian_pod(prior: ModeSet, fresh: SnapshotBlock, epsilon: float,
                      backend: PodBackend | None = None) -> ModeSet:
    """POD of [sigma_1 phi_1, ..., sigma_N phi_N | fresh].

    The merge step of single-pass incremental compression: the scaled prior
    modes and the fresh columns are stacked and decomposed by `pod` with the
    given backend, the same step a chain run's merge node performs.  The prior
    stacks as a node's record (`_scaled`), so a passthrough prior (raw
    snapshots, unit sigmas) stacks unscaled.  A tall stack is written a row
    panel at a time, never whole.
    """
    if not prior.space.same_as(fresh.space):
        raise ValueError("prior modes and fresh block live in different spaces")
    block = SnapshotBlock._stack(prior.space, [_scaled(prior)[:2], (fresh.values, None)])
    return pod(block, epsilon, backend)
