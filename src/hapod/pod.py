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
places.  X is split into fixed row panels of about `BATCH_BYTES` each, so a
wide block is split into column groups: the partial Gramians X_p^T W_p X_p
are added in panel order, one eigendecomposition follows, and the products
X_p psi / sigma are assembled a panel at a time.  The panels depend on the
block's shape only, so the result does not depend on which threads run
them: other threads may run panels, but the calling thread alone adds their
partial Gramians, in panel order (`_pooled_spread`).  A block of one panel
takes exactly the unpanelled route.  A block may be a stack of column-scaled
parts (`SnapshotBlock._stack`), whose rows are written only when a panel of
a tall block asks for them, so the stacked input of a tall node is never
held whole.  Blocks and mode sets hold a read-only view of the caller's array
in its memory order, so the array must not change while they are in use;
only `_blas_ready` copies, rows BLAS cannot read.

The eigendecomposition is LAPACK's divide and conquer, written over the
Gramian, which must be finite.  Eigenvectors and singular vectors come out
orthonormal; only the modes X psi / sigma of a tall block drift, by about
u * sigma_1^2 / sigma_r^2, and one Cholesky step of their Gramian restores them.

Everything works in R^d equipped with an optional strictly positive diagonal
weight vector; without weights the inner product is the Euclidean one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

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

#: Gramian eigenvalues below ``factor * lam_max * m`` count as numerical zeros.
DEFAULT_GRAM_CUTOFF = 4.0 * float(np.finfo(np.float64).eps)

#: Bytes per piece of a data pass: the row panels of a Gramian node (column
#: groups of a wide one) and the column batches of the mean-error pass.
BATCH_BYTES = 2**23


def _read_only(a):
    # a view in the caller's memory order; the caller's array stays writeable
    a = np.asarray(a, dtype=np.float64).view()
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
        # min and max propagate NaN and expose infinities without a
        # temporary the size of the block
        if v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValueError("snapshot block contains non-finite entries")
        object.__setattr__(self, "values", _read_only(v))

    def _part(self, values: np.ndarray, space: InnerProductSpace | None = None) -> "SnapshotBlock":
        """A block over a slice or copy of these values, not scanned again;
        ``space`` replaces this block's space for a slice of its rows."""
        return _unchecked(space or self.space, _read_only(values))

    @staticmethod
    def _stack(space: InnerProductSpace, parts) -> "SnapshotBlock":
        """The block [s_1 * A_1 | s_2 * A_2 | ...] of already-checked parts
        (A_i, s_i), s_i a column scale or None; see `_ColumnStack`."""
        return _unchecked(space, _ColumnStack(parts))

    @property
    def count(self) -> int:
        return self.values.shape[1]


def _unchecked(space, values) -> SnapshotBlock:
    block = object.__new__(SnapshotBlock)
    object.__setattr__(block, "space", space)
    object.__setattr__(block, "values", values)
    return block


class _ColumnStack:
    """The d x n values [s_1 * A_1 | s_2 * A_2 | ...] of a stacked block,
    never held whole: a row slice writes only its own rows (C order), and
    ``np.asarray`` writes them all for the routes that need the whole."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.shape = (self.parts[0][0].shape[0], sum(a.shape[1] for a, _ in self.parts))
        self.nbytes = 8 * self.shape[0] * self.shape[1]

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        out = np.empty((stop - start, self.shape[1]))
        at = 0
        for a, scale in self.parts:
            k = a.shape[1]
            if scale is None:
                out[:, at : at + k] = a[rows]
            else:
                np.multiply(a[rows], scale[None, :], out=out[:, at : at + k])
            at += k
        return out

    def __array__(self, dtype=None, copy=None):
        return self[:]

    def times(self, rows: slice, coef: np.ndarray, out: np.ndarray):
        """Add self[rows] @ coef to out without writing those rows: each
        part's rows times its rows of coef, with the part's scale folded in."""
        at = 0
        for a, scale in self.parts:
            c = coef[at : at + a.shape[1]]
            at += a.shape[1]
            out += _blas_ready(a[rows]) @ (c if scale is None else scale[:, None] * c)


@dataclass(frozen=True, eq=False)
class ModeSet:
    """POD output: left singular vectors with their singular values.

    ``orthonormal=False`` marks the epsilon = 0 passthrough convention: the
    columns are raw snapshots, all sigmas are exactly one and nothing was
    decomposed.  ``tail_energy`` is the energy discarded by truncation,
    ``right`` optionally carries the matching right singular vectors (m x N,
    orthonormal columns in the Euclidean sense).  Its arrays are read-only
    views of the caller's, as in `SnapshotBlock`.
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
            object.__setattr__(self, "right", _read_only(self.right))

    @property
    def count(self) -> int:
        return self.sigmas.size

    def scaled(self) -> np.ndarray:
        """Columns sigma_n * phi_n, the snapshots fed to the parent node."""
        return self.modes * self.sigmas[None, :]


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
    at tolerances too small for the gram kind to resolve.
    """

    kind: str = "gram"

    def __post_init__(self):
        if self.kind not in ("gram", "svd"):
            raise ValueError(f"unknown backend kind {self.kind!r}, expected 'gram' or 'svd'")


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


def _finish_modes(modes, right, space, drifts=True, owned=False):
    # Only the method of snapshots' modes S psi / sigma drift from
    # orthonormal, by about u * sigma_1^2 / sigma_r^2 (up to 2.4e-5 on a
    # Burgers chain); eigenvectors and singular vectors are orthonormal as
    # they come, so their Gramian is never formed.  One Cholesky step
    # Phi L^-T, g = L L^T, restores orthonormality to rounding and keeps each
    # column's orientation (L has a positive diagonal); it fails when the
    # modes lost rank.
    n = modes.shape[1]
    if drifts and n:
        g = space.gram(modes, modes)
        if np.max(np.abs(g - np.eye(n))) > 1e-12:
            modes = modes @ scipy.linalg.solve_triangular(np.linalg.cholesky(g), np.eye(n), lower=True).T
    return _fix_signs(modes, right, owned)


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


def _above_floor(values: np.ndarray, factor: float) -> np.ndarray:
    """The descending values at or above factor * values[0]; none if values[0] <= 0."""
    if not values.size or values[0] <= 0.0:
        return values[:0]
    return values[values >= factor * values[0]]


def _from_spectrum(lam, assemble, space, epsilon, m, want_right, total, drifts=False):
    """Shared truncation logic.  lam are the squared singular values that
    survived the noise cutoff, descending; total is the block's energy
    measured from its entries; assemble(rank, sig) must return the first rank
    modes as a d x rank array and their right vectors (m x rank, or None when
    not wanted), arrays `pod` may scale in place; drifts says that the modes
    need the orthonormality check of `_finish_modes`."""
    if not lam.size:
        return _empty_mode_set(space, want_right, input_count=m)
    sig = np.sqrt(lam)
    rank = truncation_rank(sig, epsilon)
    # lam sums to the block's energy only up to the solver's rounding, so a
    # budget just below that energy can pass the sum: keep no mode only when
    # the measured energy, with room for its own rounding, fits the budget
    if rank == 0 and total * (1.0 + DEFAULT_GRAM_CUTOFF * m) > epsilon * epsilon:
        rank = 1
    tail = float(np.sum(lam[rank:]))
    modes, right = assemble(rank, sig[:rank])
    modes, right = _finish_modes(modes, right, space, drifts, owned=True)
    return ModeSet(space, sig[:rank], modes, orthonormal=True, tail_energy=tail, right=right)


def _descending_eigh(g: np.ndarray):
    """Eigenpairs of the C-ordered symmetric g, largest first.  g.T is g in
    Fortran order, so divide and conquer writes the eigenvectors over it."""
    lam, vec = scipy.linalg.eigh(g.T, driver="evd", overwrite_a=True, check_finite=False)
    return lam[::-1], vec[:, ::-1]


def _row_panels(d: int, m: int) -> list[tuple[int, int]]:
    """Row ranges a:b splitting a d x m block into about d*m*8 / BATCH_BYTES
    equal panels: a function of the shape only."""
    count = min(d, max(1, -(-8 * d * m // BATCH_BYTES)))
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
    """A `pod` spread run by the calling thread and up to `helpers` tasks on `pool`.

    Helpers only claim panels in order, run them and park each result or
    exception.  The calling thread claims and runs panels too, and it alone
    hands the results to `take`, in panel order, dropping each once handed;
    it waits only for a panel another thread has claimed, which that thread
    is already running, so no thread ever waits on a task that no free
    thread can start.  A helper that starts after every panel is claimed
    returns at once.  On a failure nothing new is claimed, and the exception
    of the first failing panel is raised once every claimed panel has
    finished.  Without helpers the panels run in order on the calling thread.
    """

    def spread(fn, count, take=None):
        parked: dict[int, tuple] = {}  # finished panels not yet handed on: (result, exception)
        claimed = 0
        end = count  # panels from here on are not claimed
        lock = threading.Condition()

        def run_next(due=None) -> bool:
            """Claim and run the next panel, unless none is left or `due` is parked."""
            nonlocal claimed
            with lock:
                if claimed >= end or due in parked:
                    return False
                p = claimed
                claimed += 1
            try:
                out = fn(p), None
            except Exception as exc:
                out = None, exc
            with lock:
                parked[p] = out
                lock.notify_all()
            return True

        def work():
            while run_next():
                pass

        for _ in range(min(helpers, count - 1)):
            pool.submit(work)
        for due in range(count):
            while run_next(due):
                pass
            with lock:
                lock.wait_for(lambda: due in parked)
                out, exc = parked.pop(due)
            if exc is None and take is not None:
                try:
                    take(out)
                except Exception as failure:
                    exc = failure
            del out
            if exc is not None:
                with lock:
                    end = claimed
                    lock.wait_for(lambda: len(parked) == claimed - due - 1)
                    parked.clear()
                raise exc

    return spread


def pod(block: SnapshotBlock, epsilon: float, backend: PodBackend | None = None,
        want_right: bool = False, spread=None, pass_full: bool = False) -> ModeSet:
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
        Eigendecomposition of the smaller squared matrix ("gram", default:
        the Gramian for m <= d columns, the correlation matrix beyond, each
        formed over row panels, of the block or of its transpose) or direct
        SVD ("svd").
    want_right
        Also return the right singular vectors (needed to track snapshot
        coefficients through a hierarchy).
    spread
        ``spread(fn, count, take)`` runs ``fn(0), ..., fn(count - 1)``, the
        row panels of the Gramian route (column groups of a wide block), and
        hands each result to ``take`` (if given) on the calling thread, in
        panel order, as soon as it and those before it are done; see
        `_pooled_spread`.  The default runs
        them in order on the calling thread, the executor lets idle pool
        threads take some.  The result does not depend on it.
    pass_full
        On the "gram" route of a block with m <= d: when a Cholesky of
        G - epsilon^2 I succeeds, truncation would keep every column, so
        return the passthrough set of ``epsilon = 0`` undecomposed.

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
    space = block.space
    d = space.dimension
    factor = DEFAULT_GRAM_CUTOFF * m
    if backend.kind == "svd":
        a = space.weigh(_panel(block, 0, d).values)
        total = float(np.vdot(a, a))
        u, s, vt = scipy.linalg.svd(a, full_matrices=False)
        s = _above_floor(s, factor)

        def assemble(rank, sig):
            right = vt[:rank].T if want_right else None
            return space.unweigh(u[:, :rank]), right

        return _from_spectrum(s * s, assemble, space, epsilon, m, want_right, total)
    if m <= d:
        x = block
    else:
        # a wide block squares its transpose X = (W^(1/2) S)^T, a Euclidean
        # m x d block: the Gramian of X is the correlation matrix, its
        # eigenvectors unweighed are the modes, and X psi / sigma are the
        # right vectors
        x = block._part(space.weigh(_panel(block, 0, d).values).T, InnerProductSpace(m))
    # method of snapshots over fixed row panels of X: G = sum_p X_p^T W_p X_p
    # added in panel order as the panels finish, then X_p psi / sigma one
    # panel at a time
    spread = spread or _pooled_spread()
    rows, cols = x.values.shape
    panels = _row_panels(rows, cols)
    # each panel's space (a slice of the weights) is built once and serves
    # both passes; a single panel is also taken once
    w = x.space.weights
    spaces = [InnerProductSpace(b - a, None if w is None else w[a:b]) for a, b in panels]
    whole = _panel(x, 0, rows, spaces[0]) if len(panels) == 1 else None

    def panel(p):
        return whole if whole is not None else _panel(x, *panels[p], spaces[p])

    g = None

    def add(part):
        nonlocal g
        if g is None:
            g = part
        else:
            g += part

    spread(lambda p: gramian(panel(p)), len(panels), add)
    total = float(np.trace(g))
    if not np.isfinite(total):
        # no entry of G exceeds its diagonal, so the trace shows any overflow
        raise np.linalg.LinAlgError("snapshot Gramian overflows: entries too large to square")
    if pass_full and m <= d:
        try:  # succeeds only if every eigenvalue of G exceeds epsilon^2
            np.linalg.cholesky(g - epsilon * epsilon * np.eye(m))
        except np.linalg.LinAlgError:
            pass
        else:
            return _passthrough(block, want_right)
    lam, psi = _descending_eigh(g)
    del g

    # a stack of several panels is not written again: each part's rows are
    # multiplied in place of the stacked rows
    stack = x.values if isinstance(x.values, _ColumnStack) and whole is None else None

    def assemble(rank, sig):
        coef = psi[:, :rank] / sig[None, :]

        def product():
            out = np.zeros((rows, rank))

            def fill(p):
                a, b = panels[p]
                if stack is None:
                    np.matmul(panel(p).values, coef, out=out[a:b])
                else:
                    stack.times(slice(a, b), coef, out[a:b])

            spread(fill, len(panels))
            return out

        if m <= d:
            return product(), psi[:, :rank] if want_right else None
        return space.unweigh(psi[:, :rank]), product() if want_right else None

    return _from_spectrum(_above_floor(lam, factor), assemble, space, epsilon, m, want_right,
                          total, drifts=m <= d)


def block_gramian_pod(prior: ModeSet, fresh: SnapshotBlock, epsilon: float,
                      backend: PodBackend | None = None) -> ModeSet:
    """POD of [sigma_1 phi_1, ..., sigma_N phi_N | fresh].

    The merge step of single-pass incremental compression: the scaled prior
    modes and the fresh columns are stacked and decomposed by `pod` with the
    given backend, the same step a chain run's merge node performs.  A
    passthrough prior (raw snapshots, unit sigmas) stacks unscaled.  A tall
    stack is written a row panel at a time, never whole.
    """
    if not prior.space.same_as(fresh.space):
        raise ValueError("prior modes and fresh block live in different spaces")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    scale = prior.sigmas if prior.orthonormal else None
    block = SnapshotBlock._stack(prior.space, [(prior.modes, scale), (fresh.values, None)])
    return pod(block, epsilon, backend)
