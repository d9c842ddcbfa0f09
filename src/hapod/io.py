"""On-disk formats.

Binary matrix container: magic "HPD1", version u16, rows u64, cols u64,
weight-flag u8, all little-endian, then (if flagged) the `rows` inner-product
weights and finally the payload, column-major float64.  Raw IEEE bytes round
trip exactly, signed zeros included.

Text sidecars use shortest round-trip float representation (repr), so reading
them back reproduces the doubles bit for bit.
"""

from __future__ import annotations

import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .pod import InnerProductSpace, SnapshotBlock

__all__ = [
    "MatrixFormatError",
    "write_matrix",
    "read_matrix",
    "read_matrix_header",
    "iter_columns",
    "load_snapshots",
    "write_floats",
    "read_floats",
]

MAGIC = b"HPD1"
VERSION = 1
_HEADER = struct.Struct("<4sHQQB")
#: Bytes per column chunk that `write_matrix` copies into file order.
_WRITE_BYTES = 2**20


class MatrixFormatError(ValueError):
    """File does not parse as the binary matrix container."""


def write_matrix(path, values: np.ndarray, weights: np.ndarray | None = None) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {values.shape}")
    rows, cols = values.shape
    # checked before the file is opened, so a refused call leaves it as it was
    w = None if weights is None else np.asarray(weights, dtype="<f8")
    if w is not None and w.shape != (rows,):
        raise ValueError(f"weights shape {w.shape} does not match {rows} rows")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, rows, cols, int(w is not None)))
        if w is not None:
            fh.write(w.tobytes())
        # a column chunk at a time: the whole payload is never copied
        step = max(1, _WRITE_BYTES // (8 * max(rows, 1)))
        for a in range(0, cols, step):
            fh.write(values[:, a : a + step].astype("<f8", copy=False).tobytes(order="F"))


def _parse_header(raw: bytes, path) -> tuple[int, int, bool]:
    if len(raw) < _HEADER.size:
        raise MatrixFormatError(f"{path}: truncated header")
    magic, version, rows, cols, flag = _HEADER.unpack(raw[: _HEADER.size])
    if magic != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {magic!r}, not a matrix container")
    if version != VERSION:
        raise MatrixFormatError(f"{path}: unsupported container version {version}")
    if flag not in (0, 1):
        raise MatrixFormatError(f"{path}: bad weight flag {flag}")
    return int(rows), int(cols), bool(flag)


def read_matrix_header(path) -> tuple[int, int, bool]:
    """(rows, cols, weighted) without touching the payload."""
    with open(path, "rb") as fh:
        return _parse_header(fh.read(_HEADER.size), path)


def _map_payload(path) -> tuple[np.ndarray, np.ndarray | None]:
    """The (rows, cols) payload mapped read-only from the file, and the
    weights.  The file size is checked before anything is mapped."""
    with open(path, "rb") as fh:
        rows, cols, weighted = _parse_header(fh.read(_HEADER.size), path)
        weights = None
        if weighted:
            wbuf = fh.read(8 * rows)
            if len(wbuf) != 8 * rows:
                raise MatrixFormatError(f"{path}: truncated weight vector")
            weights = np.frombuffer(wbuf, dtype="<f8").copy()
        offset = fh.tell()
        held = os.fstat(fh.fileno()).st_size - offset
        expected = 8 * rows * cols
        if held != expected:
            raise MatrixFormatError(
                f"{path}: payload holds {held} bytes, expected {expected} for {rows}x{cols}"
            )
        if expected == 0:  # an empty map is an error, an empty array is not
            return np.zeros((rows, cols)), weights
        return np.memmap(fh, dtype="<f8", mode="r", offset=offset, shape=(rows, cols), order="F"), weights


def read_matrix(path) -> tuple[np.ndarray, np.ndarray | None]:
    """The whole matrix as a C-ordered array in memory, and the weights."""
    values, weights = _map_payload(path)
    return np.array(values, order="C"), weights


def iter_columns(path, batch: int = 1):
    """Stream the payload column by column (or in small column batches)
    without loading the matrix; yields read-only float64 views of shape
    (rows, <=batch) into the mapped file."""
    if batch < 1:
        raise ValueError("batch must be positive")
    values, _ = _map_payload(path)
    for a in range(0, values.shape[1], batch):
        yield values[:, a : a + batch]


def load_snapshots(path) -> SnapshotBlock:
    """Load a snapshot matrix as a SnapshotBlock.  `.csv` files are parsed as
    comma-separated text with one column per snapshot (interoperability path);
    anything else must be the binary container, which is canonical and may
    carry inner-product weights.  A binary payload is not read into memory:
    the block's values are a read-only map of the file, so the file must not
    change while the block is in use.  A matrix without rows is refused."""
    p = Path(path)
    weights = None
    if p.suffix.lower() == ".csv":
        with warnings.catch_warnings():  # an empty file is refused below, by name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(p, delimiter=",", ndmin=2, dtype=np.float64)
    else:
        values, weights = _map_payload(p)
    if values.shape[0] == 0:
        raise ValueError(f"{path}: no rows, so no snapshot space")
    return SnapshotBlock(InnerProductSpace(values.shape[0], weights), values)


def write_floats(path, values) -> None:
    """One float per line, shortest round-trip text form."""
    with open(path, "w") as fh:
        for v in np.asarray(values, dtype=np.float64).reshape(-1):
            fh.write(repr(float(v)))
            fh.write("\n")


def read_floats(path) -> np.ndarray:
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{ln}: not a float: {line!r}") from None
    return np.asarray(out, dtype=np.float64)
