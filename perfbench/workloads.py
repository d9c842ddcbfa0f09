"""The three workloads: seeded inputs, one operation each, and its result.

Each workload runs in three steps.  ``setup`` builds the inputs from the seed
and is timed as setup_s.  ``run`` is the operation, timed as time_to_basis_s.
``collect`` turns what the operation returned or wrote into an `Outcome` for
the gate, untimed.

hapod functions are called through their modules at call time
(``parallel.run_parallel``, not a name imported once), so the wrappers that
`tracing.instrumented` installs see every call.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io as textio
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .gate import flat_mode_count

datagen = importlib.import_module("hapod.datagen")
hierarchy = importlib.import_module("hapod.hierarchy")
hio = importlib.import_module("hapod.io")
parallel = importlib.import_module("hapod.parallel")
pod = importlib.import_module("hapod.pod")
tree = importlib.import_module("hapod.tree")
cli = importlib.import_module("hapod.cli")

OMEGA = 0.75
WORKERS = 2


class OperationFailed(RuntimeError):
    """The operation reported failure without raising (a nonzero CLI exit)."""


@dataclass(frozen=True, eq=False)
class Outcome:
    modes: np.ndarray
    sigmas: np.ndarray
    input_counts: tuple[int, ...]
    epsilons: np.ndarray
    tails: np.ndarray

    @property
    def mode_count(self) -> int:
        return int(self.sigmas.size)

    @property
    def max_node_input_cols(self) -> int:
        return max(self.input_counts)

    @property
    def budget_slack(self) -> float:
        """Share of the squared error budget no node spent on its truncation."""
        budget = float(np.sum(self.epsilons**2))
        return 1.0 - float(np.sum(self.tails)) / budget if budget > 0 else 0.0


def _from_result(result) -> Outcome:
    reports = result.reports
    return Outcome(
        modes=np.asarray(result.modes.modes),
        sigmas=np.asarray(result.modes.sigmas),
        input_counts=tuple(r.input_count for r in reports),
        epsilons=np.array([r.local_epsilon for r in reports]),
        tails=np.array([r.discarded_tail_energy for r in reports]),
    )


@dataclass(eq=False)
class Prepared:
    data: np.ndarray          # the d x m snapshots, in memory or memory-mapped
    target: float             # eps*: certified mean squared error is target**2
    state: dict


def _root_budget(prep: Prepared) -> float:
    return math.sqrt(prep.data.shape[1]) * OMEGA * prep.target


def _synthetic_flat_count(prep: Prepared) -> int:
    # synthetic_decay prescribes the singular values exactly: exp(-rate * n)
    d, m = prep.data.shape
    sigmas = np.exp(-prep.state["rate"] * np.arange(1, min(d, m) + 1, dtype=np.float64))
    return flat_mode_count(sigmas, _root_budget(prep))


class SyntheticBalanced:
    name = "synthetic-balanced"
    why = ("wide nodes (more columns than rows) make the dense Gramian eigensolve dominate; "
           "the only workload with parallel waves followed by a serial root")
    target = 1e-3
    sizes = {"full": (500, 8000, 0.02, 100), "tiny": (40, 400, 0.2, 20)}

    def setup(self, seed: int, size: str, workdir: Path) -> Prepared:
        d, m, rate, block = self.sizes[size]
        data = datagen.synthetic_decay(d, m, rate, seed)
        t = tree.build_balanced(math.ceil(m / block), depth=2)
        leaves = hierarchy.distribute_columns(t, data, block_size=block)
        tol = hierarchy.assign_tolerances(t, leaves, self.target, OMEGA)
        return Prepared(data.values, self.target, {"tree": t, "leaves": leaves, "tol": tol, "rate": rate})

    def reference(self, prep: Prepared) -> int:
        return _synthetic_flat_count(prep)

    def run(self, prep: Prepared, k: int):
        s = prep.state
        result, _ = parallel.run_parallel(s["tree"], s["leaves"], s["tol"], worker_count=WORKERS)
        return result

    def collect(self, prep: Prepared, handle) -> Outcome:
        return _from_result(handle)


class BurgersChain:
    name = "burgers-chain"
    why = ("the paper's incremental setting: a Burgers trajectory streamed through one session; "
           "serial, no pool, tiny working set, the only user of block_gramian_pod")
    target = 1e-3
    # spark_probability 1e-2 instead of the default 1e-3: with ten expected
    # sparks the basis size ranges from 12 to 27 modes across seeds, with a
    # hundred it stays within a few modes, so a median over seeds is steady
    sizes = {"full": (500, 10000, 100), "tiny": (50, 1000, 100)}
    spark_probability = 1e-2

    def setup(self, seed: int, size: str, workdir: Path) -> Prepared:
        grid, steps, block = self.sizes[size]
        cfg = datagen.BurgersConfig(grid_size=grid, step_count=steps,
                                    spark_probability=self.spark_probability, seed=seed)
        data = datagen.burgers_snapshots(cfg)
        blocks = [pod.SnapshotBlock(data.space, data.values[:, a : a + block])
                  for a in range(0, data.count, block)]
        return Prepared(data.values, self.target, {"blocks": blocks})

    def reference(self, prep: Prepared) -> int:
        # the Burgers spectrum is not known in advance: one dense SVD, run
        # outside the timed set-up
        return flat_mode_count(scipy.linalg.svdvals(prep.data), _root_budget(prep))

    def run(self, prep: Prepared, k: int):
        blocks = prep.state["blocks"]
        session = hierarchy.IncrementalSession(self.target, OMEGA, len(blocks))
        for b in blocks:
            session.push(b)
        return session.finalize()

    def collect(self, prep: Prepared, handle) -> Outcome:
        return _from_result(handle)


# header of hapod's .hpd container: magic, version u16, rows u64, cols u64, weight flag u8
_HPD_HEADER = 4 + 2 + 8 + 8 + 1


def _read_hpd(path: Path, mmap: bool = False) -> np.ndarray:
    """An unweighted .hpd matrix, parsed here rather than by hapod.io."""
    with open(path, "rb") as fh:
        head = fh.read(_HPD_HEADER)
    if head[:4] != b"HPD1" or head[-1] != 0:
        raise ValueError(f"{path}: not an unweighted HPD1 matrix")
    rows = int.from_bytes(head[6:14], "little")
    cols = int.from_bytes(head[14:22], "little")
    if mmap:
        return np.memmap(path, dtype="<f8", mode="r", offset=_HPD_HEADER, shape=(rows, cols), order="F")
    flat = np.fromfile(path, dtype="<f8", offset=_HPD_HEADER)
    return flat.reshape((rows, cols), order="F")


class TallDiskStar:
    name = "tall-disk-star"
    why = ("d >> m read from an .hpd file by the hapod run command over a star: inner products "
           "and file I/O dominate; the only workload that reads and writes files")
    target = 1e-2
    sizes = {"full": (20000, 1000, 0.05, 100), "tiny": (2000, 100, 0.3, 10)}

    def setup(self, seed: int, size: str, workdir: Path) -> Prepared:
        d, m, rate, block = self.sizes[size]
        path = workdir / "tall.hpd"
        # a previous set-up may still map the old file; unlinking keeps its
        # pages valid where truncating in place would not
        path.unlink(missing_ok=True)
        data = datagen.synthetic_decay(d, m, rate, seed)
        hio.write_matrix(path, data.values)
        del data
        return Prepared(_read_hpd(path, mmap=True), self.target,
                        {"path": path, "block": block, "workdir": workdir, "rate": rate})

    def reference(self, prep: Prepared) -> int:
        return _synthetic_flat_count(prep)

    def run(self, prep: Prepared, k: int):
        s = prep.state
        out = s["workdir"] / f"out-{k}"
        argv = ["run", str(s["path"]), "--out", str(out), "--eps-star", repr(self.target),
                "--omega", repr(OMEGA), "--topology", "star", "--block-size", str(s["block"]),
                "--workers", str(WORKERS)]
        said = textio.StringIO()
        with contextlib.redirect_stdout(said), contextlib.redirect_stderr(said):
            code = cli.main(argv)
        if code != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise OperationFailed(f"hapod run exited {code}: {said.getvalue().strip()}")
        return out

    def collect(self, prep: Prepared, out: Path) -> Outcome:
        try:
            modes = _read_hpd(out / "modes.hpd")
            sigmas = np.loadtxt(out / "sigmas.txt", dtype=np.float64, ndmin=1)
            with open(out / "report.tsv", newline="") as fh:
                rows = list(csv.DictReader(fh, delimiter="\t"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Outcome(
            modes=modes,
            sigmas=sigmas,
            input_counts=tuple(int(r["input_count"]) for r in rows),
            epsilons=np.array([float(r["local_epsilon"]) for r in rows]),
            tails=np.array([float(r["discarded_tail_energy"]) for r in rows]),
        )


WORKLOADS = {w.name: w for w in (SyntheticBalanced(), BurgersChain(), TallDiskStar())}
