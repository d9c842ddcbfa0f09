"""Command line front end: gen, run, verify, bench.

Exit codes: 0 success, 1 usage or I/O problems, 2 a verification check
failed, 3 the numerics fell over (blow-up, non-finite data).
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

from . import io as hio
from .datagen import BurgersConfig, GenerationError, burgers_snapshots, synthetic_decay
from .hierarchy import NodeReport, _check_rule, _chunk_counts, actual_mean_error, assign_tolerances, distribute_columns
from .parallel import run_parallel
from .pod import InnerProductSpace, ModeSet, PodBackend, _valid_sigmas, pod, truncation_rank
from .tree import RootedTree, build_balanced, build_chain, build_star, derive_maps, format_tree_text, parse_tree_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

MODES_FILE = "modes.hpd"
SIGMAS_FILE = "sigmas.txt"
REPORT_FILE = "report.tsv"
SUMMARY_FILE = "summary.txt"
TREE_FILE = "tree.txt"
RIGHT_FILE = "right_factor.hpd"
TOPOLOGIES = "star, chain, balanced[:depth], file:PATH"


class _Parser(argparse.ArgumentParser):
    # argparse uses exit code 2 for usage errors; this tool reserves 2 for
    # verification failures, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, bool):
        return "1" if v else "0"
    if v is None:
        return ""
    return str(v)


def _write_kv(path, pairs) -> None:
    with open(path, "w") as fh:
        for key, val in pairs:
            fh.write(f"{key}={_fmt(val)}\n")


def _read_kv(path) -> dict[str, str]:
    with open(path) as fh:  # key=value lines; blank lines are skipped
        return dict(line.rstrip("\n").partition("=")[::2] for line in fh if line != "\n")


def _refuse_existing(paths, force: bool):
    if force:
        return
    for p in paths:
        if Path(p).exists():
            raise FileExistsError(f"{p} exists; pass --force to overwrite")


# ---------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    out = Path(args.output)
    sidecar = Path(str(out) + ".meta")
    _refuse_existing([out, sidecar], args.force)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "burgers":
        cfg = BurgersConfig(
            grid_size=args.grid_size,
            step_count=args.steps,
            time_step=args.time_step,
            spark_probability=args.spark_prob,
            spark_max=args.spark_max,
            seed=args.seed,
        )
        block, stats = burgers_snapshots(cfg, with_stats=True)
        meta = [
            ("kind", "burgers"),
            *dataclasses.asdict(cfg).items(),
            ("spark_count", stats["spark_count"]),
            ("spark_steps", ",".join(str(int(s)) for s in stats["spark_steps"])),
        ]
    else:
        block = synthetic_decay(args.rows, args.cols, args.decay_rate, args.seed)
        meta = [
            ("kind", "synthetic"),
            ("rows", args.rows),
            ("cols", args.cols),
            ("decay_rate", args.decay_rate),
            ("seed", args.seed),
        ]
    hio.write_matrix(out, block.values, block.space.weights)
    _write_kv(sidecar, meta)
    print(f"wrote {out} ({block.values.shape[0]}x{block.values.shape[1]}) and {sidecar}")
    return EXIT_OK


# ---------------------------------------------------------------- run


def _pick_topology(topology: str, total_columns: int, blocks: int | None = None,
                   block_size: int | None = None) -> RootedTree:
    """The tree a topology name asks for, with a leaf per block of --blocks or
    per chunk of --block-size (`_chunk_counts`), not both, as many as a file:
    tree has.  Only ``balanced:N`` takes a suffix, its depth, 2 if left out."""
    if blocks is not None and block_size is not None:
        raise ValueError("pass --blocks or --block-size, not both")
    if block_size is not None:
        blocks = len(_chunk_counts(total_columns, block_size))
    name, depth = topology, 2
    if name.startswith("file:"):
        path = name[len("file:") :]
        tree = parse_tree_text(Path(path).read_text())
        leaves = sum(not kids for kids in tree.children)
        if blocks is not None and blocks != leaves:
            raise ValueError(f"{blocks} blocks for the {leaves} leaves of the tree in {path}")
        return tree
    if ":" in name:
        name, _, suffix = name.partition(":")
        if name != "balanced":
            raise ValueError(f"topology {topology!r}: only balanced takes a depth suffix")
        try:
            depth = int(suffix)
        except ValueError:
            raise ValueError(f"bad topology depth suffix in {topology!r}") from None
    if blocks is None:
        raise ValueError("pick a leaf split with --blocks or --block-size")
    if name == "star":
        return build_star(blocks)
    if name == "chain":
        return build_chain(blocks)
    if name == "balanced":
        return build_balanced(blocks, depth)
    raise ValueError(f"unknown topology {topology!r} ({TOPOLOGIES})")


def _write_report(path, reports, maps) -> None:
    """One row per node; a leaf's row ends with its column range."""
    names = [f.name for f in dataclasses.fields(NodeReport)] + ["col_start", "col_end"]
    with open(path, "w") as fh:
        fh.write("\t".join(names) + "\n")
        for r in reports:
            cols = maps.columns(r.node)
            row = dataclasses.astuple(r) + ((cols.start, cols.stop) if r.is_leaf else (None, None))
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def _read_report(path, tree: RootedTree, input_count: int):
    """A report's rows, and the tree's maps over their leaf column ranges,
    which must tile the input's columns in leaf order."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, delimiter="\t")
        for r in reader:
            if None in r or None in r.values():
                raise ValueError(f"{path}: line {reader.line_num} does not have one field per column")
            rows.append(r)
    for name in ("node", "output_mode_count", "col_start", "col_end"):
        if name not in (reader.fieldnames or ()):
            raise ValueError(f"{path}: no {name} column")
    try:
        count = collections.Counter(int(r["node"]) for r in rows)
        for v in sorted(count.keys() | range(tree.node_count)):  # one row per node of the tree
            if not 0 <= v < tree.node_count:
                raise ValueError(f"node {v} is not in {TREE_FILE}")
            if count[v] != 1:
                raise ValueError(f"{count[v]} rows for node {v} of {TREE_FILE}, not one")
        spans = {int(r["node"]): (int(r["col_start"]), int(r["col_end"])) for r in rows if r["col_start"]}
        maps = derive_maps(tree, {v: b - a for v, (a, b) in spans.items()})
        for v in maps.leaf_order:
            if spans[v][0] != maps.column_start[v]:
                raise ValueError(f"leaf {v} starts at column {spans[v][0]}, "
                                 f"but the leaves before it end at column {maps.column_start[v]}")
        if maps.subordinate_leaf_counts[tree.root] != input_count:
            raise ValueError(f"the leaves cover {maps.subordinate_leaf_counts[tree.root]} columns, "
                             f"but the input has {input_count}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return rows, maps


def cmd_run(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    block = hio.load_snapshots(args.input)
    if block.count == 0:
        raise ValueError(f"{args.input}: no snapshot columns")
    tree = _pick_topology(args.topology, block.count, args.blocks, args.block_size)
    leaves = distribute_columns(tree, block, block_size=args.block_size)
    maps = derive_maps(tree, leaves.counts())
    tol = assign_tolerances(tree, leaves, args.eps_star, args.omega)
    backend = PodBackend(args.backend)

    outdir = Path(args.out)
    if outdir.exists() and any(outdir.iterdir()) and not args.force:
        raise FileExistsError(f"{outdir} exists and is not empty; pass --force to overwrite")
    outdir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    result, stats = run_parallel(
        tree, leaves, tol, backend, args.workers,
        track_right_factor=args.track_right_factor,
    )
    wall = time.perf_counter() - started

    hio.write_matrix(outdir / MODES_FILE, result.modes.modes, block.space.weights)
    hio.write_floats(outdir / SIGMAS_FILE, result.modes.sigmas)
    (outdir / TREE_FILE).write_text(format_tree_text(tree))
    _write_report(outdir / REPORT_FILE, result.reports, maps)
    if result.right_factor is not None:
        hio.write_matrix(outdir / RIGHT_FILE, result.right_factor)

    mean_error = actual_mean_error(block, result.modes, args.workers)
    summary = [
        ("input", args.input),
        ("snapshot_count", block.count),
        ("dimension", block.space.dimension),
        ("weighted", block.space.weights is not None),
        ("topology", args.topology),
        ("depth", maps.depth),
        ("blocks", len(maps.leaf_order)),
        ("block_size", args.block_size),
        ("eps_star", float(args.eps_star)),
        ("omega", float(args.omega)),
        ("backend", args.backend),
        ("workers", args.workers),
        ("track_right_factor", args.track_right_factor),
        ("apriori_error_bound", result.apriori_error_bound),
        ("mean_error", mean_error),
        ("mode_count", result.mode_count),
        ("max_intermediate_modes", result.max_intermediate_modes()),
        ("critical_path_time", stats.critical_path_time),
        ("total_node_time", stats.total_node_time),
        ("wall_time", wall),
    ]
    _write_kv(outdir / SUMMARY_FILE, summary)
    target = args.eps_star**2
    met = mean_error <= target
    if met:
        verdict = f"<= target {target:.6g}"
    else:
        # projecting onto no mode leaves the mean energy ||S||^2_W / m
        no_modes = ModeSet(block.space, np.zeros(0), np.zeros((block.space.dimension, 0)))
        floor = float(np.finfo(np.float64).eps) * actual_mean_error(block, no_modes, args.workers)
        verdict = f"> target {target:.6g} (rounding floor u*||S||^2/m = {floor:.6g})"
    print(
        f"{result.mode_count} modes for {block.count} snapshots; "
        f"mean error {mean_error:.6g} {verdict}; "
        f"a-priori bound {result.apriori_error_bound:.6g}; outputs in {outdir}"
    )
    if not met:
        print("numerical failure: the mean error misses its target; outputs kept for verify",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _oracle_count(values: np.ndarray, space: InnerProductSpace, epsilon: float) -> int:
    """Mode count of one flat POD at the given tolerance, via dense SVD."""
    if epsilon == 0.0 or values.shape[1] == 0:  # a flat POD at 0 keeps every column
        return values.shape[1]
    svals = scipy.linalg.svdvals(space.weigh(values))
    return truncation_rank(svals, epsilon)


def cmd_verify(args) -> int:
    results = Path(args.results)
    for name in (SUMMARY_FILE, REPORT_FILE, SIGMAS_FILE, MODES_FILE, TREE_FILE):
        if not (results / name).exists():
            raise FileNotFoundError(f"{results / name}: missing result file")
    summary = _read_kv(results / SUMMARY_FILE)

    def within_cap(rows: int, cols: int) -> None:
        if rows * cols > args.cap:
            raise ValueError(f"refusing dense verification: {rows}x{cols} = {rows * cols} entries "
                             f"exceed the cap of {int(args.cap)} (raise with --cap)")

    input_path = Path(args.input)
    if input_path.suffix.lower() != ".csv":  # the header gives the size before the payload is read
        within_cap(*hio.read_matrix_header(input_path)[:2])
    snapshots = hio.load_snapshots(input_path)
    within_cap(*snapshots.values.shape)
    space = snapshots.space

    mode_values, mode_weights = hio.read_matrix(results / MODES_FILE)
    if not space.same_as(InnerProductSpace(len(mode_values), mode_weights)):
        return _report_checks([("weights", False, "modes file and input disagree on inner product")])
    sigmas = hio.read_floats(results / SIGMAS_FILE)
    tree = parse_tree_text((results / TREE_FILE).read_text())
    report, maps = _read_report(results / REPORT_FILE, tree, snapshots.count)
    try:  # every node's tolerance by the rule of the run, never the report's
        eps_star, omega = float(summary["eps_star"]), float(summary["omega"])
        counts = {v: maps.subordinate_leaf_counts[v] for v in maps.leaves}
        eps = assign_tolerances(tree, counts, eps_star, omega).epsilons
    except KeyError as exc:
        raise ValueError(f"{results / SUMMARY_FILE}: no {exc.args[0]}= line") from None
    except ValueError as exc:
        raise ValueError(f"{results / SUMMARY_FILE}: {exc}") from None

    checks: list[tuple[str, bool, str]] = []

    try:
        ok_sig = _valid_sigmas(sigmas).size == mode_values.shape[1]
    except ValueError:
        ok_sig = False
    checks.append(
        ("sigmas-file", ok_sig,
         f"{sigmas.size} values for {mode_values.shape[1]} modes, finite/nonnegative/sorted")
    )

    finite_modes = bool(np.all(np.isfinite(mode_values)))
    if finite_modes and mode_values.shape[1]:
        g = space.gram(mode_values, mode_values)
        drift = float(np.max(np.abs(g - np.eye(mode_values.shape[1]))))
    else:
        drift = 0.0 if finite_modes else float("inf")
    checks.append(("modes-orthonormal", drift <= 1e-8, f"max Gramian drift {drift:.3e}"))
    if not finite_modes:
        return _report_checks(checks)

    modes = ModeSet(space, sigmas if ok_sig else np.ones(mode_values.shape[1]), mode_values)
    mean_err = actual_mean_error(snapshots, modes)
    checks.append(
        ("mean-error", mean_err <= eps_star * eps_star,
         f"measured {mean_err:.6g} vs target {eps_star * eps_star:.6g}")
    )

    worst, root = "", None
    for r in report:  # every node against one flat POD of its columns at its tolerance
        node, stated = int(r["node"]), int(r["output_mode_count"])
        bound = _oracle_count(snapshots.values[:, maps.columns(node)], space, eps[node])
        if node == tree.root:
            root = stated, bound
        elif stated > bound and not worst:
            worst = f"node {node}: {r['output_mode_count']} modes exceed flat-POD count {bound}"
    (stated, bound), kept = root, mode_values.shape[1]
    checks.append(("root-mode-bound", stated == kept <= bound,
                   f"{kept} modes, {stated} in {REPORT_FILE}, vs flat-POD count {bound} at its budget"))
    checks.append(("node-mode-bounds", not worst, worst or "every non-root node within its flat-POD count"))
    return _report_checks(checks)


def _report_checks(checks) -> int:
    """Print every (name, ok, detail) check; exit code 2 if any failed."""
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


# ---------------------------------------------------------------- bench


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise ValueError("no sizes given")
    topologies = [t.strip() for t in args.topologies.split(",") if t.strip()]
    rows = ["size\ttopology\tdepth\tblock\tseq_time\tcritical_path_time\tmode_count\tmax_node_input_cols"]
    for size in sizes:
        data = synthetic_decay(args.rows, size, args.decay_rate, args.seed)
        flat_eps = math.sqrt(size) * args.eps_star
        started = time.perf_counter()
        flat = pod(data, flat_eps, PodBackend("gram"))
        flat_time = time.perf_counter() - started
        rows.append(f"{size}\tpod\t1\t{size}\t{flat_time!r}\t{flat_time!r}\t{flat.count}\t{size}")
        for name in topologies:
            tree = _pick_topology(name, size, block_size=args.block_size)
            leaves = distribute_columns(tree, data, block_size=args.block_size)
            tol = assign_tolerances(tree, leaves, args.eps_star, args.omega)
            started = time.perf_counter()
            result, stats = run_parallel(tree, leaves, tol, PodBackend("gram"))
            seq_time = time.perf_counter() - started
            widest = max(r.input_count for r in result.reports)
            rows.append(f"{size}\t{name}\t{derive_maps(tree).depth}\t{args.block_size}\t{seq_time!r}\t"
                        f"{stats.critical_path_time!r}\t{result.mode_count}\t{widest}")
    table = "\n".join(rows) + "\n"
    if args.output:
        Path(args.output).write_text(table)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(table)
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hapod", description=__doc__)

    def omega(text: str) -> float:
        # the root's share of the error budget, for run and bench alike
        return _check_rule(float(text))

    def block_size(text: str) -> int:
        # a size the chunk rule takes, for run and bench alike
        _chunk_counts(0, int(text))
        return int(text)

    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate snapshot data")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gb = gen_sub.add_parser("burgers", help="forced 1-d Burgers trajectory")
    gb.add_argument("--grid-size", type=int, default=500)
    gb.add_argument("--steps", type=int, default=10000)
    gb.add_argument("--time-step", type=float, default=1e-4)
    gb.add_argument("--spark-prob", type=float, default=1e-3)
    gb.add_argument("--spark-max", type=float, default=0.2)
    gs = gen_sub.add_parser("synthetic", help="random matrix with prescribed spectrum")
    gs.add_argument("--rows", type=int, required=True)
    gs.add_argument("--cols", type=int, required=True)
    gs.add_argument("--decay-rate", type=float, required=True)
    for g in (gb, gs):
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("-o", "--output", required=True)
        g.add_argument("--force", action="store_true")
        g.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="compress a snapshot file")
    run.add_argument("input")
    run.add_argument("--out", required=True, help="results directory")
    run.add_argument("--eps-star", type=float, required=True, help="mean-error target")
    run.add_argument("--omega", type=omega, default=0.75)
    run.add_argument("--topology", required=True, help=TOPOLOGIES)
    run.add_argument("--blocks", type=int, default=None)
    run.add_argument("--block-size", type=block_size, default=None)
    run.add_argument("--backend", choices=("gram", "svd"), default="gram")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--track-right-factor", action="store_true")
    run.add_argument("--force", action="store_true")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="recompute dense POD and check the bounds")
    ver.add_argument("results", help="directory written by run")
    ver.add_argument("input", help="the snapshot file that was compressed")
    ver.add_argument("--cap", type=float, default=5e7,
                     help="refuse dense recomputation beyond this many matrix entries")
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="time flat POD against tree HAPOD")
    ben.add_argument("--rows", type=int, default=500)
    ben.add_argument("--sizes", required=True, help="comma-separated snapshot counts")
    ben.add_argument("--block-size", type=block_size, default=100)
    ben.add_argument("--topologies", default="balanced", help=f"comma list of {TOPOLOGIES}")
    ben.add_argument("--decay-rate", type=float, default=0.02)
    ben.add_argument("--eps-star", type=float, default=1e-3)
    ben.add_argument("--omega", type=omega, default=0.75)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("-o", "--output", default=None)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (GenerationError, np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
