"""Benchmark of the hapod package on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload synthetic-balanced --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` measures the per-layer metrics: it wraps hapod's public
functions, records spans, writes them as Chrome trace-event JSON under
``.perfbench_out/`` and prints the per-layer values.  Every operation is
checked by `perfbench.gate`; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every operation passed, 2 when hapod's sources are
missing from the checkout.
"""

import os

# OpenBLAS reads its thread count once, when NumPy or SciPy first loads it.
# With two BLAS threads on two cores the timings became several times slower
# and far less repeatable, so the benchmark pins one thread per pool worker.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gate, metrics  # noqa: E402
from perfbench.tracing import Recorder, chrome_trace, instrumented, self_times  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
# set-up runs at least SETUP_REPEATS times and until SETUP_MIN_SECONDS have
# passed, so that the short set-ups also get a steady median
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
MIN_TIMED_OPS = 3
MIN_TRACED_OPS = 2
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


def _load_program():
    """Put the checkout's src/ first on the import path and import hapod from
    it; `perfbench.workloads` imports hapod, so it is imported after this."""
    src = ROOT / "src"
    if not (src / "hapod" / "__init__.py").is_file():
        raise ImportError(f"no hapod sources at {src / 'hapod'}")
    sys.path.insert(0, str(src))
    import hapod

    if Path(hapod.__file__).resolve().parent != (src / "hapod").resolve():
        raise ImportError(f"imported hapod from {hapod.__file__}, not from {src}")


def environment(workers: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        deps = config(mode="dicts")["Build Dependencies"]
        return deps.get("blas", deps.get("lapack", {})).get("version", "unknown")

    with contextlib.redirect_stdout(None):
        numpy_blas = blas(numpy.show_config)
        scipy_blas = blas(scipy.show_config)
    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "pool_workers": workers,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_openblas": numpy_blas,
        "scipy": scipy.__version__,
        "scipy_openblas": scipy_blas,
    }


class Ledger:
    """Runs operations, applies the gate to each and keeps the tally."""

    def __init__(self, workload, prep, flat_count):
        self.workload = workload
        self.prep = prep
        self.flat_count = flat_count
        self.attempted = 0
        self.failures: list[str] = []   # one entry per failed operation
        self.problems: list[str] = []   # failures of the run as a whole
        self.first = None

    def attempt(self, k: int, around=contextlib.nullcontext):
        """One checked operation.  Returns (seconds, outcome), or None if the
        operation raised or failed a check."""
        self.attempted += 1
        try:
            with around():
                started = time.perf_counter()
                handle = self.workload.run(self.prep, k)
                elapsed = time.perf_counter() - started
            outcome = self.workload.collect(self.prep, handle)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"op {k}: raised {type(exc).__name__}: {exc}")
            return None
        first_sigmas = self.first.sigmas if self.first is not None else None
        problems = gate.check(outcome, self.prep.data, self.prep.target, self.flat_count, first_sigmas)
        if self.first is None:
            self.first = outcome
        elif (outcome.mode_count, outcome.max_node_input_cols) != (
                self.first.mode_count, self.first.max_node_input_cols):
            problems.append("repeatable: mode_count or max_node_input_cols changed between repetitions")
        if problems:
            self.failures.append(f"op {k}: " + "; ".join(problems))
            return None
        return elapsed, outcome


def _timing_note(values: list[float]) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    note = f"median of {n}, min {ordered[0]:.4g}, max {ordered[-1]:.4g}" if n else "no samples"
    if n > 10:
        note += f", p{100 * (n - 10) // n} {ordered[n - 11]:.4g}"
    return note


def _setup(workload, seed, size, workdir):
    """Repeated timed set-ups of identical inputs; keeps the last one."""
    times = []
    prep = None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        prep = None  # let the previous inputs go before building the next
        started = time.perf_counter()
        prep = workload.setup(seed, size, workdir)
        times.append(time.perf_counter() - started)
    return prep, times


@contextlib.contextmanager
def _traced_memory(box: list):
    tracemalloc.start()
    try:
        yield
    finally:
        box.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def measure(workload, seed: int, seconds: float, size: str, workdir: Path):
    """End-to-end metrics, nothing instrumented."""
    prep, setup_times = _setup(workload, seed, size, workdir)
    ledger = Ledger(workload, prep, workload.reference(prep))
    # untimed first operation: the tracemalloc peak, and the warm-up
    peak: list[int] = []
    ledger.attempt(0, around=lambda: _traced_memory(peak))
    times = []
    started = time.perf_counter()
    k = 1
    while k <= MIN_TIMED_OPS or time.perf_counter() - started < seconds:
        done = ledger.attempt(k)
        if done is not None:
            times.append(done[0])
        k += 1
    first = ledger.first
    values = {
        "time_to_basis_s": statistics.median(times) if times else 0.0,
        "setup_s": statistics.median(setup_times),
        "mode_count": first.mode_count if first else 0,
        "max_node_input_cols": first.max_node_input_cols if first else 0,
        "peak_bytes": peak[0] if peak else 0,
    }
    notes = {
        "time_to_basis_s": _timing_note(times),
        "setup_s": _timing_note(setup_times),
        "mode_count": "exact, equal in every operation",
        "max_node_input_cols": "exact, equal in every operation",
        "peak_bytes": "tracemalloc peak of one operation, untimed",
    }
    return values, notes, ledger, []


def trace(workload, seed: int, seconds: float, size: str, workdir: Path):
    """Per-layer metrics from spans; half the run untraced, half traced."""
    rec = Recorder()
    with instrumented(rec), rec.operation("setup"):
        prep = workload.setup(seed, size, workdir)
    ledger = Ledger(workload, prep, workload.reference(prep))
    ledger.attempt(0)  # warm-up
    plain, traced = [], []
    k = 1
    for timed, traced_phase in ((plain, False), (traced, True)):
        started = time.perf_counter()
        for i in itertools.count():
            if i >= MIN_TRACED_OPS and time.perf_counter() - started >= seconds / 2:
                break
            if traced_phase:
                with instrumented(rec):
                    done = ledger.attempt(k, around=lambda k=k: rec.operation(f"op{k}"))
            else:
                done = ledger.attempt(k)
            if done is not None:
                timed.append((k, done))
            k += 1

    selfs = self_times(rec.spans)
    per_op = []
    for k, (_, outcome) in traced:
        values = metrics.layer_values([sp for sp in rec.spans if sp.op == f"op{k}"], selfs)
        values["hierarchy.budget_slack"] = outcome.budget_slack
        per_op.append(values)
    for values in per_op[1:]:
        moved = sorted(m for m in metrics.EXACT if m in values and values[m] != per_op[0][m])
        if moved:
            ledger.problems.append("exact counts differ between operations: " + ", ".join(moved))
    names = [m for m, *_ in metrics.PER_LAYER]
    # exact values are equal across operations; median_low keeps them integers
    values = {m: (statistics.median_low if m in metrics.EXACT else statistics.median)(
                  [v[m] for v in per_op]) if per_op else 0.0
              for m in names if m not in ("datagen.busy_s", "trace.overhead_s")}
    values["datagen.busy_s"] = sum(sp.duration for sp in rec.spans if sp.op == "setup" and sp.name == "datagen")
    plain_s = [t for _, (t, _) in plain]
    traced_s = [t for _, (t, _) in traced]
    values["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s)
                                  if plain_s and traced_s else 0.0)
    values = {m: values[m] for m in names}

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    trace_path.write_text(json.dumps(chrome_trace(rec.spans)))
    notes = {m: "median over traced operations" for m in names}
    notes["trace.overhead_s"] = (f"traced {_timing_note(traced_s)}; untraced {_timing_note(plain_s)}")
    notes["datagen.busy_s"] = "one set-up"
    print(f"chrome trace: {trace_path.relative_to(ROOT)} ({len(rec.spans)} spans)")
    return values, notes, ledger, metrics.absent_metrics(rec.absent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs exercise the benchmark itself in seconds")
    args = parser.parse_args(argv)

    try:
        _load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load hapod from this checkout: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKERS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("environment " + json.dumps(environment(WORKERS), sort_keys=True))

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = trace if args.trace else measure
        values, notes, ledger, absent = run(workload, args.seed, args.seconds, args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in values.items():
        print(f"  {name:34s} {value!r:>24} {metrics.UNITS[name]:6s} {notes[name]}")
    if absent:
        print("absent layers (reported as 0): " + ", ".join(absent))
    print(f"  ops_failed/ops_attempted {len(ledger.failures)}/{ledger.attempted}")
    for failure in ledger.failures + ledger.problems:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not (ledger.failures or ledger.problems),
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
