"""Span recorder and the wrappers that measure hapod's layers from outside.

Nothing under ``src/`` knows about this module.  While `instrumented` is
active, the public functions of ``pod``, ``hierarchy``, ``parallel``, ``io``,
``cli``, ``tree`` and ``datagen`` (and SciPy's ``eigh``/``svd``) are replaced,
at the module attribute where the calling code looks them up, by wrappers that
record one span per call.  Spans stay in memory; `chrome_trace` turns them
into Chrome trace-event JSON at the end of a run, and `metrics.layer_values`
reduces the spans of one operation to the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    tid: int
    op: str | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    with an empty stack (a pool worker) takes as parent the innermost span
    open on the thread that started the current operation, which is the
    thread waiting for the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.op: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor: list[Span] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def operation(self, op: str):
        """Tag every span opened inside with ``op`` and open a root span for it."""
        self.op = op
        self._anchor = self._stack()
        try:
            with self.span("bench.operation"):
                yield
        finally:
            self.op = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._anchor[-1] if self._anchor else None)
        sp = Span(next(self._ids), name, 0.0, parent.id if parent else None,
                  threading.get_ident(), self.op, attrs=attrs)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children on pool threads may overlap each other, so the covered part is
    the length of the union of their intervals.
    """
    kids: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            kids.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for c in sorted(kids.get(sp.id, ()), key=lambda s: s.start):
            a, b = max(c.start, reach), min(c.end, sp.end)
            if b > a:
                covered += b - a
                reach = b
        out[sp.id] = sp.duration - covered
    return out


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event JSON (complete events, microseconds from the first span)."""
    t0 = min((sp.start for sp in spans), default=0.0)
    tids: dict[int, int] = {}
    events = []
    for sp in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(sp.tid, len(tids))
        args = {"id": sp.id, "parent": sp.parent, "op": sp.op}
        args.update({k: v for k, v in sp.attrs.items() if isinstance(v, (int, float, str))})
        events.append({
            "name": sp.name, "cat": sp.name.split(".")[0], "ph": "X", "pid": 1, "tid": tid,
            "ts": (sp.start - t0) * 1e6, "dur": sp.duration * 1e6, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------- wrappers


def _timed(rec, fn, name, attrs_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, **(attrs_of(*args, **kwargs) if attrs_of else {})) as sp:
            out = fn(*args, **kwargs)
            if after:
                sp.attrs.update(after(out))
            return out
    return wrapper


def _timed_generator(rec, fn, name):
    """Each next() of the returned generator is one span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            with rec.span(name) as sp:
                try:
                    item = next(it)
                except StopIteration:
                    sp.attrs["exhausted"] = 1
                    return
                sp.attrs["bytes"] = int(getattr(item, "nbytes", 0))
            yield item
    return wrapper


def _eigh_attrs(a, *args, **kwargs):
    return {"n": int(a.shape[0])}


def _gramian_attrs(block):
    d, m = block.values.shape
    return {"flops": 2 * d * m * m}


def _pod_attrs(block, *args, **kwargs):
    return {"bytes": int(block.values.nbytes)}


def _block_gramian_pod_attrs(prior, fresh, *args, **kwargs):
    return {"bytes": int(prior.modes.nbytes + fresh.values.nbytes)}


def _node_attrs(tree, maps, node, *args, **kwargs):
    kids = tree.children[node]
    kind = "root" if node == tree.root else ("interior" if kids else "leaf")
    return {"node": int(node), "kind": kind, "level": int(maps.level[node]),
            "children": ",".join(str(c) for c in kids)}


def _run_parallel_attrs(*args, **kwargs):
    workers = kwargs.get("worker_count", args[4] if len(args) > 4 else 1)
    return {"workers": int(workers)}


def _run_parallel_after(out):
    stats = out[1] if isinstance(out, tuple) and len(out) == 2 else None
    value = getattr(stats, "critical_path_time", None)
    return {} if value is None else {"level_max_sum_s": float(value)}


def _write_matrix_attrs(path, values, *args, **kwargs):
    return {"bytes": int(getattr(values, "nbytes", 0))}


def _read_matrix_after(out):
    values, weights = out
    return {"bytes": int(values.nbytes + (weights.nbytes if weights is not None else 0))}


# (module, attribute, span name, wrapper factory); every module that looks a
# name up as its own global gets its own entry
def targets():
    def t(attrs_of=None, after=None):
        return lambda rec, fn, name: _timed(rec, fn, name, attrs_of, after)

    node = t(_node_attrs)
    return [
        ("scipy.linalg", "eigh", "pod.eigh", t(_eigh_attrs)),
        ("scipy.linalg", "svd", "pod.svd", t()),
        ("hapod.pod", "gramian", "pod.gramian", t(_gramian_attrs)),
        ("hapod.hierarchy", "pod", "pod.pod", t(_pod_attrs)),
        ("hapod.hierarchy", "block_gramian_pod", "pod.block_gramian_pod", t(_block_gramian_pod_attrs)),
        ("hapod.hierarchy", "evaluate_node", "hierarchy.evaluate_node", node),
        ("hapod.parallel", "evaluate_node", "hierarchy.evaluate_node", node),
        ("hapod.hierarchy.IncrementalSession", "push", "hierarchy.session.push", t()),
        ("hapod.hierarchy.IncrementalSession", "finalize", "hierarchy.session.finalize", t()),
        ("hapod.parallel", "run_parallel", "parallel.run_parallel", t(_run_parallel_attrs, _run_parallel_after)),
        ("hapod.cli", "run_parallel", "parallel.run_parallel", t(_run_parallel_attrs, _run_parallel_after)),
        ("hapod.io", "read_matrix", "io.read_matrix", t(after=_read_matrix_after)),
        ("hapod.io", "write_matrix", "io.write_matrix", t(_write_matrix_attrs)),
        ("hapod.io", "iter_columns", "io.iter_columns", _timed_generator),
        ("hapod.cli", "cmd_run", "cli.cmd_run", t()),
        ("hapod.tree", "derive_maps", "tree.derive_maps", t()),
        ("hapod.hierarchy", "derive_maps", "tree.derive_maps", t()),
        ("hapod.parallel", "derive_maps", "tree.derive_maps", t()),
        ("hapod.cli", "derive_maps", "tree.derive_maps", t()),
        ("hapod.datagen", "synthetic_decay", "datagen", t()),
        ("hapod.datagen", "burgers_snapshots", "datagen", t()),
    ]


def _resolve(path: str):
    """Module or class named by a dotted path, or None if it no longer exists."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Swap in the wrappers, restore the originals on exit.

    A name that no longer exists is recorded in ``rec.absent`` instead of
    failing, so a later refactor shows up as an absent layer.  ``hapod.pod``
    resolves to the function on the package, so modules are reached through
    importlib rather than attribute access.
    """
    undo = []
    try:
        for owner_path, attr, name, make in targets():
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                rec.absent.add(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, make(rec, original, name))
            undo.append((owner, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
