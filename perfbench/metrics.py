"""Metric names, units and directions, and the reduction of spans to per-layer values.

BENCHMARK.json repeats the two lists below; a test keeps them equal.
"""

from __future__ import annotations

from .tracing import Span, targets

# (name, unit, better)
END_TO_END = [
    ("time_to_basis_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("mode_count", "count", "lower"),
    ("max_node_input_cols", "count", "lower"),
    ("peak_bytes", "B", "lower"),
]

# (name, unit, better, span the value is derived from; None for values that
# come from the operation's result or from the untraced run)
PER_LAYER = [
    ("pod.eigh.calls", "count", "lower", "pod.eigh"),
    ("pod.eigh.busy_s", "s", "lower", "pod.eigh"),
    ("pod.eigh.max_n", "count", "lower", "pod.eigh"),
    ("pod.eigh.n3", "count", "lower", "pod.eigh"),
    ("pod.svd.busy_s", "s", "lower", "pod.svd"),
    ("pod.gramian.busy_s", "s", "lower", "pod.gramian"),
    ("pod.gramian.flops", "flop", "lower", "pod.gramian"),
    ("pod.bytes_in", "B", "lower", "pod.pod"),
    ("pod.pod.calls", "count", "lower", "pod.pod"),
    ("pod.pod.busy_s", "s", "lower", "pod.pod"),
    ("pod.pod.self_s", "s", "lower", "pod.pod"),
    ("pod.block_gramian_pod.calls", "count", "lower", "pod.block_gramian_pod"),
    ("pod.block_gramian_pod.busy_s", "s", "lower", "pod.block_gramian_pod"),
    ("hierarchy.session.push.busy_s", "s", "lower", "hierarchy.session.push"),
    ("hierarchy.session.finalize.busy_s", "s", "lower", "hierarchy.session.finalize"),
    ("hierarchy.leaf.busy_s", "s", "lower", "hierarchy.evaluate_node"),
    ("hierarchy.interior.busy_s", "s", "lower", "hierarchy.evaluate_node"),
    ("hierarchy.root.busy_s", "s", "lower", "hierarchy.evaluate_node"),
    ("hierarchy.evaluate_node.self_s", "s", "lower", "hierarchy.evaluate_node"),
    ("hierarchy.budget_slack", "ratio", "lower", None),
    ("parallel.wave.1.s", "s", "lower", "parallel.run_parallel"),
    ("parallel.wave.2.s", "s", "lower", "parallel.run_parallel"),
    ("parallel.wave.3.s", "s", "lower", "parallel.run_parallel"),
    ("parallel.utilization", "ratio", "higher", "parallel.run_parallel"),
    ("parallel.idle_s", "s", "lower", "parallel.run_parallel"),
    ("parallel.critical_path_s", "s", "lower", "parallel.run_parallel"),
    ("parallel.level_max_sum_s", "s", "lower", "parallel.run_parallel"),
    ("io.read_matrix.busy_s", "s", "lower", "io.read_matrix"),
    ("io.read_matrix.bytes", "B", "lower", "io.read_matrix"),
    ("io.iter_columns.busy_s", "s", "lower", "io.iter_columns"),
    ("io.iter_columns.batches", "count", "lower", "io.iter_columns"),
    ("io.write_matrix.busy_s", "s", "lower", "io.write_matrix"),
    ("io.write_matrix.bytes", "B", "lower", "io.write_matrix"),
    ("cli.cmd_run.busy_s", "s", "lower", "cli.cmd_run"),
    ("cli.cmd_run.self_s", "s", "lower", "cli.cmd_run"),
    ("tree.derive_maps.calls", "count", "lower", "tree.derive_maps"),
    ("tree.derive_maps.busy_s", "s", "lower", "tree.derive_maps"),
    ("datagen.busy_s", "s", "lower", "datagen"),
    ("trace.overhead_s", "s", "lower", None),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# values that are counted or computed from shapes, never timed: they must
# repeat exactly between operations on the same inputs
EXACT = {"mode_count", "max_node_input_cols"} | {
    name for name, *_ in PER_LAYER
    if name.endswith((".calls", ".max_n", ".n3", ".flops", ".bytes", ".bytes_in", ".batches"))
}

WAVE_LEVELS = (1, 2, 3)


def _busy(spans):
    return float(sum(sp.duration for sp in spans))


def _parallel(spans: list[Span], by_parent: dict[int, list[Span]]) -> dict[str, float]:
    out = {f"parallel.wave.{lvl}.s": 0.0 for lvl in WAVE_LEVELS}
    out.update({"parallel.utilization": 0.0, "parallel.idle_s": 0.0,
                "parallel.critical_path_s": 0.0, "parallel.level_max_sum_s": 0.0})
    for run in (sp for sp in spans if sp.name == "parallel.run_parallel"):
        nodes = [sp for sp in by_parent.get(run.id, ()) if sp.name == "hierarchy.evaluate_node"]
        capacity = run.attrs.get("workers", 1) * run.duration
        busy = _busy(nodes)
        out["parallel.utilization"] += busy / capacity if capacity > 0 else 0.0
        out["parallel.idle_s"] += capacity - busy
        out["parallel.level_max_sum_s"] += run.attrs.get("level_max_sum_s", 0.0)
        for lvl in WAVE_LEVELS:
            wave = [sp for sp in nodes if sp.attrs.get("level") == lvl]
            if wave:
                out[f"parallel.wave.{lvl}.s"] += max(sp.end for sp in wave) - min(sp.start for sp in wave)
        # longest chain of node spans from a leaf to the root
        span_of = {sp.attrs["node"]: sp for sp in nodes}
        longest: dict[int, float] = {}
        for sp in sorted(nodes, key=lambda s: s.attrs["level"]):
            kids = [int(c) for c in sp.attrs["children"].split(",") if c]
            longest[sp.attrs["node"]] = sp.duration + max(
                (longest.get(c, 0.0) for c in kids if c in span_of), default=0.0)
        out["parallel.critical_path_s"] += max(longest.values(), default=0.0)
    return out


def layer_values(spans: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    """Per-layer values of one operation's spans (everything except
    budget_slack, datagen and trace overhead, which come from elsewhere)."""
    named: dict[str, list[Span]] = {}
    by_parent: dict[int, list[Span]] = {}
    for sp in spans:
        named.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            by_parent.setdefault(sp.parent, []).append(sp)

    def get(name):
        return named.get(name, [])

    def self_sum(name):
        return float(sum(selfs[sp.id] for sp in get(name)))

    def attr_sum(name, key, power=1):
        return sum(sp.attrs.get(key, 0) ** power for sp in get(name))

    eigh = get("pod.eigh")
    nodes = get("hierarchy.evaluate_node")
    iter_cols = get("io.iter_columns")
    out = {
        "pod.eigh.calls": len(eigh),
        "pod.eigh.busy_s": _busy(eigh),
        "pod.eigh.max_n": max((sp.attrs["n"] for sp in eigh), default=0),
        "pod.eigh.n3": attr_sum("pod.eigh", "n", 3),
        "pod.svd.busy_s": _busy(get("pod.svd")),
        "pod.gramian.busy_s": _busy(get("pod.gramian")),
        "pod.gramian.flops": attr_sum("pod.gramian", "flops"),
        "pod.bytes_in": attr_sum("pod.pod", "bytes") + attr_sum("pod.block_gramian_pod", "bytes"),
        "pod.pod.calls": len(get("pod.pod")),
        "pod.pod.busy_s": _busy(get("pod.pod")),
        "pod.pod.self_s": self_sum("pod.pod"),
        "pod.block_gramian_pod.calls": len(get("pod.block_gramian_pod")),
        "pod.block_gramian_pod.busy_s": _busy(get("pod.block_gramian_pod")),
        "hierarchy.session.push.busy_s": _busy(get("hierarchy.session.push")),
        "hierarchy.session.finalize.busy_s": _busy(get("hierarchy.session.finalize")),
        "hierarchy.evaluate_node.self_s": self_sum("hierarchy.evaluate_node"),
        "io.read_matrix.busy_s": _busy(get("io.read_matrix")),
        "io.read_matrix.bytes": attr_sum("io.read_matrix", "bytes"),
        "io.iter_columns.busy_s": _busy(iter_cols),
        "io.iter_columns.batches": sum(1 for sp in iter_cols if "exhausted" not in sp.attrs),
        "io.write_matrix.busy_s": _busy(get("io.write_matrix")),
        "io.write_matrix.bytes": attr_sum("io.write_matrix", "bytes"),
        "cli.cmd_run.busy_s": _busy(get("cli.cmd_run")),
        "cli.cmd_run.self_s": self_sum("cli.cmd_run"),
        "tree.derive_maps.calls": len(get("tree.derive_maps")),
        "tree.derive_maps.busy_s": _busy(get("tree.derive_maps")),
    }
    for kind in ("leaf", "interior", "root"):
        out[f"hierarchy.{kind}.busy_s"] = _busy([sp for sp in nodes if sp.attrs.get("kind") == kind])
    out.update(_parallel(spans, by_parent))
    return out


def absent_metrics(absent_targets: set[str]) -> list[str]:
    """Per-layer metrics whose every source function has disappeared."""
    owners: dict[str, list[str]] = {}
    for owner, attr, span, _ in targets():
        owners.setdefault(span, []).append(f"{owner}.{attr}")
    lost = {span for span, names in owners.items() if all(n in absent_targets for n in names)}
    return [m for m, _, _, source in PER_LAYER if source in lost]
