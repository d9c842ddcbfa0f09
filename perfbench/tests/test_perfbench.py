"""The benchmark's own tests: tiny inputs, every metric printed, the gate trips.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import gate, metrics
from perfbench.tracing import Recorder, instrumented
from perfbench.workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parents[2]
RUN = ["perfbench/run.py", "--seconds", "0.3", "--size", "tiny"]


@functools.lru_cache(maxsize=None)
def run_tiny(workload: str, trace: int, repeat: int = 0):
    """stdout lines and the parsed result of one tiny run (cached per argument set)."""
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed(workload, trace):
    lines, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in spec]
    for name, unit, *_ in spec:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] for line in lines), name
    assert any(line.strip().startswith("ops_failed/ops_attempted 0/") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_between_runs(workload):
    for trace in (0, 1):
        first = run_tiny(workload, trace)[1]["metrics"]
        again = run_tiny(workload, trace, repeat=1)[1]["metrics"]
        exact = [m for m in first if m in metrics.EXACT]
        assert exact
        assert {m: first[m] for m in exact} == {m: again[m] for m in exact}


def test_layers_show_up_only_where_expected():
    layer = {w: run_tiny(w, 1)[1]["metrics"] for w in WORKLOADS}
    for w, values in layer.items():
        bgp = values["pod.block_gramian_pod.calls"]["value"]
        io_bytes = values["io.read_matrix.bytes"]["value"] + values["io.write_matrix.bytes"]["value"]
        assert (bgp > 0) == (w == "burgers-chain")
        assert (io_bytes > 0) == (w == "tall-disk-star")
        assert values["pod.eigh.calls"]["value"] > 0


def test_pool_spans_nest_under_run_parallel():
    run_tiny("synthetic-balanced", 1)
    events = json.loads((ROOT / ".perfbench_out" / "trace-synthetic-balanced-seed3.json").read_text())["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    nodes = [e for e in events if e["name"] == "hierarchy.evaluate_node" and e["args"]["op"] != "setup"]
    assert nodes
    assert {by_id[e["args"]["parent"]]["name"] for e in nodes} == {"parallel.run_parallel"}


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *RUN, "--workload", "burgers-chain", "--seed", "0", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


@pytest.fixture(scope="module")
def tiny_balanced(tmp_path_factory):
    workload = WORKLOADS["synthetic-balanced"]
    prep = workload.setup(5, "tiny", tmp_path_factory.mktemp("work"))
    outcome = workload.collect(prep, workload.run(prep, 0))
    return prep, workload.reference(prep), outcome


def _with(outcome, **changes):
    fields = dict(modes=outcome.modes, sigmas=outcome.sigmas, input_counts=outcome.input_counts,
                  epsilons=outcome.epsilons, tails=outcome.tails)
    fields.update(changes)
    return Outcome(**fields)


def test_gate_passes_an_honest_result(tiny_balanced):
    prep, flat, outcome = tiny_balanced
    assert gate.check(outcome, prep.data, prep.target, flat, outcome.sigmas) == []


def test_gate_rejects_an_extra_non_orthogonal_column(tiny_balanced):
    prep, flat, outcome = tiny_balanced
    extra = outcome.modes[:, :1] + 0.5 * outcome.modes[:, 1:2]
    bad = _with(outcome, modes=np.hstack([outcome.modes, extra]),
                sigmas=np.append(outcome.sigmas, outcome.sigmas[-1]))
    problems = gate.check(bad, prep.data, prep.target, flat + 1, None)
    assert "orthonormal" in [p.split(":")[0] for p in problems]


def test_gate_rejects_a_truncated_basis(tiny_balanced):
    prep, flat, outcome = tiny_balanced
    bad = _with(outcome, modes=outcome.modes[:, :2], sigmas=outcome.sigmas[:2])
    problems = gate.check(bad, prep.data, prep.target, flat, None)
    assert [p.split(":")[0] for p in problems] == ["mean-error"]


def test_gate_rejects_more_modes_than_flat_pod(tiny_balanced):
    prep, flat, outcome = tiny_balanced
    problems = gate.check(outcome, prep.data, prep.target, outcome.mode_count - 1, None)
    assert [p.split(":")[0] for p in problems] == ["root-mode-bound"]


def test_gate_rejects_sigmas_that_moved(tiny_balanced):
    prep, flat, outcome = tiny_balanced
    moved = outcome.sigmas.copy()
    moved[0] = np.nextafter(moved[0], np.inf)
    problems = gate.check(outcome, prep.data, prep.target, flat, moved)
    assert [p.split(":")[0] for p in problems] == ["repeatable"]


def test_flat_mode_count_matches_a_loop():
    sigmas = np.exp(-0.3 * np.arange(1, 41))
    for budget in (0.0, 1e-6, 0.05, 0.4, 10.0):
        naive = next(n for n in range(41) if sum(s * s for s in sigmas[n:]) <= budget * budget)
        assert gate.flat_mode_count(sigmas, budget) == naive


def test_a_missing_function_is_reported_absent(monkeypatch):
    import importlib

    cli = importlib.import_module("hapod.cli")
    monkeypatch.delattr(cli, "cmd_run")
    rec = Recorder()
    with instrumented(rec):
        pass
    assert rec.absent == {"hapod.cli.cmd_run"}
    assert metrics.absent_metrics(rec.absent) == ["cli.cmd_run.busy_s", "cli.cmd_run.self_s"]
