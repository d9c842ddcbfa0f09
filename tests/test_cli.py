import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hapod.cli import main
from hapod.datagen import synthetic_decay
from hapod.io import read_floats, read_matrix, read_matrix_header, write_matrix
from hapod.tree import parse_tree_text


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synthetic_file(tmp_path):
    path = tmp_path / "snaps.hpd"
    code = run_cli("gen", "synthetic", "--rows", 40, "--cols", 300,
                   "--decay-rate", 0.05, "--seed", 7, "-o", path)
    assert code == 0
    return path


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        if line:
            key, _, val = line.partition("=")
            out[key] = val
    return out


def edit_report(path, node, **fields):
    """Rewrite fields of one node's row of a report.tsv; a field given as a
    function of the row gets that function's value."""
    lines = path.read_text().splitlines(True)
    header = lines[0].rstrip("\n").split("\t")
    for i, line in enumerate(lines[1:], 1):
        row = dict(zip(header, line.rstrip("\n").split("\t")))
        if row["node"] == str(node):
            row.update({k: str(v(row) if callable(v) else v) for k, v in fields.items()})
            lines[i] = "\t".join(row[h] for h in header) + "\n"
    path.write_text("".join(lines))


class TestGen:
    def test_synthetic_writes_matrix_and_sidecar(self, tmp_path):
        path = tmp_path / "x.hpd"
        assert run_cli("gen", "synthetic", "--rows", 10, "--cols", 20,
                       "--decay-rate", 0.1, "-o", path) == 0
        assert read_matrix_header(path) == (10, 20, False)
        meta = read_kv(path.with_name("x.hpd.meta"))
        assert meta["kind"] == "synthetic"
        assert meta["seed"] == "0"

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        path = tmp_path / "x.hpd"
        args = ("gen", "synthetic", "--rows", 4, "--cols", 4,
                "--decay-rate", 0.1, "-o", path)
        assert run_cli(*args) == 0
        assert run_cli(*args) == 1
        assert "--force" in capsys.readouterr().err
        assert run_cli(*args, "--force") == 0

    def test_burgers_sidecar_reports_sparks(self, tmp_path):
        path = tmp_path / "b.hpd"
        assert run_cli("gen", "burgers", "--grid-size", 50, "--steps", 800,
                       "--spark-prob", 0.02, "--seed", 3, "-o", path) == 0
        assert read_matrix_header(path) == (50, 800, False)
        meta = read_kv(path.with_name("b.hpd.meta"))
        steps = [int(s) for s in meta["spark_steps"].split(",") if s]
        assert int(meta["spark_count"]) == len(steps) > 0

    def test_blow_up_exits_numeric(self, tmp_path, capsys):
        path = tmp_path / "boom.hpd"
        code = run_cli("gen", "burgers", "--grid-size", 20, "--steps", 80,
                       "--time-step", 10.0, "--spark-prob", 1.0,
                       "--spark-max", 10.0, "-o", path)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, option, value, name", [
        ("burgers", "--spark-max", "nan", "spark_max"),
        ("burgers", "--spark-max", "inf", "spark_max"),
        ("synthetic", "--decay-rate", "nan", "decay_rate"),
    ])
    def test_nonfinite_parameter_exits_usage(self, tmp_path, capsys, kind, option, value, name):
        shape = ("--grid-size", 20, "--steps", 80) if kind == "burgers" else ("--rows", 8, "--cols", 6)
        assert run_cli("gen", kind, *shape, option, value, "-o", tmp_path / "x.hpd") == 1
        err = capsys.readouterr().err
        assert name in err
        assert "Traceback" not in err


class TestRun:
    def test_outputs_and_summary(self, synthetic_file, tmp_path):
        out = tmp_path / "res"
        code = run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                       "--topology", "balanced", "--block-size", 30)
        assert code == 0
        for name in ("modes.hpd", "sigmas.txt", "report.tsv", "summary.txt", "tree.txt"):
            assert (out / name).exists()
        summary = read_kv(out / "summary.txt")
        assert float(summary["mean_error"]) <= 0.01 ** 2
        assert int(summary["blocks"]) == 10
        assert int(summary["depth"]) == 3
        sigmas = read_floats(out / "sigmas.txt")
        assert int(summary["mode_count"]) == sigmas.size
        assert np.all(np.diff(sigmas) <= 0)
        tree = parse_tree_text((out / "tree.txt").read_text())
        report_lines = (out / "report.tsv").read_text().strip().splitlines()
        assert len(report_lines) == tree.node_count + 1  # header included

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_exits_usage(self, tmp_path, capsys, bad):
        values = np.random.default_rng(5).standard_normal((30, 40))
        values[29, 39] = bad
        path = tmp_path / "bad.hpd"
        write_matrix(path, values)
        code = run_cli("run", path, "--out", tmp_path / "res", "--eps-star", 0.01,
                       "--topology", "star", "--blocks", 2)
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_topology_names_the_depth(self, synthetic_file, tmp_path, capsys):
        out = tmp_path / "res3"
        code = run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                       "--topology", "balanced:3", "--blocks", 27)
        assert code == 0
        assert int(read_kv(out / "summary.txt")["depth"]) == 4
        capsys.readouterr()
        # the suffix is the one way to name a depth
        assert run_cli("run", synthetic_file, "--out", tmp_path / "d", "--eps-star", 0.01,
                       "--topology", "balanced", "--blocks", 27, "--depth", 2) == 1
        assert run_cli("bench", "--sizes", 50, "--block-size", 10, "--depth", 2) == 1
        err = capsys.readouterr().err
        assert err.count("--depth") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_depth_suffix_only_on_balanced(self, synthetic_file, tmp_path, capsys):
        # a suffix on any other name would be ignored, so it is refused
        assert run_cli("run", synthetic_file, "--out", tmp_path / "s", "--eps-star", 0.01,
                       "--topology", "star:3", "--blocks", 4) == 1
        assert run_cli("bench", "--rows", 30, "--sizes", 90, "--block-size", 45,
                       "--topologies", "chain:7") == 1
        err = capsys.readouterr().err
        assert "'star:3'" in err and "'chain:7'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s").exists()

    def test_file_topology_runs_and_benches(self, synthetic_file, tmp_path, capsys):
        tree = tmp_path / "star3.txt"
        tree.write_text("0 1 2 3\n1\n2\n3\n")
        for i, split in enumerate([("--blocks", 3), ("--block-size", 100), ()]):
            out = tmp_path / f"res{i}"
            assert run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                           "--topology", f"file:{tree}", *split) == 0
            assert int(read_kv(out / "summary.txt")["blocks"]) == 3
        capsys.readouterr()
        # without -o the table goes to standard output
        assert run_cli("bench", "--rows", 30, "--sizes", 90, "--block-size", 30,
                       "--topologies", f"file:{tree}") == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert [r.split("\t")[1] for r in rows[1:]] == ["pod", f"file:{tree}"]

    def test_file_topology_checks_the_leaf_split(self, synthetic_file, tmp_path, capsys):
        # a file: tree brings its own leaves; the flags must agree with them
        tree = tmp_path / "star3.txt"
        tree.write_text("0 1 2 3\n1\n2\n3\n")
        base = ("run", synthetic_file, "--out", tmp_path / "res", "--eps-star", 0.01,
                "--topology", f"file:{tree}")
        assert run_cli(*base, "--blocks", 7) == 1
        assert "7 blocks for the 3 leaves" in capsys.readouterr().err
        assert run_cli(*base, "--block-size", 50) == 1
        assert "6 blocks for the 3 leaves" in capsys.readouterr().err
        assert run_cli(*base, "--blocks", 2, "--block-size", 5) == 1
        err = capsys.readouterr().err
        assert "not both" in err
        assert "Traceback" not in err
        assert not (tmp_path / "res").exists()

    def test_single_block_chain_equals_flat_pod(self, synthetic_file, tmp_path):
        import math
        from hapod import pod
        from hapod.io import load_snapshots

        out = tmp_path / "flat"
        code = run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                       "--omega", 1.0, "--topology", "chain", "--blocks", 1)
        assert code == 0
        block = load_snapshots(synthetic_file)
        ref = pod(block, math.sqrt(block.count) * 0.01)
        sigmas = read_floats(out / "sigmas.txt")
        assert sigmas.size == ref.count
        assert np.allclose(sigmas, ref.sigmas, rtol=1e-12)

    def test_one_block_chain_runs_at_the_default_omega(self, synthetic_file, tmp_path, capsys):
        # a one-node tree is its root and keeps omega * eps* of the budget
        import math
        from hapod import pod
        from hapod.io import load_snapshots

        out = tmp_path / "res"
        assert run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                       "--topology", "chain", "--blocks", 1) == 0
        block = load_snapshots(synthetic_file)
        ref = pod(block, math.sqrt(block.count) * 0.75 * 0.01)
        assert np.array_equal(read_floats(out / "sigmas.txt"), ref.sigmas)
        assert run_cli("verify", out, synthetic_file) == 0
        assert "verification passed" in capsys.readouterr().out

    def test_track_right_factor_output(self, synthetic_file, tmp_path):
        out = tmp_path / "rf"
        code = run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.05,
                       "--topology", "star", "--blocks", 5, "--track-right-factor")
        assert code == 0
        lhat, _ = read_matrix(out / "right_factor.hpd")
        sigmas = read_floats(out / "sigmas.txt")
        assert lhat.shape == (300, sigmas.size)
        assert run_cli("run", synthetic_file, "--out", tmp_path / "rf2", "--eps-star", 0.05,
                       "--topology", "star", "--blocks", 5, "--track-right-factor",
                       "--workers", 2) == 0
        assert (tmp_path / "rf2" / "right_factor.hpd").read_bytes() == (out / "right_factor.hpd").read_bytes()
        assert np.max(np.abs(lhat.T @ lhat - np.eye(sigmas.size))) <= 1e-8
        snaps, _ = read_matrix(synthetic_file)
        modes, _ = read_matrix(out / "modes.hpd")
        resid = snaps - (modes * sigmas[None, :]) @ lhat.T
        bound = float(read_kv(out / "summary.txt")["apriori_error_bound"])
        total_sq = float(np.sum(snaps * snaps))
        assert float(np.sum(resid * resid)) <= bound * bound + 1e-8 * max(total_sq, 1.0)

    def test_refuses_nonempty_outdir(self, synthetic_file, tmp_path, capsys):
        out = tmp_path / "res"
        args = ("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                "--topology", "star", "--blocks", 4)
        assert run_cli(*args) == 0
        assert run_cli(*args) == 1
        assert "--force" in capsys.readouterr().err
        assert run_cli(*args, "--force") == 0

    def test_identical_invocations_are_byte_identical(self, synthetic_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                           "--topology", "balanced", "--blocks", 9,
                           "--workers", 2) == 0
            outs.append(out)
        a, b = outs
        assert (a / "sigmas.txt").read_bytes() == (b / "sigmas.txt").read_bytes()
        assert (a / "modes.hpd").read_bytes() == (b / "modes.hpd").read_bytes()

    def test_records_do_not_depend_on_workers(self, tmp_path):
        # a truncating chain, whose leaves run ahead of the merges on a second
        # worker: only the worker count and the timings may differ
        snaps = tmp_path / "chain.hpd"
        assert run_cli("gen", "synthetic", "--rows", 200, "--cols", 2000, "--decay-rate", 0.03,
                       "-o", snaps) == 0
        timings = ("workers=", "critical_path_time=", "total_node_time=", "wall_time=")
        records = set()
        for i, workers in enumerate((1, 2, 1, 2)):
            out = tmp_path / f"run{i}"
            assert run_cli("run", snaps, "--out", out, "--eps-star", 1e-3, "--topology", "chain",
                           "--block-size", 100, "--workers", workers) == 0
            summary = tuple(ln for ln in (out / "summary.txt").read_text().splitlines()
                            if not ln.startswith(timings))
            rows = [ln.split("\t") for ln in (out / "report.tsv").read_text().splitlines()]
            wall = rows[0].index("wall_time")
            records.add((summary, tuple(tuple(r[:wall] + r[wall + 1:]) for r in rows)))
        assert len(records) == 1

    def test_mean_error_does_not_depend_on_workers(self, tmp_path):
        # 40000 x 60 is 19.2 MB: the mean error runs over five row panels
        path = tmp_path / "tall.hpd"
        write_matrix(path, synthetic_decay(40000, 60, 0.1, 3).values)
        lines = []
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            assert run_cli("run", path, "--out", out, "--eps-star", 0.01, "--topology", "star",
                           "--block-size", 20, "--workers", workers) == 0
            lines.append([ln for ln in (out / "summary.txt").read_text().splitlines()
                          if ln.startswith("mean_error=")])
        assert len(lines[0]) == 1
        assert lines[0] == lines[1]

    def test_node_linalg_error_exits_numeric(self, synthetic_file, tmp_path, monkeypatch, capsys):
        import hapod.parallel

        real = hapod.parallel.evaluate_node

        def breakdown(tree, maps, node, *rest):
            if node == 2:
                raise np.linalg.LinAlgError("eigensolver did not converge")
            return real(tree, maps, node, *rest)

        monkeypatch.setattr(hapod.parallel, "evaluate_node", breakdown)
        code = run_cli("run", synthetic_file, "--out", tmp_path / "fail", "--eps-star", 0.01,
                       "--topology", "star", "--blocks", 4, "--workers", 2)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_gramian_exits_numerics(self, tmp_path, capsys):
        # finite entries whose squares overflow: a numerical failure, caught
        # before any solver sees the infinite Gramian
        path = tmp_path / "huge.hpd"
        write_matrix(path, 1e160 * np.random.default_rng(3).standard_normal((30, 40)))
        out = tmp_path / "huge"
        code = run_cli("run", path, "--out", out, "--eps-star", 0.01,
                       "--topology", "star", "--blocks", 2)
        assert code == 3
        err = capsys.readouterr().err
        assert "Gramian" in err
        assert "Traceback" not in err
        assert not (out / "modes.hpd").exists()

    def test_overflowing_energy_exits_numerics_on_svd(self, tmp_path, capsys):
        # the SVD itself would return, but its sigmas square to infinity
        path = tmp_path / "huge.hpd"
        write_matrix(path, 1e160 * np.random.default_rng(3).standard_normal((30, 40)))
        out = tmp_path / "huge"
        code = run_cli("run", path, "--out", out, "--eps-star", 0.01,
                       "--topology", "star", "--blocks", 2, "--backend", "svd")
        assert code == 3
        err = capsys.readouterr().err
        assert "overflows" in err
        assert "Traceback" not in err
        assert not (out / "modes.hpd").exists()

    @pytest.mark.parametrize("backend", ["gram", "svd"])
    def test_missed_target_is_not_claimed(self, tmp_path, capsys, backend):
        # at this scale the absolute target lies far below the rounding
        # floor u * ||S||^2 / m, so no basis can meet it
        path = tmp_path / "big.hpd"
        write_matrix(path, 1e150 * np.random.default_rng(3).standard_normal((30, 40)))
        out = tmp_path / "big"
        code = run_cli("run", path, "--out", out, "--eps-star", 0.01,
                       "--topology", "star", "--blocks", 2, "--backend", backend)
        assert code == 3
        said = capsys.readouterr()
        assert "<= target" not in said.out
        assert "> target 0.0001 (rounding floor u*||S||^2/m = " in said.out
        assert "Traceback" not in said.err
        summary = read_kv(out / "summary.txt")
        assert float(summary["mean_error"]) > 1e-4
        # the outputs stay for verify, which names the miss
        assert run_cli("verify", out, path) == 2
        assert "check mean-error: FAIL" in capsys.readouterr().out

    def test_truncated_input_exits_usage(self, synthetic_file, tmp_path, capsys):
        raw = synthetic_file.read_bytes()
        synthetic_file.write_bytes(raw[:-8])
        code = run_cli("run", synthetic_file, "--out", tmp_path / "t", "--eps-star", 0.01,
                       "--topology", "star", "--blocks", 4)
        assert code == 1
        err = capsys.readouterr().err
        assert "payload holds" in err
        assert "Traceback" not in err

    def test_peak_memory_below_half_the_input(self, tmp_path):
        # no worker needs the whole snapshot matrix, so neither does the run
        path = tmp_path / "big.hpd"
        data = synthetic_decay(2000, 4000, 0.1, 0)
        write_matrix(path, data.values)
        payload = data.values.nbytes
        del data
        tracemalloc.start()
        try:
            code = run_cli("run", path, "--out", tmp_path / "big", "--eps-star", 0.01,
                           "--topology", "star", "--block-size", 200, "--workers", 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < payload / 2

    def test_usage_errors(self, synthetic_file, tmp_path, capsys):
        out = tmp_path / "u"
        base = ("run", synthetic_file, "--out", out, "--eps-star", 0.01)
        assert run_cli(*base, "--topology", "ring", "--blocks", 3) == 1
        assert run_cli(*base, "--topology", "star") == 1
        assert run_cli(*base, "--topology", "star", "--blocks", 3,
                       "--block-size", 10) == 1
        assert run_cli(*base, "--topology", "star", "--block-size", 0) == 1
        assert run_cli(*base, "--topology", "balanced", "--blocks", 0) == 1
        assert run_cli(*base, "--topology", "balanced:x", "--blocks", 3) == 1
        empty = tmp_path / "empty.hpd"
        write_matrix(empty, np.zeros((4, 0)))
        assert run_cli("run", empty, "--out", out, "--eps-star", 0.01, "--topology", "star",
                       "--blocks", 1) == 1
        err = capsys.readouterr().err
        assert "bad topology depth suffix in 'balanced:x'" in err
        assert "empty.hpd: no snapshot columns" in err
        assert "Traceback" not in err
        assert run_cli("run", tmp_path / "missing.hpd", "--out", out,
                       "--eps-star", 0.01, "--topology", "star", "--blocks", 2) == 1
        assert run_cli("frobnicate") == 1
        capsys.readouterr()


    @pytest.mark.parametrize("omega", [0.0, -0.5, 1.5, "nan"])
    def test_omega_outside_unit_interval_exits_before_the_run(self, synthetic_file, tmp_path,
                                                             capsys, omega):
        out = tmp_path / "o"
        assert run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01, "--omega", omega,
                       "--topology", "star", "--blocks", 2) == 1
        err = capsys.readouterr().err
        assert "--omega" in err
        assert "Traceback" not in err
        assert not (out / "modes.hpd").exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_exit_before_the_set_up(self, synthetic_file, tmp_path, capsys,
                                                      workers):
        out = tmp_path / "o"
        assert run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                       "--workers", workers, "--topology", "star", "--blocks", 2) == 1
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_balanced_run_with_passthrough_leaves_verifies(self, tmp_path, capsys):
        # rows scaled down to exp(-4.7): the 60 x 20 leaves keep all their
        # columns at a tolerance of about 0.15, the root truncates
        path = tmp_path / "rows.hpd"
        rows = np.exp(-0.08 * np.arange(60))[:, None]
        write_matrix(path, rows * np.random.default_rng(17).standard_normal((60, 240)))
        out = tmp_path / "res"
        assert run_cli("run", path, "--out", out, "--eps-star", 0.05, "--topology", "balanced",
                       "--block-size", 20, "--workers", 2) == 0
        rows = [ln.split("\t") for ln in (out / "report.tsv").read_text().splitlines()]
        header = rows[0]
        leaves = [dict(zip(header, r)) for r in rows[1:] if r[header.index("is_leaf")] == "1"]
        assert len(leaves) == 12
        assert all(r["output_mode_count"] == r["input_count"] == "20" for r in leaves)
        assert int(read_kv(out / "summary.txt")["mode_count"]) < 60
        assert run_cli("verify", out, path) == 0
        assert "verification passed" in capsys.readouterr().out


class TestVerify:
    @pytest.fixture
    def finished_run(self, synthetic_file, tmp_path):
        out = tmp_path / "res"
        assert run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                       "--topology", "balanced", "--block-size", 30) == 0
        return out, synthetic_file

    def test_passes_on_honest_run(self, finished_run, capsys):
        out, snaps = finished_run
        assert run_cli("verify", out, snaps) == 0
        text = capsys.readouterr().out
        for name in ("sigmas-file", "modes-orthonormal", "mean-error",
                     "root-mode-bound", "node-mode-bounds"):
            assert f"check {name}: PASS" in text
        assert "verification passed" in text

    def test_corrupted_sigmas_fail(self, finished_run, capsys):
        out, snaps = finished_run
        sigmas = read_floats(out / "sigmas.txt")
        with open(out / "sigmas.txt", "w") as fh:
            for v in sigmas[::-1]:
                fh.write(f"{float(v)!r}\n")
        assert run_cli("verify", out, snaps) == 2
        assert "check sigmas-file: FAIL" in capsys.readouterr().out

    def test_corrupted_modes_fail(self, finished_run, capsys):
        out, snaps = finished_run
        values, w = read_matrix(out / "modes.hpd")
        values[:, 0] *= 2.0
        from hapod.io import write_matrix
        write_matrix(out / "modes.hpd", values, w)
        assert run_cli("verify", out, snaps) == 2
        assert "check modes-orthonormal: FAIL" in capsys.readouterr().out

    def test_nonfinite_modes_fail_cleanly(self, finished_run, capsys):
        out, snaps = finished_run
        values, w = read_matrix(out / "modes.hpd")
        values[0, 0] = np.nan
        from hapod.io import write_matrix
        write_matrix(out / "modes.hpd", values, w)
        assert run_cli("verify", out, snaps) == 2
        assert "check modes-orthonormal: FAIL" in capsys.readouterr().out

    def test_missing_results_file(self, finished_run, capsys):
        out, snaps = finished_run
        (out / "report.tsv").unlink()
        assert run_cli("verify", out, snaps) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("name, corrupt", [
        ("summary.txt", lambda text: "".join(ln for ln in text.splitlines(True)
                                             if not ln.startswith("eps_star="))),
        ("report.tsv", lambda text: "".join("\t".join(ln.rstrip("\n").split("\t")[:-2]) + "\n"
                                            for ln in text.splitlines(True))),
        ("tree.txt", lambda text: "0\n"),
    ], ids=["summary-without-eps-star", "report-without-columns", "tree-missing-nodes"])
    def test_malformed_results_exit_usage(self, finished_run, capsys, name, corrupt):
        out, snaps = finished_run
        path = out / name
        path.write_text(corrupt(path.read_text()))
        assert run_cli("verify", out, snaps) == 1
        err = capsys.readouterr().err
        assert name in err
        assert "Traceback" not in err

    def test_short_report_row_exits_usage(self, finished_run, capsys):
        out, snaps = finished_run
        path = out / "report.tsv"
        lines = path.read_text().splitlines(True)
        lines[2] = lines[2].split("\t")[0] + "\n"
        path.write_text("".join(lines))
        assert run_cli("verify", out, snaps) == 1
        err = capsys.readouterr().err
        assert "report.tsv" in err and "line 3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("take", [lambda s: np.hstack([s, s]), lambda s: s[:, :150]],
                             ids=["doubled", "first-half"])
    def test_mismatched_input_exits_usage(self, synthetic_file, tmp_path, capsys, take):
        out = tmp_path / "res"
        assert run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01,
                       "--topology", "chain", "--block-size", 30) == 0
        values = take(read_matrix(synthetic_file)[0])
        other = tmp_path / "other.hpd"
        write_matrix(other, values)
        assert run_cli("verify", out, other) == 1
        err = capsys.readouterr().err
        assert "report.tsv" in err and "300 columns" in err and f"has {values.shape[1]}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", ["leaves-and-root-only", "duplicated-row"])
    def test_report_needs_one_row_per_node(self, tmp_path, capsys, edit):
        snaps = tmp_path / "snaps.hpd"
        assert run_cli("gen", "synthetic", "--rows", 60, "--cols", 300,
                       "--decay-rate", 0.05, "-o", snaps) == 0
        out = tmp_path / "res"
        assert run_cli("run", snaps, "--out", out, "--eps-star", 0.01,
                       "--topology", "chain", "--block-size", 30) == 0
        path = out / "report.tsv"
        lines = path.read_text().splitlines(True)
        rows = [ln.split("\t") for ln in lines[1:]]  # node, level, is_leaf, ...
        merge = min(int(r[0]) for r in rows if r[2] == "0" and r[1] != "0")
        if edit == "leaves-and-root-only":
            lines = lines[:1] + [ln for ln, r in zip(lines[1:], rows) if r[2] == "1" or r[1] == "0"]
            want = f"0 rows for node {merge} "
        else:
            lines += [ln for ln, r in zip(lines[1:], rows) if r[0] == str(merge)]
            want = f"2 rows for node {merge} "
        path.write_text("".join(lines))
        assert run_cli("verify", out, snaps) == 1
        err = capsys.readouterr().err
        assert "report.tsv" in err and want in err
        assert "Traceback" not in err

    def test_leaf_without_a_range_exits_usage(self, finished_run, capsys):
        out, snaps = finished_run
        path = out / "report.tsv"
        lines = path.read_text().splitlines(True)
        leaf = next(i for i, ln in enumerate(lines) if ln.split("\t")[2] == "1")
        lines[leaf] = "\t".join(lines[leaf].split("\t")[:-2] + ["", ""]) + "\n"
        path.write_text("".join(lines))
        assert run_cli("verify", out, snaps) == 1
        err = capsys.readouterr().err
        assert "report.tsv" in err and f"leaf {lines[leaf].split()[0]}" in err
        assert "Traceback" not in err

    def test_leaf_range_out_of_place_exits_usage(self, finished_run, capsys):
        # a range of the right width that does not start where the leaves
        # before it end
        out, snaps = finished_run
        path = out / "report.tsv"
        leaf = [ln.split("\t")[0] for ln in path.read_text().splitlines()[1:] if ln.split("\t")[2] == "1"][1]
        edit_report(path, leaf, col_start=lambda r: int(r["col_start"]) + 1,
                    col_end=lambda r: int(r["col_end"]) + 1)
        assert run_cli("verify", out, snaps) == 1
        err = capsys.readouterr().err
        assert f"report.tsv: leaf {leaf} starts at column 31, but the leaves before it end at column 30" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("omega", "nan"), ("omega", "5.0"), ("omega", "0.0"),
                                            ("eps_star", "-0.01"), ("eps_star", "abc")])
    def test_malformed_summary_exits_usage(self, finished_run, capsys, key, value):
        out, snaps = finished_run
        path = out / "summary.txt"
        path.write_text("".join(f"{key}={value}\n" if ln.startswith(f"{key}=") else ln
                                for ln in path.read_text().splitlines(True)))
        assert run_cli("verify", out, snaps) == 1
        err = capsys.readouterr().err
        assert "summary.txt" in err
        assert "Traceback" not in err

    def test_peak_memory_about_one_copy_of_the_input(self, tmp_path):
        # every node's flat POD reads a slice of the mapped input; only the
        # root's dense SVD copies all of it
        path = tmp_path / "chain.hpd"
        data = synthetic_decay(200, 1000, 0.1, 0)
        write_matrix(path, data.values)
        payload = data.values.nbytes
        del data
        out = tmp_path / "res"
        assert run_cli("run", path, "--out", out, "--eps-star", 0.01,
                       "--topology", "chain", "--block-size", 100) == 0
        tracemalloc.start()
        try:
            code = run_cli("verify", out, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1.5 * payload

    def test_cap_refuses_large_dense_check(self, finished_run, capsys):
        out, snaps = finished_run
        assert run_cli("verify", out, snaps, "--cap", 100) == 1
        assert "cap" in capsys.readouterr().err

    def test_cap_refuses_a_loaded_csv(self, finished_run, tmp_path, capsys):
        # a .csv has no header to read the size from, so it is refused once loaded
        out, snaps = finished_run
        csv = tmp_path / "snaps.csv"
        np.savetxt(csv, read_matrix(snaps)[0], delimiter=",")
        assert run_cli("verify", out, csv, "--cap", 100) == 1
        assert "12000 entries exceed the cap of 100" in capsys.readouterr().err

    def test_inflated_target_fails_the_root_bound(self, finished_run, capsys):
        out, snaps = finished_run
        path = out / "summary.txt"
        path.write_text("".join(f"eps_star={10 * float(ln.partition('=')[2])!r}\n"
                                if ln.startswith("eps_star=") else ln
                                for ln in path.read_text().splitlines(True)))
        assert run_cli("verify", out, snaps) == 2
        assert "check root-mode-bound: FAIL" in capsys.readouterr().out

    def test_root_row_must_match_the_modes(self, finished_run, capsys):
        out, snaps = finished_run
        kept = read_matrix_header(out / "modes.hpd")[1]
        edit_report(out / "report.tsv", 0, output_mode_count=3)
        assert run_cli("verify", out, snaps) == 2
        assert f"check root-mode-bound: FAIL ({kept} modes, 3 in report.tsv, vs flat-POD count" \
            in capsys.readouterr().out

    def test_leaf_above_its_flat_count_fails(self, finished_run, capsys):
        out, snaps = finished_run
        lines = (out / "report.tsv").read_text().splitlines()[1:]
        leaf = next(ln.split("\t")[0] for ln in lines if ln.split("\t")[2] == "1")
        # no flat POD keeps more modes than it has columns
        edit_report(out / "report.tsv", leaf, output_mode_count=lambda r: int(r["input_count"]) + 1)
        assert run_cli("verify", out, snaps) == 2
        assert f"check node-mode-bounds: FAIL (node {leaf}: " in capsys.readouterr().out

    def test_modes_with_other_weights_fail(self, finished_run, capsys):
        out, snaps = finished_run
        values, _ = read_matrix(out / "modes.hpd")
        write_matrix(out / "modes.hpd", values, np.full(values.shape[0], 2.0))
        assert run_cli("verify", out, snaps) == 2
        assert "check weights: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("stated", [None, 0.0], ids=["report-epsilon", "report-epsilon-zero"])
    def test_every_node_is_checked_at_the_rules_tolerance(self, tmp_path, capsys, stated):
        # the report's local_epsilon is not the tolerance verify checks
        snaps = tmp_path / "snaps.hpd"
        assert run_cli("gen", "synthetic", "--rows", 80, "--cols", 300,
                       "--decay-rate", 0.05, "-o", snaps) == 0
        out = tmp_path / "res"
        assert run_cli("run", snaps, "--out", out, "--eps-star", 0.01,
                       "--topology", "balanced", "--block-size", 30) == 0
        fields = {"output_mode_count": lambda r: r["input_count"]}
        if stated is not None:
            fields["local_epsilon"] = stated
        edit_report(out / "report.tsv", 1, **fields)
        capsys.readouterr()
        assert run_cli("verify", out, snaps) == 2
        text = capsys.readouterr().out
        assert "check node-mode-bounds: FAIL (node 1: 119 modes exceed flat-POD count" in text

    def test_passthrough_nodes_verify_at_omega_one(self, synthetic_file, tmp_path, capsys):
        # at omega = 1 every node below the root has tolerance 0 and keeps
        # all of its columns, as a flat POD at 0 does
        out = tmp_path / "res"
        assert run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.01, "--omega", 1.0,
                       "--topology", "chain", "--block-size", 60) == 0
        assert run_cli("verify", out, synthetic_file) == 0
        assert "check node-mode-bounds: PASS" in capsys.readouterr().out


class TestBench:
    def test_table_smoke(self, tmp_path):
        out = tmp_path / "bench.tsv"
        code = run_cli("bench", "--rows", 30, "--sizes", "90,180",
                       "--block-size", 45, "--topologies", "balanced,star",
                       "--eps-star", 0.01, "-o", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["size", "topology", "depth", "block", "seq_time",
                                        "critical_path_time", "mode_count", "max_node_input_cols"]
        # per size: one flat-pod row plus one per topology
        assert len(lines) == 1 + 2 * 3
        rows = [dict(zip(lines[0].split("\t"), ln.split("\t"))) for ln in lines[1:]]
        assert {r["topology"] for r in rows} == {"pod", "balanced", "star"}
        # flat POD takes the whole input in one node
        assert all(r["max_node_input_cols"] == r["size"] for r in rows if r["topology"] == "pod")

    def test_one_block_chain(self, tmp_path):
        # a block size of at least the size makes a one-node chain
        out = tmp_path / "bench.tsv"
        assert run_cli("bench", "--rows", 30, "--sizes", 60, "--block-size", 80,
                       "--topologies", "chain", "--eps-star", 0.01, "-o", out) == 0
        rows = [ln.split("\t") for ln in out.read_text().strip().splitlines()[1:]]
        assert [(r[1], r[2], r[-1]) for r in rows] == [("pod", "1", "60"), ("chain", "1", "60")]

    def test_zero_omega_exits_usage(self, capsys):
        # as for run: a root tolerance of 0 would hand back the raw columns
        assert run_cli("bench", "--sizes", 50, "--block-size", 10, "--topologies", "chain",
                       "--omega", 0) == 1
        err = capsys.readouterr().err
        assert "--omega" in err
        assert "Traceback" not in err

    def test_no_sizes_exits_usage(self, capsys):
        assert run_cli("bench", "--sizes", ",") == 1
        assert "error: no sizes given" in capsys.readouterr().err

    def test_zero_block_size_exits_usage(self, capsys):
        assert run_cli("bench", "--rows", 30, "--sizes", "90", "--block-size", 0) == 1
        err = capsys.readouterr().err
        assert "block-size" in err
        assert "Traceback" not in err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hapod", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "verify" in proc.stdout


def test_burgers_compression_script():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "burgers_compression.py"), "--steps", "3000",
         "--grid", "60", "--block-size", "100", "--omega", "0.5", "0.9", "--workers", "2"],
        capture_output=True, text=True, cwd=root, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "2 sparks" in lines[0]
    direct = lines[1].split()
    assert direct[:4] == ["direct", "POD:", "3", "modes,"]
    errors = [float(direct[direct.index("err/target^2") + 1].rstrip(","))]
    start = next(i for i, ln in enumerate(lines) if ln.split()[:1] == ["omega"]) + 1
    table = [ln.split() for ln in lines[start:start + 2]]
    assert [row[0] for row in table] == ["0.500", "0.900"]
    # omega, then mode count, peak, err and time for the chain and the tree
    errors += [float(row[i]) for row in table for i in (3, 7)]
    assert all(e <= 1.0 for e in errors)
