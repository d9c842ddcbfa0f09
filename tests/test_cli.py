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

    def test_track_right_factor_output(self, synthetic_file, tmp_path):
        out = tmp_path / "rf"
        code = run_cli("run", synthetic_file, "--out", out, "--eps-star", 0.05,
                       "--topology", "star", "--blocks", 5, "--track-right-factor")
        assert code == 0
        lhat, _ = read_matrix(out / "right_factor.hpd")
        sigmas = read_floats(out / "sigmas.txt")
        assert lhat.shape == (300, sigmas.size)

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

    def test_mean_error_does_not_depend_on_workers(self, tmp_path):
        # 40000 rows put 26 columns in a mean-error batch: three batches
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        assert "Traceback" not in capsys.readouterr().err
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

    def test_cap_refuses_large_dense_check(self, finished_run, capsys):
        out, snaps = finished_run
        assert run_cli("verify", out, snaps, "--cap", 100) == 1
        assert "cap" in capsys.readouterr().err


class TestBench:
    def test_table_smoke(self, tmp_path):
        out = tmp_path / "bench.tsv"
        code = run_cli("bench", "--rows", 30, "--sizes", "90,180",
                       "--block-size", 45, "--topologies", "balanced,star",
                       "--eps-star", 0.01, "-o", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split("\t")[0] == "size"
        # per size: one flat-pod row plus one per topology
        assert len(lines) == 1 + 2 * 3
        kinds = {ln.split("\t")[1] for ln in lines[1:]}
        assert kinds == {"pod", "balanced", "star"}

    def test_zero_omega_exits_usage(self, capsys):
        # as for run: a root tolerance of 0 would hand back the raw columns
        assert run_cli("bench", "--sizes", 50, "--block-size", 10, "--topologies", "chain",
                       "--omega", 0) == 1
        err = capsys.readouterr().err
        assert "--omega" in err
        assert "Traceback" not in err

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
