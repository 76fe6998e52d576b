"""Smoke tests: the example scripts run against the current API."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args):
    env = {k: v for k, v in os.environ.items() if k != "HRNR_ANGLES"}
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_radius_convergence_script():
    proc = run_script("radius_convergence.py", "4")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4  # header and n = 2, 3, 4


def test_shift_gallery_script(tmp_path):
    proc = run_script("shift_gallery.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert len(svgs) == 6
    assert all((tmp_path / name).read_text().lstrip().startswith("<svg") for name in svgs)


def test_replay_engine_script(tmp_path):
    dump = str(tmp_path / "replay.npz")
    proc = run_script("replay_engine.py", dump, "--limit", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("4 sweeps, 8 calls")
    proc = run_script("replay_engine.py", "--compare", dump, dump)
    assert proc.returncode == 0, proc.stderr
    # two shifts, a complex and a real Gaussian, all at n = 2
    assert "complex T byte-identical: 1/1 sweeps, 2/2 calls" in proc.stdout
    assert "real T byte-identical: 3/3 sweeps, 6/6 calls" in proc.stdout
    assert "radii byte-identical: 4/4" in proc.stdout  # each of a fresh sweep
    assert "tag changes: 0" in proc.stdout
    # distances are taken between the regions in sweep units, over the
    # sweep's unit bound, both dumped with each call
    assert "worst hausdorff / bound, in sweep units: 0.000e+00" in proc.stdout
    dumped = np.load(dump)
    assert dumped["call_unit_bound"].size == dumped["call_unit_vstart"].size - 1 == 8
    assert dumped["unit_vertices"].size == dumped["call_unit_vstart"][-1]
    # how many planes reached the deque scan, per side
    assert "calls the old run did not scan, byte-identical:" in proc.stdout
    assert "calls neither run scanned, graded sweeps aside, byte-identical:" in proc.stdout
    assert proc.stdout.count(" over m/16") == 2
    # and how many the emptiness check tested, per side: none of these
    # chains, which the rounds certify, but the Hermitian segments after them
    assert "old emptiness checks: 0 calls, 0 planes, 0 at most" in proc.stdout
    proc = run_script("replay_engine.py", dump, "--limit", "6")
    assert proc.returncode == 0, proc.stderr
    proc = run_script("replay_engine.py", "--compare", dump, dump)
    assert proc.returncode == 0, proc.stderr
    assert "new scans: 2 calls," in proc.stdout
    assert "new emptiness checks: 2 calls," in proc.stdout


def test_replay_battery_holds_translated_graded_cases():
    # the replay's last cases are graded T plus a scalar, each taking the
    # graded path with its diagonal as the translation (in sweep units, at
    # unit size); jordan-far's lambda lies 1e8..1e12 times S_n's norm from 0
    from hrnr.linalg import unit_scale
    from hrnr.ranges import pencil_sweep

    kinds = ("jordan", "jordan-far", "graded-scalar")
    cases = [case for case in load_script("replay_engine.py").battery() if case[0] in kinds]
    assert [case[0] for case in cases] == [kind for kind in kinds for _ in range(8)]
    for kind, n, m, t in cases:
        d = t[0, 0]
        sweep = pencil_sweep(t, m)
        assert sweep.kind == "disc" and sweep.centre == unit_scale(t)[0][0, 0], (kind, n)
        far = abs(d) / np.linalg.norm(t - d * np.eye(n), 2)
        assert (1e7 < far < 1e13) == (kind == "jordan-far"), (kind, n)


def test_direct_sum_cases_solve_one_pencil_per_block(monkeypatch):
    # the replay's direct-sum stratum and bench_grid's direct-sum cells are
    # disc sweeps: each solves one pencil per block with an off-diagonal
    # entry, of that block's size, never an n x n pencil
    from hrnr import ranges
    from hrnr.ranges import pencil_sweep

    replay = load_script("replay_engine.py")
    cases = [case for case in replay.battery() if case[0] == "direct-sum"]
    assert [(n, np.isrealobj(t)) for _, n, _, t in cases] == [
        (n, real) for _ in range(2) for n in (5, 8, 12) for real in (False, True)]
    cases.append(("direct-sum", 8, 720, load_script("bench_grid.py").matrix("direct-sum", 8)))
    shapes = []
    solve = ranges.eig_hermitian_stack
    monkeypatch.setattr(ranges, "eig_hermitian_stack",
                        lambda stack: shapes.append(stack.shape[:2]) or solve(stack))
    for i, (_, n, m, t) in enumerate(cases):
        shapes.clear()
        sweep = pencil_sweep(t, m)
        sweep.eigenvalues
        sweep.numerical_radius()
        assert sweep.kind == "disc" and sweep.centre is None, i
        jordan = i < 6 or i == 12
        want = replay.SUM_BLOCKS[n] if jordan else (n - n // 2,)
        assert sorted(shapes) == sorted((1, p) for p in want), i


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                  os.path.join(SCRIPTS, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_grid_script():
    bench_grid = load_script("bench_grid.py")
    a, b = (bench_grid.run_cell("normal-diag", 5, 65536, repeat=1) for _ in range(2))
    cell = bench_grid.best_of(a, b)
    assert (cell["kind"], cell["n"], cell["m"]) == ("normal-diag", 5, 65536)
    assert set(cell["range_ms"]) == set(cell["samples_ms"]) == set(cell["tags"]) == {"1", "2", "3"}
    assert cell["samples_ms"]["1"] == min(a["samples_ms"]["1"], b["samples_ms"]["1"]) > 0
    assert cell["planes"] <= 4 * 5 * 4 + 16  # the diagonal's tie planes
    assert cell["source"] == "disc"
    assert 0 < cell["sweep_ms"] == min(a["sweep_ms"], b["sweep_ms"])
    assert min(cell["frame_ms"], cell["cli_ms"]) > 0
    # CPU time beside the ranks' and the CLI's wall times, and each rank's
    # minor page faults, merged as the fewest
    assert set(cell["cpu_ms"]) == {"1", "2", "3", "cli"} and set(cell["minflt"]) == {"1", "2", "3"}
    for k in ("1", "2", "3", "cli"):
        assert cell["cpu_ms"][k] == min(a["cpu_ms"][k], b["cpu_ms"][k]) > 0
    for k in ("1", "2", "3"):
        assert cell["minflt"][k] == min(a["minflt"][k], b["minflt"][k]) >= 0
        assert isinstance(cell["minflt"][k], int)
    assert 0 < cell["json_ms"] == min(a["json_ms"], b["json_ms"])
    assert 0 < cell["npz_ms"] == min(a["npz_ms"], b["npz_ms"])
    assert 0 < cell["radius_ms"] == min(a["radius_ms"], b["radius_ms"])
    assert {"numpy", "cpus", "repeat", "rounds"} <= set(bench_grid.header("smoke"))
    # the child process a grid run starts for each cell
    shift = bench_grid.child("shift", 4, 720, bench_grid.ROOT / "src")
    assert shift["planes"] == shift["frame_ms"] == 0  # graded ranks build no frame
    assert shift["source"] == "disc"
    assert shift["tags"] == {"1": "polygon", "2": "polygon", "3": "empty"}  # k <= (n + 1)/2
    # the real Gaussian cells, which time the pencils a real T solves
    assert [c for c in bench_grid.cells() if c[0] == "gauss-real"] == [
        ("gauss-real", 8, 720), ("gauss-real", 8, 2048)]
    # the large-n Gaussian cells, whose batch sweeps solve 256 KB of pencils at a time
    assert [c for c in bench_grid.cells() if c[0] == "gauss" and c[1] >= 32] == [
        ("gauss", 32, 720), ("gauss", 32, 2048), ("gauss", 64, 720)]
    t = bench_grid.matrix("gauss-real", 8)
    assert not np.iscomplexobj(t) and np.isclose(np.linalg.norm(t, 2), 1.0)
    real = bench_grid.run_cell("gauss-real", 8, 720, repeat=1)
    assert real["planes"] == 720 and set(real["tags"]) == {"1", "2", "3"}
    assert real["sweep_ms"] > 0 and real["source"] == "batch"
    # the Jordan cells, lambda I + S_n: graded plus a scalar, so no frame
    assert [c for c in bench_grid.cells() if c[0] == "jordan"] == [
        ("jordan", 4, 720), ("jordan", 4, 2048), ("jordan", 8, 720), ("jordan", 8, 2048)]
    t = bench_grid.matrix("jordan", 4)
    assert t[0, 0] and (np.diagonal(t) == t[0, 0]).all()
    assert np.isclose(np.linalg.norm(t, 2), 1.0)
    jordan = bench_grid.run_cell("jordan", 4, 720, repeat=1)
    assert jordan["planes"] == jordan["frame_ms"] == 0 and jordan["source"] == "disc"
    assert jordan["tags"] == {"1": "polygon", "2": "polygon", "3": "empty"}
    # the direct-sum cells, ROADMAP.md's Jordan sum J: three blocks about
    # distinct eigenvalues, whose discs hand the geometry every plane
    assert [c for c in bench_grid.cells() if c[0] == "direct-sum"] == [
        ("direct-sum", 8, 720), ("direct-sum", 8, 2048)]
    t = bench_grid.matrix("direct-sum", 8)
    assert np.isclose(np.linalg.norm(t, 2), 1.0)
    assert (np.diagonal(t) == np.repeat(np.diagonal(t)[[0, 3, 6]], (3, 3, 2))).all()


def test_bench_grid_interleaves_two_trees(tmp_path, monkeypatch):
    # one invocation times a parent and a change tree cell by cell, in an
    # order that alternates from round to round, and writes both files
    bench_grid = load_script("bench_grid.py")
    parent = tmp_path / "parent" / "src"
    shutil.copytree(bench_grid.ROOT / "src", parent,
                    ignore=shutil.ignore_patterns("__pycache__"))
    change = str(bench_grid.ROOT / "src")
    grid = [("shift", 4, 720), ("herm", 4, 720)]
    runs = []

    def spy(kind, n, m, src):
        rec = child(kind, n, m, src)
        runs.append(((kind, n, m), src, rec))
        return rec

    child = bench_grid.child
    monkeypatch.setattr(bench_grid, "child", spy)
    monkeypatch.setattr(bench_grid, "cells", lambda: grid)
    monkeypatch.setattr(bench_grid, "ROUNDS", 2)
    assert bench_grid.main(["old", "new", "--src", str(parent), "--src", change,
                            "--out-dir", str(tmp_path)]) == 0
    a, b = str(parent), change
    assert [(cell, src) for cell, src, _ in runs] == [
        (grid[0], a), (grid[0], b), (grid[1], a), (grid[1], b),
        (grid[0], b), (grid[0], a), (grid[1], b), (grid[1], a)]
    for label, src in (("old", a), ("new", b)):
        result = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert result["label"] == label and result["rounds"] == bench_grid.ROUNDS
        for cell, rec in zip(grid, result["cells"]):
            assert (rec["kind"], rec["n"], rec["m"]) == cell
            mine = [r for c, s, r in runs if (c, s) == (cell, src)]
            assert rec["cli_ms"] == min(r["cli_ms"] for r in mine)
            assert rec["cpu_ms"]["cli"] == min(r["cpu_ms"]["cli"] for r in mine)
            assert rec["minflt"]["1"] == min(r["minflt"]["1"] for r in mine)
    # a label without its own source tree is a usage error
    with pytest.raises(SystemExit):
        bench_grid.main(["old", "new", "--src", change])


def test_code_lines_script(tmp_path):
    # a docstring, a comment and a blank line are not code lines
    (tmp_path / "mod.py").write_text('"""A module.\n\nIts docstring."""\n# a comment\n\n'
                                     'x = 1\ndef f():\n    return x\n')
    assert load_script("code_lines.py").code_lines((tmp_path / "mod.py").read_text()) == 3
    proc = run_script("code_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "mod.py", "3", "total"]
