import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hrnr import checks, cli, fileio
from hrnr.cli import main
from hrnr.shifts import shift_matrix

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_matrix(tmp_path, name, t):
    path = tmp_path / name
    fileio.save_matrix(path, np.asarray(t, dtype=complex))
    return str(path)


@pytest.fixture
def shift4(tmp_path):
    return write_matrix(tmp_path, "s4.json", shift_matrix(4))


def test_range_writes_expected_polygon(tmp_path, shift4):
    out = tmp_path / "region.json"
    code = main(["range", "--input", shift4, "--k", "2",
                 "--angles", "2048", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["tag"] == "polygon"
    assert obj["k"] == 2 and obj["angles"] == 2048
    mods = [abs(complex(re, im)) for re, im in obj["vertices"]]
    assert abs(max(mods) - 0.30901699437494745) < 5e-6
    assert len(obj["support_samples"]) == 2048


def test_range_point_for_scalar_zero(tmp_path):
    path = write_matrix(tmp_path, "zero.json", np.zeros((1, 1)))
    out = tmp_path / "region.json"
    code = main(["range", "--input", path, "--k", "1", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["tag"] == "point"
    assert abs(complex(*obj["vertices"][0])) < 1e-9


def test_range_bad_rank_exits_2(tmp_path, shift4, capsys):
    assert main(["range", "--input", shift4, "--k", "5"]) == 2
    assert "k must be" in capsys.readouterr().err


def test_range_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "data": [[1, 2], [3, 4]]}')
    assert main(["range", "--input", str(bad), "--k", "1"]) == 2
    missing = tmp_path / "nope.json"
    assert main(["range", "--input", str(missing), "--k", "1"]) == 2


def test_region_json_roundtrip_byte_identical(tmp_path, shift4):
    out = tmp_path / "region.json"
    main(["range", "--input", shift4, "--k", "1", "--angles", "64", "--out", str(out)])
    text = out.read_text()
    assert fileio.dumps_json(json.loads(text)) == text


def test_range_svg(tmp_path, shift4):
    svg = tmp_path / "plot.svg"
    code = main(["range", "--input", shift4, "--k", "1", "--angles", "256",
                 "--svg", str(svg), "--ref-radius", str(np.cos(np.pi / 5))])
    assert code == 0
    body = svg.read_text()
    assert "<polygon" in body and "stroke-dasharray" in body


def test_radius_command(tmp_path, capsys):
    path = write_matrix(tmp_path, "s6.json", shift_matrix(6))
    code = main(["radius", "--input", path, "--angles", "512"])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - np.cos(np.pi / 7)) < 5e-6


def test_shift_command_roundtrip(tmp_path):
    out = tmp_path / "s5.json"
    assert main(["shift", "--n", "5", "--out", str(out)]) == 0
    assert np.array_equal(fileio.load_matrix(out), shift_matrix(5))
    assert main(["shift", "--n", "0"]) == 2


def test_verify_shift_small(capsys):
    assert main(["verify-shift", "--max-n", "5", "--angles", "2048"]) == 0
    assert "match the closed form" in capsys.readouterr().out


def test_verify_shift_usage_error():
    assert main(["verify-shift", "--max-n", "1"]) == 2


def test_verify_nilpotent_small(capsys):
    code = main(["verify-nilpotent", "--n", "4", "--trials", "6",
                 "--seed", "7", "--angles", "512"])
    assert code == 0
    assert "6 trials" in capsys.readouterr().out


def test_verify_nilpotent_shift_generator_hits_equality(capsys):
    code = main(["verify-nilpotent", "--n", "5", "--r-hint", "1", "--trials", "1",
                 "--seed", "3", "--angles", "2048"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 radius-bound equalities" in out


def test_verify_nilpotent_coarse_grid_passes(capsys):
    # the disc bound is checked on the pencil offsets, which interlace
    # exactly; the circumscribed polygon overshoots it on coarse grids
    code = main(["verify-nilpotent", "--n", "4", "--r-hint", "1", "--trials", "2",
                 "--seed", "92", "--angles", "512"])
    assert code == 0, capsys.readouterr().out


def test_verify_nilpotent_large_shift_passes(capsys):
    # the nilpotency index of a hidden S_20 used to come out 18, so the
    # dilation, disc and Haagerup checks all tested the wrong n
    code = main(["verify-nilpotent", "--n", "20", "--r-hint", "1", "--trials", "1",
                 "--seed", "1"])
    assert code == 0, capsys.readouterr().out


def test_verify_nilpotent_usage_errors():
    assert main(["verify-nilpotent", "--trials", "0"]) == 2
    assert main(["verify-nilpotent", "--n", "4", "--r-hint", "9"]) == 2


def test_verify_properties_shift(tmp_path, capsys):
    path = write_matrix(tmp_path, "s5.json", shift_matrix(5))
    code = main(["verify-properties", "--input", path, "--k", "2",
                 "--seed", "0", "--angles", "256"])
    out = capsys.readouterr().out
    assert code == 0, out
    for pid in ("P1", "P2", "P3", "P4", "P5", "P6"):
        assert pid in out


def test_verify_properties_hermitian_oracle_line(tmp_path, capsys):
    path = write_matrix(tmp_path, "herm.json", np.diag([0.0, 1.0, 2.0, 3.0]))
    code = main(["verify-properties", "--input", path, "--k", "2",
                 "--seed", "1", "--angles", "256"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "HERMITIAN" in out


def test_verify_properties_tiny_non_hermitian_gets_no_hermitian_oracle(tmp_path, capsys):
    # 1e-14 S_3 is far from Hermitian relative to its own size
    path = write_matrix(tmp_path, "tiny.json", 1e-14 * shift_matrix(3))
    main(["verify-properties", "--input", path, "--k", "1", "--angles", "64"])
    assert "HERMITIAN" not in capsys.readouterr().out


def test_verify_properties_tiny_non_normal_gets_no_normal_oracle(tmp_path, capsys):
    # 1e-14 S_3 is far from normal relative to its own size
    path = write_matrix(tmp_path, "tiny.json", 1e-14 * shift_matrix(3))
    main(["verify-properties", "--input", path, "--k", "1", "--angles", "64"])
    assert "NORMAL" not in capsys.readouterr().out


def test_verify_properties_sweeps_each_input_once(tmp_path, monkeypatch, capsys):
    rng = np.random.Generator(np.random.PCG64(5))
    t = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    path = write_matrix(tmp_path, "gauss5.json", t / np.linalg.norm(t, 2))
    calls = {"pencil_sweep": 0, "range_from_sweep": 0}
    for name in calls:
        def counted(*args, _real=getattr(checks, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        # every binding a verify run could reach, so no call goes uncounted
        for module in (checks, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code = main(["verify-properties", "--input", path, "--k", "2",
                 "--seed", "3", "--angles", "256"])
    assert code == 0, capsys.readouterr().out
    # T, aT + bI, T*, T (+) T, U*TU and the compression: one sweep each
    assert calls["pencil_sweep"] <= 6, calls
    # T at k = 2, the five other matrices, and P6 at k = 1, 2, 3
    assert calls["range_from_sweep"] <= 9, calls


def test_verify_properties_normal_oracle_line(tmp_path, capsys):
    eigs = np.exp(2j * np.pi * np.arange(4) / 4)
    path = write_matrix(tmp_path, "normal.json", np.diag(eigs))
    code = main(["verify-properties", "--input", path, "--k", "1",
                 "--seed", "1", "--angles", "4096"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "NORMAL" in out


def test_verify_properties_default_angles(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HRNR_ANGLES", raising=False)
    eigs = np.exp(2j * np.pi * np.arange(4) / 4)
    path = write_matrix(tmp_path, "normal.json", np.diag(eigs))
    code = main(["verify-properties", "--input", path, "--k", "1", "--seed", "1"])
    normal = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("NORMAL")]
    assert code == 0
    assert len(normal) == 1 and "m=720]" in normal[0]


def test_verify_properties_non_square_exits_2(tmp_path, capsys):
    bad = tmp_path / "rect.json"
    bad.write_text('{"dim": 2, "data": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}')
    assert main(["verify-properties", "--input", str(bad)]) == 2


def test_env_var_overrides_default_angles(tmp_path, shift4, monkeypatch):
    out = tmp_path / "region.json"
    monkeypatch.setenv("HRNR_ANGLES", "128")
    assert main(["range", "--input", shift4, "--k", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["angles"] == 128
    # explicit flag wins over the environment
    assert main(["range", "--input", shift4, "--k", "1", "--angles", "64",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["angles"] == 64
    # a malformed or too small environment value is a usage error
    for bad in ("many", "4"):
        monkeypatch.setenv("HRNR_ANGLES", bad)
        assert main(["range", "--input", shift4, "--k", "1", "--out", str(out)]) == 2


def test_eigensolver_failure_exits_1(shift4, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(["range", "--input", shift4, "--k", "1", "--angles", "64"]) == 1
    assert "did not converge" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point(tmp_path):
    path = write_matrix(tmp_path, "s3.json", shift_matrix(3))
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "hrnr", "radius", "--input", path, "--angles", "64"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout.strip()) - np.cos(np.pi / 4)) < 5e-6
