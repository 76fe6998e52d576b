import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hrnr import checks, cli, fileio
from hrnr.cli import main
from hrnr.geometry import CLIP_EPS, ConvexRegion, regular_polygon
from hrnr.ranges import _row_tol, pencil_sweep, range_from_sweep
from hrnr.shifts import shift_matrix, shift_radius

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_matrix(tmp_path, name, t):
    path = tmp_path / name
    path.write_text(fileio.dumps_json(fileio.matrix_to_obj(np.asarray(t, dtype=complex))),
                    encoding="utf-8")
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



@pytest.mark.parametrize("text, message", [
    ('{"dim": true, "data": [[[1, 0]]]}', "bad dimension True"),
    ('{"dim": 1, "data": [[[true, false]]]}', "entry (0,0) is not an [re, im] pair"),
    ('{"dim": 1, "data": [[[1' + 400 * '0' + ', 0]]]}', "entry (0,0) overflows a float"),
], ids=["dim", "entry", "huge-int"])
def test_range_boolean_matrix_file_exits_2(tmp_path, capsys, text, message):
    # JSON booleans are Python ints; neither is a dimension or an entry.  An
    # int too large for a float is malformed input too
    bad = tmp_path / "bool.json"
    bad.write_text(text)
    assert main(["range", "--input", str(bad), "--k", "1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"dim": 2}', "matrix file needs 'dim' and 'data' keys"),
    ('{"dim": 2, "data": [[[1, 0], [0, 0]]]}', "expected 2 rows"),
    ('{"dim": 1, "data": [[[NaN, 0]]]}', "matrix entries must be finite"),
    ('{"dim": 1, "data": [[[0, -Infinity]]]}', "matrix entries must be finite"),
], ids=["keys", "rows", "nan", "infinity"])
def test_range_malformed_matrix_file_message_exits_2(tmp_path, capsys, text, message):
    # json reads NaN and Infinity as floats, which no matrix entry may be
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["range", "--input", str(bad), "--k", "1"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("t", [np.diag([1e308]), np.full((2, 2), 1e308) + 1e308j * np.eye(2)],
                         ids=["diagonal", "2x2"])
@pytest.mark.parametrize("command", [["radius"], ["range", "--k", "1"],
                                     ["verify-properties", "--k", "1"]])
def test_overflowing_pencils_exit_2(tmp_path, capsys, t, command):
    # finite entries whose pencils overflow: no inf or nan result, one message
    path = write_matrix(tmp_path, "huge.json", t)
    assert main([*command, "--input", path]) == 2
    assert capsys.readouterr().err == "error: the pencils overflow: matrix entries too large\n"


@pytest.mark.parametrize("s", [1e200, 1e-200])
def test_verify_properties_at_far_scales_exits_0(tmp_path, capsys, s):
    # the Hermitian and normality tests square the entries, which at 1e+-200
    # overflowed or underflowed and passed a Gaussian as Hermitian, whose
    # oracle then failed: "HERMITIAN FAIL" and exit 1 on a correct input
    path = write_matrix(tmp_path, "far.json", s * checks.random_matrix(4, checks.generator(5)))
    assert main(["verify-properties", "--k", "1", "--input", path]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == ["P1", "P2", "P3", "P4", "P5", "P6"]


# one (matrix, k) per region tag
TAG_CASES = {
    "polygon": (shift_matrix(4), 1),
    "segment": (np.diag([0.0, 1.0, 2.0, 3.0]), 1),
    "point": (np.diag([0.0, 1.0, 2.0]), 2),
    "empty": (shift_matrix(4), 3),
}


def lines(text):
    # compared line by line, so a failure reports the first differing line
    # instead of diffing two long texts
    return text.splitlines(keepends=True)


def as_lists(obj):
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in obj.items()}


def test_region_json_roundtrip_byte_identical(tmp_path, shift4):
    out = tmp_path / "region.json"
    main(["range", "--input", shift4, "--k", "1", "--angles", "64", "--out", str(out)])
    text = out.read_text()
    assert fileio.dumps_json(json.loads(text)) == text
    # every tag, at 2048 angles and at scales whose floats print with exponents
    for tag, (t, k) in TAG_CASES.items():
        for scale in (1e-8, 1.0, 1e8):
            obj = fileio.region_to_obj(range_from_sweep(pencil_sweep(scale * t, 2048), k))
            assert obj["tag"] == tag
            text = fileio.dumps_json(obj)
            want = json.dumps(as_lists(obj), indent=2) + "\n"
            assert lines(text) == lines(want), (tag, scale)
            assert lines(fileio.dumps_json(json.loads(text))) == lines(text), (tag, scale)
    # hand-made arrays: exponent and signed-zero reprs, an empty array, and
    # non-finite values, which keep json's NaN / Infinity spelling
    obj = {"tag": "polygon", "k": 1, "angles": 16, "outer_error_bound": 1e-05,
           "vertices": np.array([[-0.0, 1e-05], [2.5e-310, -1e300], [0.1, 3.0]]),
           "support_samples": np.zeros((0, 2)), "extra": np.array([[np.nan, -np.inf]])}
    assert fileio.dumps_json(obj) == json.dumps(as_lists(obj), indent=2) + "\n"
    assert '"vertices": [\n    [\n      -0.0,\n      1e-05\n    ],' in fileio.dumps_json(obj)


@pytest.mark.parametrize("m", [16, 17, 720, 721, 2048, 8192])
def test_region_json_grid_text_byte_identical(m):
    # support_samples' first column is the m-angle grid, written from the
    # cached template: the same bytes as json.dumps of the nested lists.
    # (Odd grids miss the segment case's normal, so its tag is "polygon".)
    before = fileio._grid_text.cache_info()
    for tag, (t, k) in TAG_CASES.items():
        for scale in (1e-8, 1.0, 1e8):
            obj = fileio.region_to_obj(range_from_sweep(pencil_sweep(scale * t, m), k))
            assert isinstance(obj["vertices"], np.ndarray)
            assert isinstance(obj["support_samples"], np.ndarray)
            want = json.dumps(as_lists(obj), indent=2) + "\n"
            assert lines(fileio.dumps_json(obj)) == lines(want), (tag, scale)
    after = fileio._grid_text.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == 3 * len(TAG_CASES)
    # first columns off the grid by theta_0 = -0.0 or by one ulp take the
    # plain path, and their text still matches
    grid = 2.0 * np.pi * np.arange(m) / m
    for j, theta in ((0, -0.0), (m // 3, np.nextafter(grid[m // 3], 4.0))):
        column = grid.copy()
        column[j] = theta
        obj = {"tag": "polygon", "support_samples": np.column_stack([column, np.cos(column)])}
        assert fileio.dumps_json(obj) == json.dumps(as_lists(obj), indent=2) + "\n"
    assert fileio._grid_text.cache_info()[:2] == after[:2]


@pytest.mark.parametrize("m", [16, 17, 720, 2048])
def test_region_json_constant_columns_byte_identical(m):
    # a grid array whose offsets are one float, bit for bit, takes one repr
    # for every slot; a column of -0.0, a column mixing 0.0 and -0.0 (equal
    # values, not equal bits) and an off-grid first column keep json's text
    grid = 2.0 * np.pi * np.arange(m) / m
    graded = range_from_sweep(pencil_sweep(shift_matrix(5), m), 1).support_samples
    assert (graded[:, 1] == graded[0, 1]).all() and graded[0, 1] > 0
    mixed = np.zeros(m)
    mixed[::3] = -0.0
    off = grid.copy()
    off[m // 2] = np.nextafter(off[m // 2], 0.0)
    for samples in (graded, np.column_stack([grid, np.full(m, -0.0)]),
                    np.column_stack([grid, mixed]), np.column_stack([grid, np.full(m, 1e-300)]),
                    np.column_stack([off, np.full(m, 0.25)])):
        obj = {"tag": "polygon", "support_samples": samples}
        assert lines(fileio.dumps_json(obj)) == lines(json.dumps(as_lists(obj), indent=2) + "\n")


def test_range_npz_holds_the_json_members_bit_for_bit(tmp_path):
    # --out *.npz writes region_to_obj's members; every one loads without
    # pickle and equals the JSON file's value, floats compared as bits
    for tag, (t, k) in TAG_CASES.items():
        path = write_matrix(tmp_path, f"{tag}.json", t)
        argv = ["range", "--input", path, "--k", str(k), "--angles", "720", "--out"]
        assert main(argv + [str(tmp_path / "r.json")]) == 0
        assert main(argv + [str(tmp_path / "r.npz")]) == 0
        want = json.loads((tmp_path / "r.json").read_text())
        with np.load(tmp_path / "r.npz", allow_pickle=False) as got:
            assert sorted(got.files) == sorted(want)
            assert got["tag"].dtype.kind == "U" and got["tag"].shape == ()
            assert str(got["tag"]) == want["tag"] == tag
            for key in ("k", "angles"):
                assert got[key].dtype == np.int64 and got[key].shape == ()
                assert int(got[key]) == want[key]
            bound = got["outer_error_bound"]
            assert bound.dtype == np.float64 and bound.shape == ()
            assert bound.view(np.uint64) == np.float64(want["outer_error_bound"]).view(np.uint64)
            for key in ("vertices", "support_samples"):
                assert got[key].dtype == np.float64
                assert np.array_equal(got[key].view(np.uint64),
                                      np.array(want[key], dtype=float).reshape(-1, 2).view(np.uint64))
            assert got["support_samples"].shape == (720, 2)


def test_unwritable_npz_output_exits_2(tmp_path, shift4, capsys):
    target = tmp_path / "missing" / "region.npz"
    assert main(["range", "--input", shift4, "--k", "1", "--angles", "64",
                 "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err


def svg_reference(region, ref_radius=None):
    """The per-vertex region_svg that the array version replaced."""
    size = fileio.SVG_SIZE
    half = size / 2.0

    def to_px(z):
        return (half + half * z.real / world, half - half * z.imag / world)

    moduli = [abs(z) for z in region.vertices]
    if ref_radius:
        moduli.append(abs(ref_radius))
    world = 1.2 * max(moduli + [0.1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{size/2}" x2="{size}" y2="{size/2}" '
        'stroke="#999" stroke-width="1"/>',
        f'<line x1="{size/2}" y1="0" x2="{size/2}" y2="{size}" '
        'stroke="#999" stroke-width="1"/>',
    ]
    for tick in (-1.0, 1.0):
        if abs(tick) <= world:
            x, y = to_px(complex(tick, 0.0))
            parts.append(f'<line x1="{x:.2f}" y1="{size/2-4}" x2="{x:.2f}" '
                         f'y2="{size/2+4}" stroke="#999" stroke-width="1"/>')
            x, y = to_px(complex(0.0, tick))
            parts.append(f'<line x1="{size/2-4}" y1="{y:.2f}" '
                         f'x2="{size/2+4}" y2="{y:.2f}" stroke="#999" stroke-width="1"/>')
    if ref_radius:
        cx, cy = to_px(0j)
        r_px = abs(ref_radius) / world * (size / 2.0)
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r_px:.3f}" fill="none" '
                     'stroke="#c00" stroke-width="1.5" stroke-dasharray="6 4"/>')
    if region.kind == "polygon":
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(to_px, region.vertices))
        parts.append(f'<polygon points="{pts}" fill="#4a90d9" fill-opacity="0.15" '
                     'stroke="#1a5296" stroke-width="1.5"/>')
    elif region.kind == "segment":
        (x1, y1), (x2, y2) = map(to_px, region.vertices)
        parts.append(f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                     'stroke="#1a5296" stroke-width="2"/>')
    elif region.kind == "point":
        x, y = to_px(region.vertices[0])
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="#1a5296"/>')
    else:
        parts.append(f'<text x="{size/2-30}" y="{size/2-10}" '
                     'fill="#666" font-size="16">empty</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("tag", list(TAG_CASES))
def test_region_svg_matches_per_vertex_reference(tag):
    t, k = TAG_CASES[tag]
    for scale in (1e-8, 1.0, 1e8):
        region = range_from_sweep(pencil_sweep(scale * t, 2048), k).region
        assert region.kind == tag
        for ref_radius in (None, 0.5 * scale, 0.5):
            got = fileio.region_svg(region, ref_radius)
            assert lines(got) == lines(svg_reference(region, ref_radius)), (scale, ref_radius)
    # signed zeros and tiny coordinates next to a unit vertex
    region = ConvexRegion.polygon([-0.0 + 1e-05j, 1.0 - 0.0j, 0.5 + 1.0j])
    assert fileio.region_svg(region, 0.5) == svg_reference(region, 0.5)


def test_region_svg_of_a_2048_gon_matches_the_reference():
    # the polygon's points come from one "%.3f,%.3f" template
    region = regular_polygon(2048, 0.3, 1.0)
    assert region.kind == "polygon" and len(region.vertices) == 2048
    for ref_radius in (None, 0.5):
        got = fileio.region_svg(region, ref_radius)
        assert lines(got) == lines(svg_reference(region, ref_radius))


def test_readme_pipeline(tmp_path, monkeypatch):
    # the Command line example of the README, run as written
    monkeypatch.chdir(tmp_path)
    assert main(["shift", "--n", "5", "--out", "s5.json"]) == 0
    assert main(["range", "--input", "s5.json", "--k", "2", "--angles", "2048",
                 "--out", "region.json", "--svg", "region.svg", "--ref-radius", "0.5"]) == 0
    text = (tmp_path / "region.json").read_text()
    obj = json.loads(text)
    assert obj["tag"] == "polygon" and len(obj["support_samples"]) == 2048
    radius = max(abs(complex(re, im)) for re, im in obj["vertices"])
    # the certified bracket of a centred disc (tests/test_ranges.py): S_5 has
    # norm 1, so its rows, and the geometry's bound, are at most 2
    want, tol = shift_radius(5, 2), _row_tol(5, 1.0)
    outer = obj["outer_error_bound"] + CLIP_EPS * 2.0
    assert want - tol <= radius <= want + outer + tol
    assert lines(fileio.dumps_json(obj)) == lines(text)
    assert "stroke-dasharray" in (tmp_path / "region.svg").read_text()


def test_range_svg(tmp_path, shift4):
    svg = tmp_path / "plot.svg"
    code = main(["range", "--input", shift4, "--k", "1", "--angles", "256",
                 "--svg", str(svg), "--ref-radius", str(np.cos(np.pi / 5))])
    assert code == 0
    body = svg.read_text()
    assert "<polygon" in body and "stroke-dasharray" in body


@pytest.mark.parametrize("command, flag", [
    ("shift", "--out"), ("range", "--out"), ("range", "--svg")])
def test_unwritable_output_exits_2(tmp_path, shift4, capsys, command, flag):
    target = tmp_path / "missing" / "out"
    argv = (["shift", "--n", "3"] if command == "shift"
            else ["range", "--input", shift4, "--k", "1", "--angles", "64"])
    assert main(argv + [flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_range_non_finite_ref_radius_exits_2(tmp_path, shift4, capsys, value):
    svg = tmp_path / "plot.svg"
    # the = form, or argparse reads "-inf" as an option
    code = main(["range", "--input", shift4, "--k", "1", "--angles", "64",
                 "--svg", str(svg), f"--ref-radius={value}"])
    assert code == 2
    assert "--ref-radius must be finite" in capsys.readouterr().err
    assert not svg.exists()


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

    def per_entry(t):
        n = t.shape[0]
        data = [[[float(t[i, j].real), float(t[i, j].imag)] for j in range(n)]
                for i in range(n)]
        return json.dumps({"dim": n, "data": data}, indent=2) + "\n"

    # the same bytes as building the file one entry at a time
    for n in range(1, 17):
        assert main(["shift", "--n", str(n), "--out", str(out)]) == 0
        assert out.read_bytes() == per_entry(shift_matrix(n)).encode("utf-8"), n
    for scale in (1e-8, 1.0, 1e8):
        t = scale * checks.random_matrix(5, checks.generator(3))
        assert fileio.dumps_json(fileio.matrix_to_obj(t)) == per_entry(t), scale


def test_verify_shift_small(capsys):
    assert main(["verify-shift", "--max-n", "5", "--angles", "2048"]) == 0
    assert "match the closed form" in capsys.readouterr().out


def test_verify_shift_coarse_grid_passes(capsys):
    # the circumscribed 720-gon of S_3's and S_4's discs reaches r sec(pi/720),
    # 9.5e-6 r out, which an absolute 5e-6 radius tolerance failed
    assert main(["verify-shift", "--max-n", "4", "--angles", "720"]) == 0


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


def failing_report(property_id, note=""):
    return checks.PropertyReport(property_id, False, 2.5e-3, 1e-9, "d41d8cd9", note)


def test_verify_shift_mismatches_exit_1(monkeypatch, capsys):
    # the CLI looks check_shift up at call time: a report that fails at
    # n = 3 is printed as a mismatch line, with its note
    calls = []

    def check_shift(n, m):
        calls.append((n, m))
        if n == 3:
            return failing_report("S_3 k=2", "closed form missed")
        return checks.PropertyReport(f"S_{n}", True, 0.0, 1e-9, "0", "")

    monkeypatch.setattr(checks, "check_shift", check_shift)
    assert main(["verify-shift", "--max-n", "4", "--angles", "720"]) == 1
    assert calls == [(2, 720), (3, 720), (4, 720)]
    assert capsys.readouterr().out == (
        "1 mismatches:\n"
        "  S_3 k=2   FAIL  discrepancy=2.500e-03  tolerance=1.000e-09  [d41d8cd9]"
        "  closed form missed\n")


def test_verify_nilpotent_violations_exit_1(monkeypatch, capsys):
    # a failing report from check_nilpotent on every trial: one line per
    # trial, the note-free report's line ending at its digest
    monkeypatch.setattr(checks, "check_nilpotent", lambda t, m: [
        checks.PropertyReport("dilation", True, 0.0, 1e-9, "0", "equality"),
        failing_report("disc")])
    code = main(["verify-nilpotent", "--n", "4", "--trials", "2", "--seed", "7",
                 "--angles", "512"])
    assert code == 1
    assert capsys.readouterr().out == (
        "2 violations (seed 7):\n"
        "  trial 0: disc      FAIL  discrepancy=2.500e-03  tolerance=1.000e-09  [d41d8cd9]\n"
        "  trial 1: disc      FAIL  discrepancy=2.500e-03  tolerance=1.000e-09  [d41d8cd9]\n")


def test_verify_nilpotent_usage_errors():
    assert main(["verify-nilpotent", "--trials", "0"]) == 2
    assert main(["verify-nilpotent", "--n", "4", "--r-hint", "9"]) == 2


def test_verify_nilpotent_dimension_1_exits_2(capsys):
    assert main(["verify-nilpotent", "--n", "1"]) == 2
    assert "error: --n must be >= 2, got 1" in capsys.readouterr().err


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


def test_verify_properties_upper_rank_of_a_near_point_passes(tmp_path, capsys):
    # rank 3 of diag(0, 1e-12, 2e-12, 1) is empty: its theta = 0 strip is
    # -1e-12 wide, and the Hermitian oracle's interval [2e-12, 1e-12] is empty
    path = write_matrix(tmp_path, "near.json", np.diag([0.0, 1e-12, 2e-12, 1.0]))
    code = main(["verify-properties", "--input", path, "--k", "3", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "HERMITIAN pass" in out


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


def test_verify_properties_on_a_normal_leaves_numpy_ma_unimported(tmp_path):
    # the NORMAL check's oracle and the hull dedupe without np.unique, whose
    # call without index outputs imports numpy.ma (numpy 2.4)
    rng = np.random.Generator(np.random.PCG64(3))
    q = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    t = q @ np.diag(rng.normal(size=5) + 1j * rng.normal(size=5)) @ q.conj().T
    path = write_matrix(tmp_path, "normal.json", t)
    script = ("import sys\nfrom hrnr.cli import main\n"
              "code = main(['verify-properties', '--input', sys.argv[1], '--k', '2'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, path], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=REPO_SRC))
    assert "NORMAL    pass" in proc.stdout, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout + proc.stderr


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
    # T at k = 2, reused by P6, and P6 at k = 1, 3; P1-P5 compare offset rows
    assert calls["range_from_sweep"] <= 3, calls


def test_verify_properties_large_hermitian_passes(tmp_path, capsys):
    # every tolerance is relative, so a Hermitian matrix of norm ~1e8 passes
    x = checks.random_matrix(3, checks.generator(0))
    path = write_matrix(tmp_path, "herm.json", 1e8 * (x + x.conj().T))
    code = main(["verify-properties", "--input", path, "--k", "1",
                 "--angles", "720", "--seed", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    assert [ln.split()[:2] for ln in lines] == [[pid, "pass"] for pid in
                                                ("P1", "P2", "P3", "P4", "P5", "P6",
                                                 "HERMITIAN")]


def test_verify_properties_normal_oracle_line(tmp_path, capsys):
    eigs = np.exp(2j * np.pi * np.arange(4) / 4)
    path = write_matrix(tmp_path, "normal.json", np.diag(eigs))
    code = main(["verify-properties", "--input", path, "--k", "1",
                 "--seed", "1", "--angles", "4096"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "NORMAL" in out


def test_verify_properties_normal_oracle_any_size(tmp_path, capsys):
    rng = checks.generator(12)
    eigs = rng.normal(size=12) + 1j * rng.normal(size=12)
    u = checks.random_unitary(12, rng)
    files = [write_matrix(tmp_path, "hidden12.json", u @ np.diag(eigs) @ u.conj().T),
             write_matrix(tmp_path, "one.json", [[0.3 - 2j]])]
    for path in files:
        code = main(["verify-properties", "--input", path, "--k", "1", "--seed", "1"])
        normal = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("NORMAL")]
        assert code == 0
        assert len(normal) == 1 and normal[0].split()[1] == "pass", normal


def test_verify_properties_default_angles(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HRNR_ANGLES", raising=False)
    eigs = np.exp(2j * np.pi * np.arange(4) / 4)
    path = write_matrix(tmp_path, "normal.json", np.diag(eigs))
    code = main(["verify-properties", "--input", path, "--k", "1", "--seed", "1"])
    normal = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("NORMAL")]
    assert code == 0
    assert len(normal) == 1 and "m=720]" in normal[0]


def test_verify_properties_rank_0_exits_2(shift4, capsys):
    assert main(["verify-properties", "--input", shift4, "--k", "0"]) == 2
    assert "error: k must be in 1..4, got 0" in capsys.readouterr().err


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


def test_parser_is_built_once_and_keeps_no_state(tmp_path, shift4, monkeypatch, capsys):
    cli.build_parser.cache_clear()
    out, svg = tmp_path / "region.json", tmp_path / "region.svg"
    argv = ["range", "--input", shift4, "--k", "1", "--out", str(out)]
    monkeypatch.delenv("HRNR_ANGLES", raising=False)
    assert main([*argv, "--svg", str(svg)]) == 0
    assert svg.exists() and json.loads(out.read_text())["angles"] == 720
    svg.unlink()
    # no --svg and no angle flag: neither the last call's SVG path nor its
    # angle count carries over, and the environment is read again
    monkeypatch.setenv("HRNR_ANGLES", "96")
    assert main(argv) == 0
    assert not svg.exists() and json.loads(out.read_text())["angles"] == 96
    assert main(["radius", "--input", shift4]) == 0
    capsys.readouterr()
    # a usage error after successful calls still exits 2
    assert main(["range", "--input", shift4]) == 2
    assert "--k" in capsys.readouterr().err
    assert main(argv) == 0
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("command", [["radius"], ["range", "--k", "1"]])
def test_impossible_angle_count_exits_2(shift4, capsys, command):
    # a grid of 10^15 angles needs 7.11 PiB, which numpy refuses outright
    # without allocating anything
    assert main([*command, "--input", shift4, "--angles", "1000000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err


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
