"""Time the engine's stages over a fixed grid of matrices; write BENCH_<label>.json.

The grid: shift, Gaussian, Hermitian and hidden normal matrices at n in
{4, 8, 16} and m in {720, 2048} angles, plus the cells of the fine_grid
benchmark: its smooth ones (shifts at n = 4 and 8 and a Gaussian at n = 6,
all at m = 8192, and a Gaussian at n = 4 and m = 16384) and its faceted
and degenerate m = 65536 ones (normal diagonals at n = 5 and 6, a
Hermitian diagonal at n = 5), and a real Gaussian at n = 8 on 720 and
2048 angles (``gauss-real``: the real part of the Gaussian cell's draw),
which is neither graded nor normal and so solves as many pencils as a
complex one, and Jordan blocks lambda I + S_n at n = 4 and 8 on 720 and
2048 angles (``jordan``, lambda a complex normal draw), a graded T plus a
scalar, whose sweep solves one pencil, Gaussians at n = 32 on 720 and
2048 angles and at n = 64 on 720, the large-n batch sweeps, and
ROADMAP.md's Jordan direct sum J = ((1 + 0.5i) I + S_3) (+)
(-0.7i I + S_3) (+) (0.4 I + S_2) at n = 8 on 720 and 2048 angles
(``direct-sum``), whose sweep solves one pencil per block, of size 3, 3
and 2, where a batch would solve m/2 of size 8.  Every
matrix has spectral norm 1 and is drawn from a fixed seed.  Each cell
runs in a child process of its own, so that its peak RSS is its own, with
one BLAS thread unless the environment sets another count.  The grid runs
``ROUNDS`` times, each cell in a fresh child every round, and every time
kept is the best over all rounds: on a shared host the speed of small
Python calls drifts by up to 2x over seconds to minutes, which
best-of-repeat within one child cannot see.  A cell times, best of
``REPEAT`` in each round:

  sweep_ms    ``pencil_sweep(T, m)``; a batch sweep (T neither graded nor
              normal) solves its pencils when their rows are read, so
              its solve falls in range_ms
  radius_ms   ``numerical_radius()`` on a second, fresh sweep: what
              ``hrnr radius`` reads after the sweep
  frame_ms    ``PencilSweep.frame`` on that fresh sweep; 0 for discs
              about one centre (a shift's), whose ranks read no frame
  range_ms    ``range_from_sweep(sweep, k)`` for k = 1..min(n, 3), frame built
  samples_ms  the first read of each of those reports' ``support_samples``,
              which a sweep that forms its rows on demand forms then
  json_ms     ``fileio.dumps_json(fileio.region_to_obj(report))`` for the
              k = 1 report: the region file's text, which ``hrnr range``
              writes
  npz_ms      ``np.savez`` of the same members to a file: the ``.npz``
              region file, which ``hrnr range --out *.npz`` writes
  cli_ms      ``hrnr range --k 1 --angles m`` through ``cli.main``, file
              load and region file included

with ``cpu_ms`` beside range_ms and cli_ms, keyed by rank and ``cli``:
the same spans in CPU time of the child (``time.process_time``), best of
all repeats too, which a busy host's waits for a CPU do not enter.  ``minflt`` holds each rank's minor
page faults (``ru_minflt`` of ``getrusage(RUSAGE_SELF)`` around its
``range_from_sweep``), the fewest over all repeats.  A cell records each
rank's tag, the planes the frame holds (0 for discs
about one centre), the sweep's row source (``disc`` or ``batch``: the
sweep's ``kind``; ``graded`` and ``spectrum`` in older trees) and the
peak RSS.
The file also holds the numpy and Python versions, the CPU count and,
with ``--tier1``, the wall time of the Tier-1 suite of the tree that
``--src`` belongs to.

Several labels, each with its own ``--src`` (in the same order), time
several trees in one invocation, such as a parent and a change: every
round runs each cell for all trees back to back, in the given order in
even rounds and reversed in odd ones, so that the host's drift falls on
all alike, and one BENCH_<label>.json is written per label.

Usage:
    python scripts/bench_grid.py LABEL [--src SRC_DIR] [--tier1] [--out-dir DIR]
    python scripts/bench_grid.py LABEL_A LABEL_B --src SRC_A --src SRC_B [--tier1]
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
KINDS = ("shift", "gauss", "herm", "normal")
SMOOTH_CELLS = (("shift", 4, 8192), ("shift", 8, 8192), ("gauss", 6, 8192),
                ("gauss", 4, 16384))
DIAGONAL_CELLS = (("normal-diag", 5, 65536), ("normal-diag", 6, 65536),
                  ("herm-diag", 5, 65536))
REAL_CELLS = (("gauss-real", 8, 720), ("gauss-real", 8, 2048))
JORDAN_CELLS = (("jordan", 4, 720), ("jordan", 4, 2048), ("jordan", 8, 720),
                ("jordan", 8, 2048))
LARGE_CELLS = (("gauss", 32, 720), ("gauss", 32, 2048), ("gauss", 64, 720))
SUM_CELLS = (("direct-sum", 8, 720), ("direct-sum", 8, 2048))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 1
REPEAT = ROUNDS = 5


def cells():
    """(kind, n, m) of every cell, in order."""
    grid = [(kind, n, m) for kind in KINDS for n in (4, 8, 16) for m in (720, 2048)]
    return (grid + list(SMOOTH_CELLS) + list(DIAGONAL_CELLS) + list(REAL_CELLS)
            + list(JORDAN_CELLS) + list(LARGE_CELLS) + list(SUM_CELLS))


def matrix(kind, n):
    """The cell's matrix at spectral norm 1, from its own seeded stream."""
    rng = np.random.default_rng([SEED, (*KINDS, "jordan", "direct").index(kind.split("-")[0]), n])
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "shift":
        t = np.eye(n, k=-1, dtype=complex)
    elif kind == "herm":
        t = g + g.conj().T
    elif kind == "normal":
        q = np.linalg.qr(g)[0]
        t = q @ np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)) @ q.conj().T
    elif kind == "normal-diag":
        t = np.diag(g[0])
    elif kind == "herm-diag":
        t = np.diag(g[0].real)
    elif kind == "gauss-real":
        t = g.real
    elif kind == "jordan":
        t = g[0, 0] * np.eye(n) + np.eye(n, k=-1)
    elif kind == "direct-sum":  # J, at n = 8: no entry joins two blocks
        t = np.diag(np.repeat([1 + 0.5j, -0.7j, 0.4], (3, 3, 2)))
        t += np.diag([1, 1, 0, 1, 1, 0, 1], -1)
    else:
        t = g
    return t / np.linalg.norm(t, 2)


def run_cell(kind, n, m, repeat=REPEAT):
    """Time one cell in this process and return its record."""
    from hrnr import cli, fileio
    from hrnr.ranges import pencil_sweep, range_from_sweep

    t = matrix(kind, n)
    ks = range(1, min(n, 3) + 1)
    best = {"sweep": np.inf, "radius": np.inf, "frame": np.inf, "json": np.inf, "npz": np.inf,
            "cli": np.inf, "cpu": np.inf, **{k: np.inf for k in ks},
            **{(part, k): np.inf for part in ("samples", "cpu", "minflt") for k in ks}}
    with tempfile.TemporaryDirectory() as work:
        path, out = os.path.join(work, "t.json"), os.path.join(work, "range.json")
        npz = os.path.join(work, "range.npz")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fileio.dumps_json(fileio.matrix_to_obj(t)))
        argv = ["range", "--input", path, "--k", "1", "--angles", str(m), "--out", out]
        for _ in range(repeat):
            start = time.perf_counter()
            sweep = pencil_sweep(t, m)
            mid = time.perf_counter()
            source = sweep.kind
            # discs about one centre, a graded sweep in older trees: their
            # ranks are regular m-gons, with no frame
            graded = getattr(sweep, "centre", None) is not None or source == "graded"
            planes = 0 if graded else sweep.frame.size
            best["sweep"] = min(best["sweep"], mid - start)
            best["frame"] = min(best["frame"], 0.0 if graded else time.perf_counter() - mid)
            fresh = pencil_sweep(t, m)
            start = time.perf_counter()
            fresh.numerical_radius()
            best["radius"] = min(best["radius"], time.perf_counter() - start)
            tags, reports = {}, {}
            for k in ks:
                faults, cpu = minor_faults(), time.process_time()
                start = time.perf_counter()
                reports[k] = report = range_from_sweep(sweep, k)
                mid = time.perf_counter()
                best["cpu", k] = min(best["cpu", k], time.process_time() - cpu)
                best["minflt", k] = min(best["minflt", k], minor_faults() - faults)
                report.support_samples
                best[k] = min(best[k], mid - start)
                best["samples", k] = min(best["samples", k], time.perf_counter() - mid)
                tags[k] = report.region.kind
            start = time.perf_counter()
            fileio.dumps_json(fileio.region_to_obj(reports[1]))
            best["json"] = min(best["json"], time.perf_counter() - start)
            start = time.perf_counter()
            np.savez(npz, **fileio.region_to_obj(reports[1]))
            best["npz"] = min(best["npz"], time.perf_counter() - start)
            cpu, start = time.process_time(), time.perf_counter()
            if cli.main(argv) != 0:
                raise RuntimeError(f"hrnr {' '.join(argv)} failed")
            best["cli"] = min(best["cli"], time.perf_counter() - start)
            best["cpu"] = min(best["cpu"], time.process_time() - cpu)
    ms = {key: round(1e3 * value, 3) for key, value in best.items()}
    return {"kind": kind, "n": n, "m": m, "sweep_ms": ms["sweep"], "radius_ms": ms["radius"],
            "frame_ms": ms["frame"],
            "range_ms": {str(k): ms[k] for k in ks},
            "samples_ms": {str(k): ms["samples", k] for k in ks}, "json_ms": ms["json"],
            "npz_ms": ms["npz"], "cli_ms": ms["cli"],
            "cpu_ms": {**{str(k): ms["cpu", k] for k in ks}, "cli": ms["cpu"]},
            "minflt": {str(k): int(best["minflt", k]) for k in ks},
            "tags": {str(k): tag for k, tag in tags.items()}, "planes": int(planes),
            "source": source,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def minor_faults():
    """The minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(kind, n, m, src):
    """Run one cell in a child process that imports hrnr from ``src``."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    cmd = [sys.executable, __file__, "--cell", f"{kind}:{n}:{m}", "--src", src]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def best_of(a, b):
    """Two records of one cell merged: the smaller of each time and fault
    count, the larger peak RSS."""
    out = dict(a)
    for key in ("sweep_ms", "radius_ms", "frame_ms", "json_ms", "npz_ms", "cli_ms"):
        out[key] = min(a[key], b[key])
    for key in ("range_ms", "samples_ms", "cpu_ms", "minflt"):
        out[key] = {k: min(v, b[key][k]) for k, v in a[key].items()}
    out["peak_rss_mb"] = max(a["peak_rss_mb"], b["peak_rss_mb"])
    return out


def header(label):
    """The fields of BENCH_<label>.json other than the cells."""
    return {"label": label, "seed": SEED, "repeat": REPEAT, "rounds": ROUNDS,
            "numpy": np.__version__, "python": platform.python_version(),
            "cpus": os.cpu_count()}


def tier1(src):
    """Wall seconds and summary line of the Tier-1 suite beside ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=pathlib.Path(src).parent,
                          capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    return round(time.perf_counter() - start, 1), lines[-1] if lines else ""


def run_grid(srcs, grid, rounds):
    """One list of records per source tree: each cell of ``grid`` best over
    ``rounds`` rounds, the trees' children back to back within a cell and
    their order reversed every other round."""
    records = [[None] * len(grid) for _ in srcs]
    order = list(enumerate(srcs))
    for r in range(rounds):
        for i, (kind, n, m) in enumerate(grid):
            for s, src in order if r % 2 == 0 else order[::-1]:
                rec = child(kind, n, m, src)
                records[s][i] = rec if records[s][i] is None else best_of(records[s][i], rec)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("labels", nargs="*", metavar="LABEL", help="write BENCH_<label>.json")
    parser.add_argument("--src", action="append",
                        help="source tree to import hrnr from, once per label "
                             "(default with one label: this repository's)")
    parser.add_argument("--tier1", action="store_true", help="also time the Tier-1 suite")
    parser.add_argument("--out-dir", default=str(ROOT))
    parser.add_argument("--cell", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    srcs = [str(pathlib.Path(src).resolve()) for src in args.src or [ROOT / "src"]]
    if args.cell:
        sys.path.insert(0, srcs[0])
        kind, n, m = args.cell.split(":")
        print(json.dumps(run_cell(kind, int(n), int(m))))
        return 0
    if not args.labels:
        parser.error("give a LABEL")
    if len(args.labels) != len(srcs):
        parser.error("give one --src per label (with one label, --src may be left out)")
    for label, src, records in zip(args.labels, srcs, run_grid(srcs, cells(), ROUNDS)):
        print(f"{label}:")
        for rec in records:
            print(f"{rec['kind']} n={rec['n']} m={rec['m']}: sweep {rec['sweep_ms']} ms, "
                  f"radius {rec['radius_ms']} ms, frame {rec['frame_ms']} ms, "
                  f"range {rec['range_ms']} ms, samples {rec['samples_ms']} ms, "
                  f"json {rec['json_ms']} ms, npz {rec['npz_ms']} ms, cli {rec['cli_ms']} ms, "
                  f"cpu {rec['cpu_ms']} ms, minflt {rec['minflt']}")
        result = header(label) | {"cells": records}
        if args.tier1:
            result["tier1_s"], result["tier1_summary"] = tier1(src)
        path = pathlib.Path(args.out_dir) / f"BENCH_{label}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
