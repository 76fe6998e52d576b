"""Benchmark for hrnr: one closed-loop client, in-process, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
of half the cycles twice, once untraced and once with every layer
boundary wrapped, and prints the per-layer metrics with the tracing
overhead.  ``--workload all`` runs each workload in its own process and
prints every metric by name and unit.  The last line of output is one
JSON object.  See perfbench/README.md for the metric map and why each
workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Whole cycles a run measures per second of --seconds.  The count is fixed,
# so every commit runs the same ops and its percentiles compare with the
# parent's.  At 30 s: interactive 4 cycles of about 7 s at the commit that
# added the benchmark, fine_grid 3 of 7.5 s and verify 3 of 8.5 s.
# Interactive also re-runs its failing ops on their unit-norm twins after
# the loop, so its runs take the longest in all.
CYCLES_PER_SECOND = {"interactive": 4 / 30, "fine_grid": 3 / 30, "verify": 3 / 30}
RUNAWAY_FACTOR = 2      # stop early once a run takes this many times --seconds
# Set-ups an untraced run times: one before the loop, the rest spread evenly
# between its ops.  A set-up takes 0.1-0.3 s, so many are cheap; the host
# runs small Python calls up to a third faster in phases that last from
# seconds to minutes, and set-ups spread over the whole run give a median
# that no phase shorter than the run decides.
SETUP_REPEATS = 15

# BLAS and OpenMP pools are sized before numpy is imported anywhere.  One
# thread (at most nproc): the ops make only small BLAS calls, between which
# a second OpenBLAS thread spins a core against the benchmark itself.
NPROC = len(os.sched_getaffinity(0))
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)
# an inherited angle count would change every op that passes no --angles
os.environ.pop("HRNR_ANGLES", None)

WORKLOAD_NAMES = ("interactive", "fine_grid", "verify")


class OpError(NamedTuple):
    """An op that raised instead of returning."""
    message: str


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git tree."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return head or "unknown"


def import_seconds() -> float:
    """Import hrnr afresh: its modules are dropped from sys.modules and
    imported again.  numpy stays loaded, so this is hrnr's own import, the
    part a change to hrnr can move; a fresh interpreter would add exec and
    page-cache costs that swing with the host's state."""
    for name in [m for m in sys.modules if m == "hrnr" or m.startswith("hrnr.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("hrnr.cli")
    return time.perf_counter() - t0


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by a Beta(q(n+1), (1-q)(n+1)) density.  Unlike a single order
    statistic it does not jump between two op kinds when the quantile
    falls in a gap of a mixed latency distribution."""
    import numpy as np
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    if a <= 1.0:
        pdf[0] = pdf[1]
    if b <= 1.0:
        pdf[-1] = pdf[-2]
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    weights = np.diff(cdf[::20]) / cdf[-1]
    return float(weights @ xs)


def tail(latencies):
    """The highest percentile with at least ten samples above it,
    q = (N - 10) / N, estimated by Harrell-Davis.  Below 11 samples it is
    the maximum."""
    n = len(latencies)
    if n < 11:
        return max(latencies), 100.0, n
    q = (n - 10) / n
    return harrell_davis(latencies, q), 100.0 * q, n


def timed(op, tracer=None, op_id=None):
    """One execution of ``op``: its latency and its collected output.  With
    a tracer, the wrappers are installed for this execution only."""
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        raw, failed = op.call(), None
    except Exception as exc:  # the loop must keep running; the op is counted failed
        raw, failed = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
        tracer.uninstall()
    if failed is None:
        try:
            return t1 - t0, op.collect(raw)
        except Exception as exc:  # a malformed output file fails the op
            failed = f"unreadable output: {type(exc).__name__}: {exc}"
    return t1 - t0, OpError(failed)


def measure(variants, seconds, after_op, tracer=None):
    """Run each variant's op cycle once, one after another.

    Whole cycles keep the op mix identical between runs.  Outputs are
    reduced to a digest per op so that each distinct output is checked
    once, after the loop.  ``after_op`` runs after every op, untimed.
    With a tracer every op runs twice back to back, untraced and traced,
    in an order that alternates from slot to slot and cycle to cycle, so
    that the host's drift falls on both alike.  Returns the untraced
    latencies, the traced ones and the outputs of both.
    """
    plain, traced, outputs = [], [], {}
    start = time.perf_counter()
    for cycle, ops in enumerate(variants):
        for slot, op in enumerate(ops):
            if tracer is None:
                order = (False,)
            else:
                order = (False, True) if (slot + cycle) % 2 else (True, False)
            for with_trace in order:
                if with_trace:
                    latency, result = timed(op, tracer, len(traced))
                    traced.append(latency)
                else:
                    latency, result = timed(op)
                    plain.append(latency)
                key = (id(op), hashlib.sha1(repr(result).encode()).hexdigest())
                entry = outputs.setdefault(key, [op, result, 0])
                entry[2] += 1
            after_op()
        if time.perf_counter() - start > RUNAWAY_FACTOR * seconds:
            break
    return plain, traced, outputs


def cycle_throughput(latencies, slots):
    """Ops per second of one cycle with every op at its median latency over
    the run's cycles, so a burst of contention on the host during one
    cycle does not move it."""
    return slots / sum(statistics.median(latencies[i::slots]) for i in range(slots))


def check(outputs):
    """Verdict for every op run.

    Returns the counts, the largest gap / tolerance among passing ops, and
    the failures.  A failure is the known scale defect only when it is a
    region or tolerance mismatch and the same command on the unit-norm
    input passes; any other failure is unexpected.
    """
    import refs
    attempted = failed = 0
    worst_ratio = 0.0
    failures, unexpected = [], []
    for op, result, count in outputs.values():
        attempted += count
        if isinstance(result, OpError):
            verdict = refs.broken(result.message)
        else:
            try:
                verdict = op.check(result)
            except Exception as exc:  # a check that cannot run fails the op
                verdict = refs.broken(f"check error {exc!r}")
        if verdict.ok:
            worst_ratio = max(worst_ratio, verdict.ratio)
            continue
        failed += count
        scale_defect = verdict.mismatch and op.unit_check is not None and twin_passes(op)
        failures.append({"op": op.name, "count": count, "reason": verdict.reason,
                         "known_scale_defect": scale_defect})
        if not scale_defect:
            unexpected.append(op.name)
    return attempted, failed, worst_ratio, failures, unexpected


def twin_passes(op):
    try:
        return op.unit_check().ok
    except Exception:  # a twin that cannot run explains nothing
        return False


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed, "git_commit": git_commit()}


def set_up(workload, seed, work, cycles):
    """Import, generate the inputs of ``cycles`` cycles, write the files and
    warm up; returns one op-cycle variant per cycle and the seconds taken."""
    import numpy as np
    import workloads
    imported = import_seconds()
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    variants = [workloads.WORKLOADS[workload](rng, work, v) for v in range(cycles)]
    workloads.warm_up(work)
    return variants, imported + time.perf_counter() - t0


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "hrnr", "__init__.py")):
        print(f"error: hrnr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cycles = max(1, round(args.seconds * CYCLES_PER_SECOND[args.workload]))
    if args.trace:
        # every op runs twice, so half the cycles take the same time
        cycles = max(1, cycles // 2)
    # A traced run sets up once: re-importing hrnr would drop the wrappers'
    # targets, and setup_s is not reported when tracing.
    variants, took = set_up(args.workload, args.seed, work, cycles)
    setup_times = [took]
    slots = len(variants[0])
    every = max(1, cycles * slots // (SETUP_REPEATS - 1))
    ticks = itertools.count(1)

    def after_op():
        if not args.trace and next(ticks) % every == 0:
            setup_times.append(set_up(args.workload, args.seed, work, cycles)[1])

    env = environment(args.seed)

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        plain, traced, outputs = measure(variants, args.seconds, after_op, tracer)
        tracer.dump(os.path.join(work, "spans.jsonl"))
        attempted, failed, _, failures, unexpected = check(outputs)
        layers = tracer.layer_metrics()
        # paired per-slot medians: ops_per_s traced over untraced, minus one
        layers["trace.overhead_share"] = (cycle_throughput(traced, slots)
                                          / cycle_throughput(plain, slots) - 1.0)
        metrics = spec_metrics(layers, "per_layer")
        detail = {"absent": tracer.absent}
    else:
        latencies, _, outputs = measure(variants, args.seconds, after_op)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, worst_ratio, failures, unexpected = check(outputs)
        tail_ms, tail_pct, n = tail(latencies)
        values = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": 1e3 * harrell_davis(latencies, 0.5),
            "op_tail_ms": 1e3 * tail_ms,
            "ops_per_s": cycle_throughput(latencies, slots),
            "pass_share": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = spec_metrics(values, "end_to_end")
        # a maximum over rounding-level gaps swings by orders of magnitude
        # between seeds, so it is reported here rather than bounded
        detail = {"op_tail": {"percentile": tail_pct, "samples": n},
                  "fail_share": failed / attempted, "ref_err_ratio": worst_ratio,
                  "cycle_ops": slots, "setup_runs": len(setup_times)}

    detail.update(workload=args.workload, trace=args.trace, environment=env,
                  failures=failures, unexpected_failures=unexpected)
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **detail}, fh, indent=2, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env['git_commit'][:12]} nproc={env['nproc']} threads={THREADS} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']}")
    if not args.trace:
        print(f"# op_tail_ms is p{detail['op_tail']['percentile']:.1f} of "
              f"{detail['op_tail']['samples']} ops; fail_share {detail['fail_share']:.4f} "
              f"({failed}/{attempted}); ref_err_ratio {worst_ratio:.3g} "
              f"(largest gap / tolerance among passing ops)")
    elif tracer.absent:
        print(f"# absent trace targets: {', '.join(tracer.absent)}")
    for f in failures:
        tag = "known scale defect" if f["known_scale_defect"] else "FAILURE"
        print(f"# {tag}: {f['op']} x{f['count']}: {f['reason']}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def spec_metrics(values, kind):
    """Values as {name: {value, unit}} in BENCHMARK.json order and units;
    a metric missing on either side is an error, not a silent gap."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[kind]
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_all(args):
    """Each workload in a child process, one after another."""
    summary = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
