"""Outside-in tracing of hrnr: wrap public functions at module boundaries.

``from .x import f`` copies the function object into the importing
module, so a call such as ``cli.range_from_sweep`` never goes through
``ranges.range_from_sweep``.  Each target is therefore replaced in every
loaded ``hrnr`` module namespace that binds the same object.  Spans
(name, start, end, parent, op id) are kept in memory and only recorded
while an op is open, so reference checks made between ops stay out of
the trace.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (home module, function name) -> span name.  Every public function of the
# checks, shifts and fileio modules is traced as well; see Tracer._targets.
CORE_TARGETS = {
    ("hrnr.linalg", "eig_hermitian_stack"): "linalg.eig",
    ("hrnr.ranges", "pencil_sweep"): "ranges.sweep",
    ("hrnr.ranges", "range_from_sweep"): "ranges.range",
    ("hrnr.geometry", "intersect_halfplanes"): "geometry.intersect",
    ("hrnr.geometry", "hausdorff"): "geometry.hausdorff",
    ("hrnr.cli", "main"): "cli.main",
}
ORACLES = {"normal_oracle", "hermitian_oracle", "normal_eigenvalues", "montecarlo_range"}
OUTPUT_TEXT = {"dumps_json", "region_svg"}
MODULE_LAYERS = ("hrnr.checks", "hrnr.shifts", "hrnr.fileio")


class Tracer:
    """Spans of the ops run between begin_op and end_op, and their
    per-layer summary."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id, attrs]
        self.stack = []
        self.op_id = None
        self.op_sweeps = set()
        self.installed = []      # (module, attribute, original)
        self.absent = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        targets = {}
        self.absent = []
        for (mod_name, fn), span in CORE_TARGETS.items():
            mod = sys.modules.get(mod_name)
            obj = getattr(mod, fn, None) if mod is not None else None
            if callable(obj):
                targets[id(obj)] = (obj, span)
            else:
                self.absent.append(f"{mod_name}.{fn}")
        for mod_name in MODULE_LAYERS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                self.absent.append(mod_name)
                continue
            layer = mod_name.split(".")[1]
            for fn, obj in vars(mod).items():
                if (fn.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod_name):
                    continue
                if layer == "checks" and fn in ORACLES:
                    span = "checks.oracle"
                elif layer == "fileio" and fn in OUTPUT_TEXT:
                    span = "fileio.text"
                else:
                    span = f"{layer}.call"
                targets.setdefault(id(obj), (obj, span))
        return targets

    def install(self):
        targets = self._targets()
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "hrnr" or mod_name.startswith("hrnr.")) or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, self._wrap(obj, hit[1]))
                    self.installed.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self.installed):
            setattr(mod, attr, obj)
        self.installed.clear()

    def _wrap(self, fn, span):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            record = [span, 0.0, 0.0, parent, tracer.op_id, None]
            tracer.spans.append(record)
            tracer.stack.append(idx)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            record[5] = tracer._attrs(span, args, result)
            return result

        return wrapper

    def _attrs(self, span, args, result):
        """Counts taken at the boundary, after the span's clock stopped."""
        if span == "linalg.eig":
            shape = np.shape(args[0])
            return {"batch": shape[0], "n": shape[-1]}
        if span == "ranges.sweep":
            t = np.ascontiguousarray(np.asarray(args[0], dtype=np.complex128))
            m = int(args[1])
            key = (hashlib.sha1(t.tobytes()).hexdigest(), t.shape, m)
            dup = key in self.op_sweeps
            self.op_sweeps.add(key)
            return {"angles": m, "dup": dup}
        if span == "geometry.intersect":
            planes = args[0]
            return {"planes": len(planes) if hasattr(planes, "__len__") else 0,
                    "vertices": int(result.vertices.size), "tag": result.kind}
        if span == "fileio.text":
            return {"bytes": len(result.encode("utf-8"))}
        return None

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self.op_sweeps = set()
        self.spans.append(["op", time.perf_counter(), 0.0, None, op_id, None])
        self.stack = [len(self.spans) - 1]

    def end_op(self):
        self.spans[self.stack[0]][2] = time.perf_counter()
        self.stack = []
        self.op_id = None

    # -- reporting ----------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")

    def layer_metrics(self):
        """Per-op means of counts and self times; shares are of op time."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        tot = defaultdict(float)
        ops = 0
        op_time = 0.0
        stack_mb = 0.0
        for i, (name, start, end, parent, _, attrs) in enumerate(self.spans):
            dur = end - start
            own = dur - child_time[i]
            if name == "op":
                ops += 1
                op_time += dur
                continue
            layer = name.split(".")[0]
            tot["attributed_s"] += own
            if name == "linalg.eig":
                tot["linalg.eig_calls"] += 1
                tot["linalg.eig_matrices"] += attrs["batch"]
                tot["linalg.eig_s"] += own
                stack_mb = max(stack_mb, attrs["batch"] * attrs["n"] ** 2 * 16 / 1e6)
            elif name == "ranges.sweep":
                tot["ranges.sweep_calls"] += 1
                tot["ranges.sweep_angles"] += attrs["angles"]
                tot["ranges.sweep_self_s"] += own
                tot["sweep_dups"] += attrs["dup"]
            elif name == "ranges.range":
                tot["ranges.range_calls"] += 1
                tot["ranges.range_self_s"] += own
            elif name == "geometry.intersect":
                tot["geometry.intersect_calls"] += 1
                tot["geometry.planes_in"] += attrs["planes"]
                tot["geometry.vertices_out"] += attrs["vertices"]
                split = "polygon" if attrs["tag"] == "polygon" else "degenerate"
                tot[f"geometry.intersect_s.{split}"] += own
            elif name == "geometry.hausdorff":
                tot["geometry.hausdorff_calls"] += 1
                tot["geometry.hausdorff_s"] += own
            elif name == "checks.oracle":
                tot["checks.calls"] += 1
                tot["checks.oracle_s"] += own
            elif name == "checks.call":
                tot["checks.calls"] += 1
                tot["checks.self_s"] += own
            elif layer == "shifts":
                tot["shifts.calls"] += 1
                tot["shifts.s"] += own
            elif layer == "fileio":
                tot["fileio.s"] += own
                if attrs:
                    tot["fileio.bytes_out"] += attrs["bytes"]
            elif name == "cli.main":
                tot["cli.self_s"] += own
        per_op = max(ops, 1)
        names = ["linalg.eig_calls", "linalg.eig_matrices", "linalg.eig_s",
                 "ranges.sweep_calls", "ranges.sweep_angles", "ranges.sweep_self_s",
                 "ranges.range_calls", "ranges.range_self_s",
                 "geometry.intersect_calls", "geometry.planes_in", "geometry.vertices_out",
                 "geometry.intersect_s.polygon", "geometry.intersect_s.degenerate",
                 "geometry.hausdorff_calls", "geometry.hausdorff_s",
                 "checks.calls", "checks.self_s", "checks.oracle_s",
                 "shifts.calls", "shifts.s", "fileio.s", "fileio.bytes_out", "cli.self_s"]
        out = {name: tot[name] / per_op for name in names}
        out["linalg.eig_us_per_matrix"] = (1e6 * tot["linalg.eig_s"]
                                           / max(tot["linalg.eig_matrices"], 1))
        out["linalg.stack_mb"] = stack_mb
        out["ranges.sweep_dup_share"] = tot["sweep_dups"] / max(tot["ranges.sweep_calls"], 1)
        intersect = tot["geometry.intersect_s.polygon"] + tot["geometry.intersect_s.degenerate"]
        op_time = max(op_time, 1e-12)
        out["trace.ops"] = ops
        out["trace.op_ms"] = 1e3 * op_time / per_op
        out["linalg.eig_share"] = tot["linalg.eig_s"] / op_time
        out["geometry.intersect_share"] = intersect / op_time
        out["trace.unattributed_share"] = 1.0 - tot["attributed_s"] / op_time
        out["trace.absent"] = len(self.absent)
        return out
