"""The package's public names."""

import importlib
import importlib.util
import pathlib

import numpy as np

import hrnr

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

REMOVED = ("ClosedFormRange", "closed_form_shift_range", "closed_form_replicated_range",
           "spectral_norm")


def test_every_exported_name_resolves():
    missing = [name for name in hrnr.__all__ if not hasattr(hrnr, name)]
    assert not missing


def test_closed_form_wrappers_are_replaced_by_shift_radius():
    assert "shift_radius" in hrnr.__all__
    for name in REMOVED:
        assert name not in hrnr.__all__
        assert not hasattr(hrnr, name) and not hasattr(hrnr.shifts, name)


def test_linalg_wrappers_are_gone():
    # numpy is called directly: np.linalg.norm, np.eye, eigh and eigvalsh
    for name in ("frobenius", "identity", "HermitianEigen", "hermitian_eig", "psd_sqrt",
                 "NotHermitianError", "NotPSDError", "PSD_FLOOR"):
        assert name not in hrnr.__all__
        assert not hasattr(hrnr, name) and not hasattr(hrnr.linalg, name)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_entry_points_resolve():
    # the benchmark's tracer wraps these by name; a rename would silently
    # drop a layer from its per-stage numbers
    spans = load_spans()
    for mod_name, fn in spans.CORE_TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), fn, None)), (mod_name, fn)
    assert hrnr.ranges.eig_hermitian_stack is hrnr.linalg.eig_hermitian_stack


def test_benchmark_oracles_resolve():
    # the benchmark times these as its oracle layer, and calls the normal
    # oracle positionally as its exact reference
    for name in load_spans().ORACLES:
        assert callable(getattr(hrnr.checks, name, None)), name
    region = hrnr.checks.normal_oracle(np.array([1.0, 1j, -1.0, -1j]), 2)
    assert region.kind == "point" and abs(region.vertices[0]) <= 1e-9


def test_subset_hull_oracle_is_gone():
    # the tie-angle oracle runs at every dimension
    for name in ("TooLargeError", "NORMAL_ORACLE_MAX_DIM", "_hull_halfplanes"):
        assert not hasattr(hrnr.checks, name)
