"""The package's public names."""

import hrnr

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
    # np.linalg.norm and np.eye are called directly
    for name in ("frobenius", "identity"):
        assert name not in hrnr.__all__
        assert not hasattr(hrnr.linalg, name)
