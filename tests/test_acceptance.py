"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines as they complete.  Expensive instance sets (the 200 nilpotent
contractions and their pencil sweeps) are built once and shared.
"""

import numpy as np
import pytest

from hrnr.checks import (
    RESIDUAL_TOL,
    check_adjoint,
    check_affine,
    check_compression,
    check_direct_sum,
    check_nesting,
    check_nilpotent,
    check_shift,
    check_unitary,
    generator,
    haagerup_bound_check,
    hermitian_oracle,
    normal_oracle,
    random_isometry,
    random_matrix,
    random_nilpotent_contraction,
    random_unitary,
)
from hrnr.geometry import hausdorff
from hrnr.linalg import eig_hermitian_stack
from hrnr.ranges import pencil, pencil_sweep, range_from_sweep
from hrnr.shifts import build_dilation, kth_of_replicated, shift_matrix

ANGLES = 2048
SEED = 20240


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def contraction_instances():
    """200 seeded nilpotent contractions (dims 3..6), each with its dilation
    and its DILATION, DISC and HAAGERUP reports from ``check_nilpotent``.

    Every other instance is scaled to spectral norm exactly 1 so the
    defect rank drops below full and the replicated-shift bound is
    exercised with rho(k, r) > 1.
    """
    rng = generator(SEED)
    out = []
    for trial in range(200):
        dim = 3 + trial % 4
        t = random_nilpotent_contraction(dim, rng, norm=1.0 if trial % 2 == 0 else None)
        out.append((t, build_dilation(t), check_nilpotent(t, ANGLES)))
    return out


def test_criterion_1_shift_ranges_match_closed_form():
    reports = [check_shift(n, ANGLES) for n in range(2, 13)]
    bad = [(rep.digest, rep.note) for rep in reports if not rep.passed]
    worst = max(rep.discrepancy for rep in reports)
    ok = not bad
    tol = max(rep.tolerance for rep in reports)
    report(1, ok, f"n=2..12 all k at m={ANGLES}: worst row deviation {worst:.2e} "
                  f"(tol {tol:.1e}; radii within the m-gon's bracket), {len(bad)} failing n")
    assert ok, bad


def _recurrence(lam, n):
    prev, cur = 0.0, 1.0
    for _ in range(n):
        prev, cur = cur, -lam * cur - prev
    return cur


def test_criterion_2_pencil_spectrum_and_recurrence():
    rng = generator(SEED + 1)
    worst_eig = 0.0
    worst_rec = 0.0
    for n in range(2, 13):
        expected = 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        s = shift_matrix(n)
        for theta in rng.uniform(0.0, 2 * np.pi, size=64):
            values = eig_hermitian_stack(pencil(s, theta)[None])[0]
            worst_eig = max(worst_eig, float(np.abs(values - expected).max()))
            worst_rec = max(worst_rec, max(abs(_recurrence(lam, n)) for lam in values))
    ok = worst_eig <= 1e-9 and worst_rec <= 1e-6
    report(2, ok, f"64 angles x n=2..12: eigenvalue dev {worst_eig:.2e} (tol 1e-9), "
                  f"recurrence residual {worst_rec:.2e} (tol 1e-6)")
    assert ok


def test_criterion_3_replicated_sequence_exhaustive():
    rng = generator(SEED + 2)
    checked = 0
    for n in range(1, 7):
        for r in range(1, 6):
            for values in (np.linspace(float(n), 1.0, n),
                           np.sort(rng.normal(size=n))[::-1]):
                if not (np.diff(values) < 0).all():
                    continue
                brute = np.sort(np.repeat(values, r))[::-1]
                for k in range(1, n * r + 1):
                    assert kth_of_replicated(values, r, k) == brute[k - 1]
                    checked += 1
    report(3, True, f"{checked} (values, r, k) cases, exact equality")


def test_criterion_4_dilation_and_disc_inclusion(contraction_instances):
    worst_res = 0.0
    worst_excess = (-np.inf, 0.0)  # DISC's excess and the tolerance it applied there
    bad = []
    for idx, (t, pack, (dilation, disc, _)) in enumerate(contraction_instances):
        d = t.shape[0]
        worst_res = max(worst_res, dilation.discrepancy / d)
        # the isometry embeds C^d into C^(r n), so k <= d never reaches the
        # k > n r emptiness regime; only disc containment is asserted here
        assert d <= pack.n * pack.r
        worst_excess = max(worst_excess, (disc.discrepancy, disc.tolerance))
        bad += [(idx, rep.property_id, rep.discrepancy, rep.note)
                for rep in (dilation, disc) if not rep.passed]
    ok = not bad
    report(4, ok, f"200 contractions dims 3-6: worst residual/dim {worst_res:.2e} "
                  f"(tol {RESIDUAL_TOL:.0e}), worst disc excess {worst_excess[0]:.2e} "
                  f"(tol {worst_excess[1]:.2e})")
    assert ok, bad[:5]


def test_criterion_5_radius_bound_and_equality(contraction_instances):
    worst_violation = 0.0
    worst_tol = 0.0
    bad = []
    for idx, (_, _, (_, _, haagerup)) in enumerate(contraction_instances):
        worst_violation = max(worst_violation, haagerup.discrepancy)
        worst_tol = max(worst_tol, haagerup.tolerance)
        if not haagerup.passed:
            bad.append((idx, haagerup.note))
    equalities = 0
    for c in (0.3, 1.0):
        for n in range(2, 11):
            t = c * shift_matrix(n)
            rep = haagerup_bound_check(t, pencil_sweep(t, ANGLES), n)
            if rep.passed and "equality" in rep.note:
                equalities += 1
            else:
                bad.append((c, n, rep.note))
    ok = not bad
    report(5, ok, f"radius bound worst violation {worst_violation:.2e} "
                  f"(row tol <= {worst_tol:.1e}); scaled shifts at equality "
                  f"{equalities}/18 (within bound (1 - cos(pi/m)) + row tol)")
    assert ok, bad[:5]


NORMAL_ANGLES = 65536  # facet protrusion is ~diam*tan(pi/m)/2, so 2048 is
                       # far too coarse for the 1e-4 polygon comparison


def test_criterion_6_hermitian_and_normal_oracles():
    worst_seg = 0.0
    bad = []
    for diag in ([0.0, 1.0, 2.0, 3.0], [-2.0, -1.0, 0.5, 1.5, 4.0],
                 [1.0, 2.0, 3.0, 4.0, 5.0]):
        t = np.diag(np.array(diag, dtype=complex))
        n = len(diag)
        sweep = pencil_sweep(t, ANGLES)
        values = np.array(diag, dtype=float)
        for k in range(1, n + 1):
            oracle = hermitian_oracle(values, k)
            region = range_from_sweep(sweep, k).region
            if oracle.kind != region.kind:
                bad.append((diag, k, f"{oracle.kind} vs {region.kind}"))
                continue
            if not oracle.is_empty:
                gap = hausdorff(region, oracle)
                worst_seg = max(worst_seg, gap)
                if gap > 1e-6:
                    bad.append((diag, k, f"interval gap {gap:.2e}"))
    rng = generator(SEED + 3)
    worst_normal = 0.0
    for i in range(50):
        d = 5 + i % 2
        eigs = rng.normal(size=d) + 1j * rng.normal(size=d)
        eigs /= np.abs(eigs).max()
        sweep = pencil_sweep(np.diag(eigs), NORMAL_ANGLES)
        for k in (1, 2, 3):
            oracle = normal_oracle(eigs, k)
            region = range_from_sweep(sweep, k).region
            if oracle.is_empty != region.is_empty:
                bad.append((i, k, f"{oracle.kind} vs {region.kind}"))
                continue
            if oracle.is_empty:
                continue
            gap = hausdorff(region, oracle)
            worst_normal = max(worst_normal, gap)
            if gap > 1e-4:
                bad.append((i, k, f"normal gap {gap:.2e}"))
    ok = not bad
    report(6, ok, f"Hermitian intervals worst gap {worst_seg:.2e} (tol 1e-6); "
                  f"50 normals at m={NORMAL_ANGLES} worst Hausdorff {worst_normal:.2e} (tol 1e-4)")
    assert ok, bad[:5]


def test_criterion_7_property_suite_on_random_matrices():
    rng = generator(SEED + 4)
    failures = []
    worst = {}
    for i in range(100):
        d = 3 + i % 4
        t = random_matrix(d, rng)
        k = 1 + i % 2
        a = complex(rng.normal(), rng.normal())
        while abs(a) < 0.3:
            a = complex(rng.normal(), rng.normal())
        b = 0.5 * complex(rng.normal(), rng.normal())
        partner = random_matrix(d, rng)
        sweep = pencil_sweep(t, ANGLES)
        base = range_from_sweep(sweep, k)
        partner_base = range_from_sweep(pencil_sweep(partner, ANGLES), k)
        reports = [
            check_affine(t, base, a, b),
            check_adjoint(t, base),
            check_direct_sum(t, partner, base, partner_base),
            check_unitary(t, base, random_unitary(d, rng)),
            check_compression(t, base, random_isometry(d, d - 1, rng)),
            check_nesting(sweep, min(d, 3)),
        ]
        for rep in reports:
            prev = worst.get(rep.property_id, (-np.inf, None))
            if rep.discrepancy - rep.tolerance > prev[0]:
                worst[rep.property_id] = (rep.discrepancy - rep.tolerance, rep)
            if not rep.passed:
                failures.append((i, rep.property_id, rep.discrepancy, rep.tolerance))
    ok = not failures
    margins = " ".join(f"{pid}:{worst[pid][0]:.1e}" for pid in sorted(worst))
    report(7, ok, f"P1-P6 on 100 matrices dims 3-6 at m={ANGLES}: "
                  f"worst margin over tolerance {margins}")
    assert ok, failures[:5]


def test_criterion_8_radius_climbs_toward_one():
    radii = []
    for n in range(2, 65):
        rep = range_from_sweep(pencil_sweep(shift_matrix(n), 64), 1)
        radii.append(rep.min_support())
    increasing = all(b > a for a, b in zip(radii, radii[1:]))
    ok = increasing and radii[-1] > 0.998
    report(8, ok, f"rank-1 radius of the shift, n=2..64: strictly increasing: "
                  f"{increasing}; final {radii[-1]:.6f} > 0.998")
    assert ok
