"""Acceptance suite: one check per shipped claim, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check passes.

The two-decimal eigenvalue tuple quoted alongside the built-in example matrix,
``QUOTED_EIGENVALUES = (-0.11, 3.11, -3.21)``, cannot be the spectrum of any
integer matrix with det +-1: its sum admits no integer trace and its |product|
does not admit 1.  Criterion 01 therefore checks the computed spectrum against
the roots of the matrix's integer characteristic polynomial, (-3.11, -0.10,
3.21) at two decimals, and asserts that the quote is inconsistent; criterion 02
checks the volume rate against 0.097, which that corrected tuple gives, in
place of 0.107, which the quote gave.  The quote itself stays in the
``paper-example`` report, flagged as mismatched.
"""

import math
import time

import numpy as np

from splitkit import PAPER_MATRIX, Diffeo
from splitkit.bracket import bound_curves, bracket_coefficient
from splitkit.cli import QUOTED_EIGENVALUES, cmd_paper_example
from splitkit.dynamics import _pullback_bases
from splitkit.frames import AnalyticFrame, PullbackFrame, constant_frame, contact_frame
from splitkit.geometry import Plane2, exterior_square, principal_angle
from splitkit.surface import (
    build_patch,
    flow,
    planarity_defect,
    pushforward_convergence_series,
    pushforward_norm_identity,
)
from splitkit.uniqueness import hartman_slice_report, leaf_divergence
from conftest import FIXED_EXACT, SHEAR, tilt_plane_field
from splitkit.dynamics import ShearPerturbation, ToralAutomorphism


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def _perturbed():
    return Diffeo((ShearPerturbation(**SHEAR), ToralAutomorphism(PAPER_MATRIX)))


def test_criterion_01_det_trace_runtime():
    start = time.perf_counter()
    rep = cmd_paper_example(None)["results"]
    elapsed = time.perf_counter() - start
    ok = rep["det"] == 1 and rep["trace"] == 0 and elapsed < 1.0
    line = _report(1, ok, f"det={rep['det']} trace={rep['trace']} runtime={elapsed:.2f}s (<1s)")
    assert ok, line


def _charpoly(A):
    """Exact integer coefficients of det(xI - A) for a 3x3 integer matrix:
    x^3 - trace x^2 + (sum of principal 2x2 minors) x - det."""
    a = [[int(v) for v in row] for row in A]
    trace = a[0][0] + a[1][1] + a[2][2]
    minors = sum(a[i][i] * a[j][j] - a[i][j] * a[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    return [1, -trace, minors, -det]


def _could_be_unimodular_spectrum(values):
    """Whether values rounded to two decimals could be the spectrum of an integer
    matrix with det +-1: with each value ranging over +-0.005, the sum must admit
    an integer trace and the |product| must admit 1."""
    lo_sum = sum(values) - len(values) * 0.005
    hi_sum = sum(values) + len(values) * 0.005
    lo_prod = math.prod(max(abs(v) - 0.005, 0.0) for v in values)
    hi_prod = math.prod(abs(v) + 0.005 for v in values)
    return math.floor(hi_sum) >= lo_sum and lo_prod <= 1.0 <= hi_prod


def test_criterion_01_quoted_eigenvalue_tuple():
    # Precondition: the quote is not the spectrum of any matrix ToralAutomorphism
    # accepts (its sum lies in [-0.225, -0.195], its |product| in [1.045, 1.152]),
    # so the check compares against the matrix's own two-decimal spectrum instead.
    assert not _could_be_unimodular_spectrum(QUOTED_EIGENVALUES), (
        f"quoted tuple {QUOTED_EIGENVALUES} is consistent with an integer trace and "
        f"det +-1; compare against it again"
    )
    coeffs = _charpoly(PAPER_MATRIX)
    expected = np.round(np.sort(np.roots(coeffs).real), 2)
    eig = np.sort(np.linalg.eigvals(PAPER_MATRIX.astype(float)).real)
    diffs = [float(np.min(np.abs(eig - q))) for q in expected]
    ok = (
        expected.tolist() == [-3.11, -0.10, 3.21]
        and _could_be_unimodular_spectrum(expected)
        and all(d <= 0.005 for d in diffs)
    )
    line = _report(
        1,
        ok,
        f"computed eigenvalues {np.round(eig, 4).tolist()} vs {expected.tolist()} "
        f"(two-decimal roots of the integer charpoly {coeffs}): "
        f"per-value distances {np.round(diffs, 4).tolist()} (tolerance 0.005); "
        f"quoted {list(QUOTED_EIGENVALUES)} is no det +-1 integer spectrum",
    )
    assert ok, line


def test_criterion_02_ratio_verdicts():
    rep = cmd_paper_example(None)["results"]
    k1 = rep["flat_metric_k1"]
    ok = k1["dyn_ratio_1"] < 1.0 and k1["vol_ratio_1"] < 1.0 and k1["bunch_ratio_1"] > 1.0
    line = _report(
        2,
        ok,
        f"flat k=1 ratios dyn={k1['dyn_ratio_1']:.4f}<1 vol={k1['vol_ratio_1']:.4f}<1 "
        f"bunch={k1['bunch_ratio_1']:.4f}>1",
    )
    assert ok, line


def test_criterion_02_ratio_values():
    rep = cmd_paper_example(None)["results"]
    rates = rep["per_step_rates"]
    # vol = |r1*r2|/|r3| over the spectrum sorted by magnitude: 0.10*3.11/3.21 = 0.0969
    # on the two-decimal spectrum (0.09698 on the exact roots of x^3 - 10x - 1).
    # The 0.107 once stated here was 0.11*3.11/3.21, taken on the quoted tuple,
    # which criterion 01 shows is no det +-1 integer spectrum.
    targets = {"dyn": 0.969, "vol": 0.097, "bunch": 3.01}
    diffs = {k: abs(rates[k] - targets[k]) for k in targets}
    ok = all(d <= 0.01 for d in diffs.values())
    line = _report(
        2,
        ok,
        f"per-step rates dyn={rates['dyn']:.5f} vol={rates['vol']:.5f} "
        f"bunch={rates['bunch']:.5f} vs stated (0.969, 0.097, 3.01) +-0.01; "
        f"deviations {({k: round(v, 5) for k, v in diffs.items()})}",
    )
    assert ok, line


def test_criterion_03_pullback_convergence(phi_linear, slow_plane):
    start = time.perf_counter()
    # the pullbacks of the coordinate plane at x = 0 at depths 0..60, one kernel call
    B = _pullback_bases(phi_linear, np.zeros((61, 3)), None, np.arange(61))
    angles = np.array([principal_angle(Plane2(B[:, :, j]), slow_plane) for j in range(61)])
    slope = np.polyfit(np.arange(20, 61), np.log(angles[20:61]), 1)[0]
    elapsed = time.perf_counter() - start
    rel = abs(slope / np.log(0.969) - 1.0)
    ok = rel < 0.10 and elapsed < 5.0
    line = _report(
        3, ok, f"fitted log-slope {slope:.6f} vs log(0.969)={np.log(0.969):.6f} "
        f"(rel dev {rel:.3%}, <10%), runtime {elapsed:.2f}s (<5s)"
    )
    assert ok, line


def test_criterion_04_exterior_square():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        M = rng.uniform(-5.0, 5.0, (3, 3))
        N = rng.uniform(-5.0, 5.0, (3, 3))
        worst = max(
            worst,
            float(np.max(np.abs(exterior_square(M @ N) - exterior_square(M) @ exterior_square(N)))),
        )
    w = np.sort(np.linalg.eigvals(PAPER_MATRIX.astype(float)).real)
    pairs = np.sort([w[0] * w[1], w[0] * w[2], w[1] * w[2]])
    got = np.sort(np.linalg.eigvals(exterior_square(PAPER_MATRIX.astype(float))).real)
    spec_err = float(np.max(np.abs(got - pairs)))
    ok = worst < 1e-10 and spec_err < 1e-8
    line = _report(
        4, ok, f"functoriality worst entry {worst:.2e} (<1e-10); "
        f"wedge spectrum vs pairwise products {spec_err:.2e} (<1e-8)"
    )
    assert ok, line


def test_criterion_05_bracket_oracle():
    contact = bracket_coefficient(contact_frame(), np.array([0.2, 0.5, 0.7]), h=1e-4)
    const = bracket_coefficient(constant_frame(0.7, -1.3), np.array([0.3, 0.3, 0.3]), h=1e-4)
    smooth = AnalyticFrame(
        lambda p: 0.3 * np.sin(2 * np.pi * p[2]) * np.cos(2 * np.pi * p[0]),
        lambda p: 0.2 * np.cos(2 * np.pi * p[1]) + 0.1 * np.sin(2 * np.pi * p[2]),
    )
    order = bracket_coefficient(smooth, np.array([0.12, 0.37, 0.81]), h=2e-3)
    ok = (
        abs(contact.c - 1.0) <= 1e-8
        and abs(const.c) <= 1e-12
        and 3.0 <= order.order_ratio <= 5.0
    )
    line = _report(
        5, ok, f"contact c={contact.c:.10f} (1 +- 1e-8); constant c={const.c:.2e} (0 +- 1e-12); "
        f"Richardson level ratio {order.order_ratio:.2f} (~4)"
    )
    assert ok, line


def test_criterion_06_bound_curve_perturbed():
    phi = _perturbed()
    start = time.perf_counter()
    (bc,) = bound_curves(phi, [np.zeros(3)], 20, h=3e-6, E0=tilt_plane_field, k_plane=500, k_line=800)
    elapsed = time.perf_counter() - start
    rm = bc.running_max()
    resolved = bc.resolved_quotients()
    finite = all(np.isfinite(q) for _, q in resolved) and len(resolved) >= 3
    stable = abs(rm[19] - rm[9]) <= 0.05 * max(rm[9], 1e-300)
    log_rhs = np.log(bc.rhs)
    slope = np.polyfit(np.arange(1, 21), log_rhs, 1)[0]
    per_step = log_rhs[-1] / 20.0
    slope_ok = abs(slope / per_step - 1.0) < 0.15
    ok = finite and stable and slope_ok and elapsed < 30.0
    line = _report(
        6, ok, f"{len(resolved)} resolved quotients, running max {rm[9]:.3f}@k=10 -> "
        f"{rm[19]:.3f}@k=20 (<5% change); rhs slope {slope:.4f} vs per-step "
        f"{per_step:.4f} (<15%); runtime {elapsed:.1f}s (<30s)"
    )
    assert ok, line


def test_criterion_07_invariance_identities(phi_linear):
    # the bound curves report the splitting pass's one-step residual: the
    # angle from D E_x to E_phi(x) plus the angle from D F_x to F_phi(x)
    perturbed = bound_curves(_perturbed(), list(FIXED_EXACT), 3, k_plane=500, k_line=800)
    (linear,) = bound_curves(phi_linear, [np.zeros(3)], 3, k_plane=500, k_line=800)
    residuals = [bc.invariance_residual for bc in perturbed + [linear]]
    ok = all(r < 1e-6 for r in residuals)
    line = _report(
        7, ok, f"perturbed residuals {[f'{r:.2e}' for r in residuals[:-1]]}, "
        f"linear {residuals[-1]:.2e} (<1e-6, depths 500 and 800)"
    )
    assert ok, line


def test_criterion_08_surface_machinery():
    # (i) global order 4 on a closed-form (exponential) flow
    exp_frame = AnalyticFrame(lambda p: p[2], lambda p: 0.0)
    errs = [
        abs(flow(exp_frame.X, np.array([0.0, 0.0, 1.0]), 0.5, s)[2] - np.exp(0.5))
        for s in (1e-2, 5e-3, 2.5e-3)
    ]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order_ok = all(abs(o - 4.0) <= 0.8 for o in orders)

    # (ii) linear-map patches are planar
    patch = build_patch(constant_frame(0.2, -0.3), np.array([0.5, 0.5, 0.5]), 0.05, 9)
    planar = planarity_defect(patch)
    planar_ok = planar < 1e-9

    # (iii) vertical-growth formula on a = x3 at step 1e-3: both sides e^t
    lhs, rhs, rel, _ = pushforward_norm_identity(
        exp_frame, np.array([0.0, 0.0, 1.0]), 0.2, 1e-3
    )
    identity_ok = rel <= 1e-4 and abs(lhs - np.exp(0.2)) < 1e-4

    # (iv) contact-frame commutator defect is exactly (0, 0, t*s)
    p_xy = build_patch(contact_frame(), np.zeros(3), 0.05, 9)
    p_yx = build_patch(contact_frame(), np.zeros(3), 0.05, 9, order="yx")
    worst = 0.0
    for i, t in enumerate(p_xy.ts):
        for j, s in enumerate(p_xy.ss):
            worst = max(
                worst,
                float(np.max(np.abs((p_yx.points[i, j] - p_xy.points[i, j]) - [0.0, 0.0, t * s]))),
            )
    mismatch_ok = worst < 1e-8

    ok = order_ok and planar_ok and identity_ok and mismatch_ok
    line = _report(
        8, ok, f"orders {np.round(orders, 2).tolist()} (4 +- 0.8); planarity {planar:.1e} "
        f"(<1e-9); growth-formula rel err {rel:.1e} (<=1e-4, lhs={lhs:.5f}~e^0.2); "
        f"commutator-defect deviation {worst:.1e} (<1e-8)"
    )
    assert ok, line


def test_criterion_09_pushforward_trend():
    phi = _perturbed()
    start = time.perf_counter()
    frames = [(k, PullbackFrame(phi, k)) for k in range(1, 13)]
    ser = pushforward_convergence_series(frames, np.zeros(3), 0.04, 1e-3, grad_h=1e-8)
    elapsed = time.perf_counter() - start
    vals = ser.resolved_values()
    trend_ok = all(vals[i + 1][1] <= vals[i][1] + 1e-6 for i in range(len(vals) - 1))
    ok = trend_ok and len(vals) >= 8
    line = _report(
        9, ok, f"defect series over resolved depths {[(k, f'{v:.1e}') for k, v in vals]} "
        f"non-increasing within 1e-6 slack; {len(vals)}/12 depths resolved; "
        f"runtime {elapsed:.0f}s"
    )
    assert ok, line


def test_criterion_10_uniqueness_diagnostics(phi_linear):
    phi = _perturbed()
    frames = [(k, PullbackFrame(phi, k)) for k in range(1, 16)]
    hart = hartman_slice_report(frames, PullbackFrame(phi, 250), 0.0, grid_n=6, h=1e-5)
    hart_ok = hart.bounded and np.isfinite(hart.max_sup)

    leaf = leaf_divergence(
        PullbackFrame(phi_linear, 12), np.array([0.5, 0.5, 0.5]), 0.05, 7, 1e-4,
        1e-3,
    )
    lip_ok = abs(leaf.lipschitz - 1.0) <= 0.05
    ok = hart_ok and lip_ok
    line = _report(
        10, ok, f"transversal-derivative sup over k<=15: max {hart.max_sup:.3e} "
        f"(finite, reported); linear-map leaf Lipschitz {leaf.lipschitz:.4f} (1 +- 0.05)"
    )
    assert ok, line
