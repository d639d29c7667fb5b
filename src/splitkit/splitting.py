"""Invariant splittings by dynamical iteration and domination diagnostics.

The slow 2-plane is obtained by pulling an initial plane field back along the
forward orbit (with per-step re-orthonormalization); the fast line by pushing
a seed direction forward along the backward orbit.  Growth of the restricted
cocycles is accumulated in log scale so arbitrarily deep iterates never
overflow, and per-k ratio tables for the three domination conditions are
assembled from those logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Diffeo, _differentials, _orbit_records, _pull_back, _push_forward_line, orbit
from .geometry import Line1, Plane2, line_plane_angle, principal_angle

ANGLE_CONVERGENCE_TOL = 1e-10
RESIDUAL_TOL = 1e-6
MIN_FAST_ANGLE = 1e-3

DEFAULT_E0 = Plane2.spanned_by([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
DEFAULT_L0 = Line1(np.array([0.0, 0.0, 1.0]))


def _plane_at(E0, p) -> Plane2:
    """The plane at a point of E0: None (the coordinate plane), a constant
    ``Plane2`` or a field mapping a point to a ``Plane2``."""
    return DEFAULT_E0 if E0 is None else E0(p) if callable(E0) else E0


def _field_bases(E0, P, orthonormal=True):
    """The bases of E0 at the rows of an (N,3) stack, as a (3, 2, N) stack:
    orthonormalised, or as the planes store them. A constant plane is
    converted once and broadcast; a field is evaluated row by row."""
    basis = Plane2.orthonormal_basis if orthonormal else (lambda E: E.basis)
    if callable(E0):
        return np.stack([basis(E0(p)) for p in P], axis=-1)
    return np.broadcast_to(basis(_plane_at(E0, None))[:, :, None], (3, 2, len(P)))


def _pullback_bases(phi: Diffeo, P, E0, k):
    """Orthonormal bases (3, 2, N) of the depth-k pullback planes
    D(phi^-k) E0(phi^k p) at the rows p of an (N,3) stack, from one kernel call.

    E0 seeds the kernel at the orbit endpoints, and the kernel uses
    elementwise arithmetic only, so each row's basis is bitwise the same
    whatever else is in the stack.
    """
    pts, recs = _orbit_records(phi, np.asarray(P, dtype=float), k)
    Q = _field_bases(E0, pts[-1])
    for Q, _ in _pull_back(phi, recs, Q):
        pass  # the last basis yielded is Q_0
    return Q


def pullback_planes(phi: Diffeo, P, E0=None, k=1):
    """The depth-k pullback planes at the rows of an (N,3) stack, as ``Plane2``s."""
    return [Plane2(Q) for Q in np.moveaxis(_pullback_bases(phi, P, E0, k), 2, 0)]


@dataclass(frozen=True)
class PullbackEntry:
    k: int
    plane: Plane2
    angle_step: float  # angle to the previous entry
    flagged: bool  # transversality / conditioning trouble during pullback


@dataclass(frozen=True)
class PullbackSequence:
    point: np.ndarray
    entries: tuple
    k_used: int
    converged: bool

    @property
    def final_plane(self) -> Plane2:
        return self.entries[-1].plane

    def angles_to(self, plane: Plane2):
        """Angle of every entry to a reference plane (limit diagnostics)."""
        return np.array([principal_angle(e.plane, plane) for e in self.entries])


def compute_slow_plane(phi: Diffeo, x, E0=None, k=40):
    """Pull E0 back along the forward orbit of x for 1..k steps.

    Entry j is the plane D(phi^-j) E0(phi^j x); iteration stops early once
    consecutive entries agree to ``ANGLE_CONVERGENCE_TOL``.  Both the
    stopping angle and the depth reached are recorded rather than assumed.

    An initial plane containing the fast direction at the orbit endpoint
    pulls back to a *different* invariant plane without any conditioning
    trouble, so entry 0 is flagged when the endpoint plane is within
    ``MIN_FAST_ANGLE`` of an (approximate) fast direction.
    """
    if k < 1:
        raise ValueError("pullback depth k must be >= 1")
    pts, recs = _orbit_records(phi, np.asarray(x, dtype=float)[None], k)
    pts = [p[0] for p in pts]

    # power iteration converges at the (possibly mild) spectral gap, so the
    # estimate must run much deeper than the pullback itself; it is only
    # matrix-vector work, so depth is cheap
    fast_est = compute_fast_line(phi, pts[-1], k=300)
    seed_flag = line_plane_angle(fast_est, _plane_at(E0, pts[-1])) <= MIN_FAST_ANGLE

    entries = [PullbackEntry(0, _plane_at(E0, pts[0]), np.pi / 2, seed_flag)]
    converged = False
    for j in range(1, k + 1):
        Q = _field_bases(E0, pts[j][None])
        Rs = []
        for Q, R in _pull_back(phi, recs[:j], Q):
            Rs.append(R)
        flagged = any(
            abs(r11[0] * r22[0]) < 1e-300
            or np.linalg.cond([[r11[0], r12[0]], [0.0, r22[0]]]) > 1e12
            for r11, r12, r22 in Rs
        )
        plane = Plane2(Q[:, :, 0])
        step = principal_angle(plane, entries[-1].plane)
        entries.append(PullbackEntry(j, plane, step, flagged))
        if step < ANGLE_CONVERGENCE_TOL:
            converged = True
            break
    return PullbackSequence(
        point=pts[0],
        entries=tuple(entries),
        k_used=entries[-1].k,
        converged=converged,
    )


def compute_fast_line(phi: Diffeo, x, L0=None, k=40) -> Line1:
    """Push a seed direction L0 (a ``Line1``, default e3) forward along the
    backward orbit of x.

    Power iteration: the result approximates the most expanded line at x,
    converging at the spectral gap of the cocycle, and is exactly invariant
    when L0 is already the fast direction.
    """
    if k < 0:
        raise ValueError("iteration depth k must be >= 0")
    back = orbit(phi, x, k, direction="inverse")
    diffs = _differentials(phi, np.array(back[:0:-1]).reshape(-1, 3))
    return Line1(_push_forward_line(diffs, (DEFAULT_L0 if L0 is None else L0).direction))


@dataclass(frozen=True)
class GrowthTable:
    """Per-k log growth of the cocycle restricted to a plane and a line.

    Index j of each array corresponds to k = j + 1.  ``log_s1 <= log_s2`` are
    the restricted singular values on the plane, ``log_f`` the growth of the
    line.  Everything is accumulated multiplicatively with per-step rescaling,
    so no entry overflows regardless of depth.

    ``max_anchor_defect`` is the largest one-step angle between the pushed
    plane and the plane re-anchored at the next orbit point: re-anchoring is
    what keeps the slow plane from drifting off (it is repelling under the
    forward map), and this records how invariant the supplied field really is.
    """

    log_s1: np.ndarray
    log_s2: np.ndarray
    log_f: np.ndarray
    max_anchor_defect: float = 0.0

    @property
    def k_max(self):
        return len(self.log_f)

    def log_dyn(self):
        return self.log_s2 - self.log_f

    def log_vol(self):
        return self.log_s1 + self.log_s2 - self.log_f

    def log_bunch(self):
        return 2.0 * self.log_s2 - self.log_f

    def volume_identity_max_abs(self):
        """max_k |log(|det on plane| * |det on line|)|, 0 for exact volume
        preservation on an exactly invariant splitting."""
        return float(np.max(np.abs(self.log_s1 + self.log_s2 + self.log_f)))


def _accumulate_growth(step_diffs, planes, line) -> GrowthTable:
    """Accumulate restricted growth between per-orbit-point anchored bases.

    ``planes[i]`` is an orthonormal 3x2 basis at orbit point i; the 2x2 step
    matrices Q_{i+1}^T D_i Q_i are multiplied with rescaling, the restricted
    determinant as a log sum. ``line``, the unit line direction at orbit
    point 0, is pushed forward with normalisation, its log norms summed.
    """
    k_max = len(step_diffs)
    T = np.eye(2)
    log_acc = 0.0
    log_det_acc = 0.0
    log_f_acc = 0.0
    log_s1 = np.empty(k_max)
    log_s2 = np.empty(k_max)
    log_f = np.empty(k_max)
    max_defect = 0.0
    for i, D in enumerate(step_diffs):
        img = D @ planes[i]
        M = planes[i + 1].T @ img
        # anchored-basis residual: image component orthogonal to the next plane
        resid = img - planes[i + 1] @ M
        max_defect = max(max_defect, float(np.linalg.norm(resid) / np.linalg.norm(img)))
        log_det_acc += np.log(abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]))
        T = M @ T
        scale = np.max(np.abs(T))
        log_acc += np.log(scale)
        T = T / scale
        sv = np.linalg.svd(T, compute_uv=False)
        log_s2[i] = np.log(sv[0]) + log_acc
        log_s1[i] = log_det_acc - log_s2[i]

        w = D @ line
        n = np.linalg.norm(w)
        log_f_acc += np.log(n)
        log_f[i] = log_f_acc
        line = w / n
    return GrowthTable(
        log_s1=log_s1, log_s2=log_s2, log_f=log_f, max_anchor_defect=max_defect
    )


def swept_growth(
    phi: Diffeo, x, k_max: int, E0=None, L0=None, burn_in_plane=400, burn_in_line=600
) -> GrowthTable:
    """Restricted growth with pullback-anchored planes along the orbit.

    One extended forward orbit and a single backward sweep give the
    depth >= burn_in_plane pullback plane at every orbit point; the fast line
    is seeded by deep backward power iteration at x and pushed forward with
    normalization (stable, since the fast line attracts under the forward
    map).
    """
    line = compute_fast_line(phi, x, L0=L0, k=burn_in_line)
    return _growth_along(phi, x, k_max, E0, burn_in_plane, line.direction)


def _growth_along(phi: Diffeo, x, k_max: int, E0, burn_in_plane, f) -> GrowthTable:
    """``swept_growth`` with the unit fast direction ``f`` at x given as is."""
    pts, recs = _orbit_records(phi, np.asarray(x, dtype=float)[None], k_max + burn_in_plane)
    seed = _field_bases(E0, pts[-1])
    planes = [seed[:, :, 0]] + [Q[:, :, 0] for Q, _ in _pull_back(phi, recs, seed)]
    planes.reverse()  # the basis at orbit point i is planes[i]
    diffs = _differentials(phi, np.concatenate(pts[:k_max]))
    return _accumulate_growth(diffs, planes, f)


def eventual_k0(log_ratios) -> int | None:
    """Smallest k0 with ratio_k < 1 for every tested k >= k0, or None."""
    below = np.asarray(log_ratios) < 0.0
    if not below[-1]:
        return None
    j = len(below)
    while j > 0 and below[j - 1]:
        j -= 1
    return j + 1  # arrays are indexed from k = 1


def fitted_rate(log_ratios) -> float:
    """Per-step geometric rate from an affine fit of log ratio against k,
    over the second half of the depths (k >= len // 2)."""
    logs = np.asarray(log_ratios)
    ks = np.arange(1, len(logs) + 1)
    mask = ks >= max(1, len(logs) // 2)
    slope = np.polyfit(ks[mask], logs[mask], 1)[0]
    return float(np.exp(slope))


@dataclass(frozen=True)
class SplittingSample:
    point: np.ndarray
    plane: Plane2
    line: Line1
    k_used: int
    residual: float
    converged: bool


def splitting_sample(phi: Diffeo, x, E0=None, k_plane=400, k_line=600) -> SplittingSample:
    """Splitting at x with an invariance residual from independent recomputation.

    The residual is the angle defect of one map step: the plane and line are
    recomputed from scratch at phi(x) and compared with the pushed-forward
    plane and line from x.
    """
    x = np.asarray(x, dtype=float)
    y = phi.apply(x)
    E, Ey = pullback_planes(phi, np.array([x, y]), E0, k_plane)
    F = compute_fast_line(phi, x, k=k_line)
    Fy = compute_fast_line(phi, y, k=k_line)

    D = phi.differential(x)
    pushed_plane = Plane2(D @ E.basis)
    pushed_line = Line1(D @ F.direction)
    residual = principal_angle(pushed_plane, Ey) + pushed_line.angle_to(Fy)
    return SplittingSample(
        point=x,
        plane=E,
        line=F,
        k_used=k_plane,
        residual=float(residual),
        converged=bool(residual < RESIDUAL_TOL),
    )


@dataclass(frozen=True)
class SampleDomination:
    sample: SplittingSample
    growth: GrowthTable
    k0_dyn: int | None
    k0_vol: int | None
    k0_bunch: int | None
    rate_dyn: float
    rate_vol: float
    rate_bunch: float
    volume_identity_max_abs: float

    def table_rows(self):
        """Rows (k, dyn_ratio, vol_ratio, bunch_ratio) for CSV output."""
        rows = []
        ld, lv, lb = self.growth.log_dyn(), self.growth.log_vol(), self.growth.log_bunch()
        for j in range(self.growth.k_max):
            rows.append((j + 1, float(np.exp(ld[j])), float(np.exp(lv[j])), float(np.exp(lb[j]))))
        return rows


@dataclass(frozen=True)
class DominationReport:
    samples: tuple  # SampleDomination, in input order
    excluded: tuple  # (point, residual) pairs that failed to converge
    verdict_dyn: bool
    verdict_vol: bool
    verdict_bunch_fails: bool  # True when bunching stays violated (> 1)

    @property
    def n_converged(self):
        return len(self.samples)


def _analyze_point(phi, p, k_max, E0, k_plane, k_line):
    s = splitting_sample(phi, p, E0=E0, k_plane=k_plane, k_line=k_line)
    if not s.converged:
        return s
    # the sample's depth-k_line fast line seeds the growth sweep as it is
    g = swept_growth(phi, s.point, k_max, E0=E0, L0=s.line, burn_in_plane=k_plane, burn_in_line=0)
    return SampleDomination(
        sample=s,
        growth=g,
        k0_dyn=eventual_k0(g.log_dyn()),
        k0_vol=eventual_k0(g.log_vol()),
        k0_bunch=eventual_k0(g.log_bunch()),
        rate_dyn=fitted_rate(g.log_dyn()),
        rate_vol=fitted_rate(g.log_vol()),
        rate_bunch=fitted_rate(g.log_bunch()),
        volume_identity_max_abs=g.volume_identity_max_abs(),
    )


def domination_report(
    phi: Diffeo,
    sample_points,
    k_max: int,
    E0=None,
    k_plane=400,
    k_line=600,
) -> DominationReport:
    """Ratio tables and eventual-domination verdicts over a list of points.

    Unconverged samples are excluded and listed in the report.  Verdicts
    hold when every converged sample admits a finite k0 with the ratio below
    1 from k0 on; the bunching verdict is reported as a *failure* flag, true
    when the squared-norm ratio still exceeds 1 at depth k_max.  Results are
    reduced in input order.
    """
    results = [_analyze_point(phi, p, k_max, E0, k_plane, k_line) for p in sample_points]
    per_sample = [r for r in results if isinstance(r, SampleDomination)]
    excluded = [(r.point, r.residual) for r in results if isinstance(r, SplittingSample)]
    return DominationReport(
        samples=tuple(per_sample),
        excluded=tuple(excluded),
        verdict_dyn=bool(per_sample) and all(d.k0_dyn is not None for d in per_sample),
        verdict_vol=bool(per_sample) and all(d.k0_vol is not None for d in per_sample),
        verdict_bunch_fails=bool(per_sample)
        and all(d.k0_bunch is None for d in per_sample),
    )
