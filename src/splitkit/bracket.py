"""Finite-difference Lie brackets of adapted frames and decay diagnostics.

For frames in graph form the bracket is (X(b) - Y(a)) e3, so only scalar
centered differences of the coefficient pair are needed; every value carries
a Richardson error estimate and a resolved flag marking whether it stands
above the measurement floor.  Bound curves compare the per-depth bracket
magnitude against the volume-ratio decay of the restricted cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Diffeo, _push_forward, _tangent_orbit, cocycle
from .errors import ChartExitError, ConvergenceError
from .frames import (
    AdaptedFrame,
    PullbackFrame,
    aligned_pair_field,
    pullback_plane_at,
    svd_orthonormal_pair,
)
from .geometry import Line1, project_along
from .splitting import _as_plane_field, compute_fast_line, fitted_rate, swept_growth

DEFAULT_FD_STEP = 1e-4
RESOLVED_ABS_FLOOR = 1e-11


@dataclass(frozen=True)
class BracketSample:
    """Bracket coefficient c with [X, Y] = c e3, plus its FD provenance."""

    point: np.ndarray
    h: float
    c: float
    error: float  # Richardson estimate from the h/2 vs h/4 pair
    X_of_b: float
    Y_of_a: float
    order_ratio: float  # |c(h)-c(h/2)| / |c(h/2)-c(h/4)|, ~4 for clean 2nd order
    resolved: bool

    @property
    def norm(self):
        return abs(self.c)


def _coefficient_c(frame: AdaptedFrame, x, h):
    """c = X(b) - Y(a) by centered differences at step h."""
    x = np.asarray(x, dtype=float)
    stencil = [x]
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        stencil.extend([x + e, x - e])
    for q in stencil:
        if not frame.in_domain(q):
            raise ChartExitError(
                f"FD stencil point {q} leaves the chart; retry with h < {h / 4:g}"
            )
    a0, b0 = frame.coefficients(x)
    vals = [frame.coefficients(q) for q in stencil[1:]]
    (a1p, b1p), (a1m, b1m) = vals[0], vals[1]
    (a2p, b2p), (a2m, b2m) = vals[2], vals[3]
    (a3p, b3p), (a3m, b3m) = vals[4], vals[5]
    db_dx1 = (b1p - b1m) / (2 * h)
    db_dx3 = (b3p - b3m) / (2 * h)
    da_dx2 = (a2p - a2m) / (2 * h)
    da_dx3 = (a3p - a3m) / (2 * h)
    X_of_b = db_dx1 + a0 * db_dx3
    Y_of_a = da_dx2 + b0 * da_dx3
    return X_of_b, Y_of_a


def bracket_coefficient(frame: AdaptedFrame, x, h=DEFAULT_FD_STEP) -> BracketSample:
    """Centered-difference bracket coefficient with a validated error bar.

    Three step levels (h, h/2, h/4) are evaluated; the returned value is the
    finest one and the error estimate the usual extrapolation residual
    |c(h/2) - c(h/4)| / 3.  A value only counts as resolved when the three
    levels shrink like a second-order method (ratio near 4): differences that
    fail this are measurement noise, not derivatives, no matter how large.
    """
    diffs = [_coefficient_c(frame, x, h / d) for d in (1, 2, 4)]
    cs = [Xb - Ya for Xb, Ya in diffs]
    d01 = abs(cs[0] - cs[1])
    d12 = abs(cs[1] - cs[2])
    err = d12 / 3.0
    c = cs[2]
    converged_tol = max(RESOLVED_ABS_FLOOR, 0.02 * abs(c))
    if max(d01, d12) <= converged_tol:
        order_ratio = 4.0  # all three levels agree; order test moot
        order_ok = True
    else:
        order_ratio = d01 / max(d12, 1e-300)
        order_ok = 2.0 <= order_ratio <= 8.0
    resolved = order_ok and abs(c) > max(4.0 * err, RESOLVED_ABS_FLOOR)
    return BracketSample(
        point=np.asarray(x, dtype=float),
        h=h,
        c=float(c),
        error=float(err),
        X_of_b=float(diffs[2][0]),
        Y_of_a=float(diffs[2][1]),
        order_ratio=float(order_ratio),
        resolved=bool(resolved),
    )


def field_jacobian(field, x, h):
    """FD Jacobian of a vector field given as p -> (3,) array."""
    x = np.asarray(x, dtype=float)
    J = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        J[:, i] = (np.asarray(field(x + e)) - np.asarray(field(x - e))) / (2 * h)
    return J


def vector_field_bracket(field_u, field_v, x, h):
    """[U, V](x) = DV(x) U(x) - DU(x) V(x) with FD Jacobians."""
    x = np.asarray(x, dtype=float)
    Ju = field_jacobian(field_u, x, h)
    Jv = field_jacobian(field_v, x, h)
    return Jv @ np.asarray(field_u(x)) - Ju @ np.asarray(field_v(x))


@dataclass(frozen=True)
class ProjectedBracket:
    point: np.ndarray
    k: int
    h: float
    vector: np.ndarray  # pi^(k) [Z^(k), W^(k)] at the point
    norm: float
    isotropic: bool


def projected_bracket_norm(
    phi: Diffeo,
    x,
    k: int,
    h=DEFAULT_FD_STEP,
    plane_field=None,
    fast_line=None,
    E0=None,
) -> ProjectedBracket:
    """||pi^(k) [Z^(k), W^(k)]|| for the depth-k orthonormal pair field.

    ``plane_field`` defaults to the depth-k pullback planes of E0;
    ``fast_line`` defaults to the depth-k pushforward line.  Synthetic plane
    fields with trivial dynamics are supported by passing both explicitly.
    """
    x = np.asarray(x, dtype=float)
    if plane_field is None:
        plane_field = lambda p: pullback_plane_at(phi, p, E0, k) if k else _as_plane_field(E0)(p)
    if fast_line is None:
        fast_line = compute_fast_line(phi, x, k=max(k, 1))
    iso = svd_orthonormal_pair(phi, x, plane_field(x), k).isotropic
    pair = aligned_pair_field(phi, k, plane_field, x)
    fZ = lambda p: pair(p)[0]
    fW = lambda p: pair(p)[1]
    br = vector_field_bracket(fZ, fW, x, h)
    pr = project_along(br, plane_field(x), fast_line)
    return ProjectedBracket(
        point=x, k=k, h=h, vector=pr, norm=float(np.linalg.norm(pr)), isotropic=bool(iso)
    )


@dataclass(frozen=True)
class InvarianceResidual:
    point: np.ndarray
    k: int
    residual: float  # relative defect of pi' D(phi^k) v = D(phi^k) pi v
    norm_identity_rel_err: float  # ||D pi v|| vs ||D|_F|| * ||pi v||
    degenerate: bool  # bracket vanished to FD precision (e.g. linear maps)


def invariance_identity_residual(
    phi: Diffeo,
    x,
    k: int,
    h=DEFAULT_FD_STEP,
    E0=None,
    L0=None,
    k_plane=400,
    k_line=600,
    degenerate_tol=1e-13,
) -> InvarianceResidual:
    """Residuals of the projected-bracket transport identities at depth k.

    Brackets are taken of the orthonormal pair field of the converged slow
    plane; both identities hold exactly for an exactly invariant splitting,
    so the residual measures convergence quality, not FD noise.
    """
    x = np.asarray(x, dtype=float)
    plane_field = lambda p: pullback_plane_at(phi, p, E0, k_plane)
    E_x = plane_field(x)
    F_x = compute_fast_line(phi, x, L0=L0, k=k_line)

    pair = aligned_pair_field(phi, k, plane_field, x)
    v = vector_field_bracket(lambda p: pair(p)[0], lambda p: pair(p)[1], x, h)
    if np.linalg.norm(v) < degenerate_tol:
        return InvarianceResidual(x, k, 0.0, 0.0, True)

    pv = project_along(v, E_x, F_x)
    co = cocycle(phi, x, k)
    if co.overflow:
        raise ConvergenceError("cocycle overflow: reduce k or use log-scale ratios")
    D = co.final
    y = co.points[-1]
    E_y = plane_field(y)
    F_y = compute_fast_line(phi, y, L0=L0, k=k_line)

    lhs = project_along(D @ v, E_y, F_y)
    rhs = D @ pv
    denom = np.linalg.norm(rhs)
    if denom < degenerate_tol:
        return InvarianceResidual(x, k, 0.0, 0.0, True)
    residual = float(np.linalg.norm(lhs - rhs) / denom)

    # One-dimensional growth: ||D(phi^k) pi v|| = ||D(phi^k)|_F|| * ||pi v||.
    f_growth = np.linalg.norm(D @ F_x.direction)
    rel = abs(np.linalg.norm(rhs) - f_growth * np.linalg.norm(pv)) / np.linalg.norm(rhs)
    return InvarianceResidual(x, k, residual, float(rel), False)


@dataclass(frozen=True)
class BoundEntry:
    k: int
    h: float  # depth-adapted FD step used for this entry
    c: float  # signed bracket coefficient of the depth-k pullback frame
    lhs: float  # |c^(k)|
    lhs_error: float
    resolved: bool
    rhs: float  # vol ratio of the converged splitting at depth k
    quotient: float | None  # lhs / rhs where lhs is resolved


@dataclass(frozen=True)
class BoundCurve:
    point: np.ndarray
    h: float
    entries: tuple
    limit_lhs: float  # |c| of the converged (deep-pullback) frame
    limit_lhs_error: float
    rate_rhs: float  # fitted per-step decay of the rhs

    def resolved_quotients(self):
        return [(e.k, e.quotient) for e in self.entries if e.resolved]

    def running_max(self):
        """Running max of the quotient over resolved depths, per depth."""
        out = []
        cur = 0.0
        for e in self.entries:
            if e.resolved and e.quotient is not None:
                cur = max(cur, e.quotient)
            out.append(cur)
        return out

    def rows(self):
        """CSV rows (k, h, c, lhs, rhs, quotient)."""
        return [
            (e.k, e.h, e.c, e.lhs, e.rhs, e.quotient if e.quotient is not None else "")
            for e in self.entries
        ]


def bound_curve(
    phi: Diffeo,
    x,
    k_max: int,
    h=DEFAULT_FD_STEP,
    E0=None,
    L0=None,
    k_plane=400,
    k_line=600,
) -> BoundCurve:
    """Per-depth bracket magnitude against the volume-ratio decay.

    lhs values below their Richardson error bar are kept in the table but
    excluded from quotients: a finite-difference bracket cannot witness decay
    past its measurement floor, while the rhs keeps shrinking geometrically.

    The FD step is adapted per depth, h_k = h * exp(-log_f_k): pullback
    compresses the frame's variation by the cocycle's expansion factor, so a
    fixed step would alias the depth-k coefficients, and the adapted step
    also keeps the stencil's orbit tube at constant thickness h.
    """
    x = np.asarray(x, dtype=float)
    growth = swept_growth(
        phi, x, k_max, E0=E0, L0=L0, burn_in_plane=k_plane, burn_in_line=k_line
    )
    log_vol = growth.log_vol()
    log_f = growth.log_f

    entries = []
    for k in range(1, k_max + 1):
        frame = PullbackFrame(phi, k, E0=E0)
        h_k = h * float(np.exp(-log_f[k - 1]))
        bs = bracket_coefficient(frame, x, h_k)
        rhs = float(np.exp(log_vol[k - 1]))
        quot = bs.norm / rhs if bs.resolved else None
        entries.append(
            BoundEntry(
                k=k,
                h=h_k,
                c=bs.c,
                lhs=bs.norm,
                lhs_error=bs.error,
                resolved=bs.resolved,
                rhs=rhs,
                quotient=quot,
            )
        )
    limit = bracket_coefficient(PullbackFrame(phi, k_plane, E0=E0), x, h)
    return BoundCurve(
        point=x,
        h=h,
        entries=tuple(entries),
        limit_lhs=limit.norm,
        limit_lhs_error=limit.error,
        rate_rhs=fitted_rate(log_vol),
    )


def det_comparison(phi: Diffeo, x, k_max: int, E0=None, k_plane=400, drift_factor=5.0):
    """Quotients |det D(phi^k) on pullback plane| / |det on converged plane|.

    Both determinants are accumulated in log scale along the forward orbit,
    the numerator on the depth-k pullback plane, the denominator on the
    converged slow plane.  Returns (quotients, valid): pushing a nearly-slow
    plane forward amplifies its roundoff at the full spectral spread per
    step, so once consecutive quotients grow by more than ``drift_factor``
    the tail is flagged invalid (double precision is exhausted, the true
    quotient stays bounded).
    """
    x = np.asarray(x, dtype=float)
    g = swept_growth(phi, x, k_max, E0=E0, burn_in_plane=k_plane, burn_in_line=1)
    log_det_E = g.log_s1 + g.log_s2

    _, diffs = _tangent_orbit(phi, x, k_max)
    quotients = np.empty(k_max)
    for k in range(1, k_max + 1):
        Q = pullback_plane_at(phi, x, E0, k).orthonormal_basis()
        _, Rs = _push_forward(diffs[:k], Q)
        log_det = sum(np.log(abs(R[0, 0] * R[1, 1])) for R in Rs)
        quotients[k - 1] = np.exp(log_det - log_det_E[k - 1])
    valid = np.ones(k_max, dtype=bool)
    for k in range(1, k_max):
        if not valid[k - 1] or quotients[k] > drift_factor * quotients[k - 1]:
            valid[k] = False
    return quotients, valid


def adapted_vs_orthonormal_ratio(
    frame: AdaptedFrame,
    plane_field,
    fast_line: Line1,
    points,
    h=DEFAULT_FD_STEP,
    phi: Diffeo | None = None,
    k: int = 0,
):
    """Measured ratios ||[X, Y]|| / ||pi [Z, W]|| over sample points.

    The supremum is the comparison constant relating adapted-frame and
    orthonormal-frame bracket norms; it is measured, never assumed.
    """
    if phi is None:
        phi = Diffeo.identity()
    ratios = []
    for p in points:
        bs = bracket_coefficient(frame, p, h)
        pb = projected_bracket_norm(
            phi, p, k, h=h, plane_field=plane_field, fast_line=fast_line
        )
        if pb.norm < 1e-14:
            continue
        ratios.append(bs.norm / pb.norm)
    return ratios
