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

from .dynamics import Diffeo, cocycle
from .errors import ChartExitError, ConvergenceError
from .frames import AdaptedFrame, PullbackFrame, aligned_pair_field, pullback_plane_at
from .geometry import project_along
from .splitting import compute_fast_line, fitted_rate, swept_growth

DEFAULT_FD_STEP = 1e-4
RESOLVED_ABS_FLOOR = 1e-11
DEGENERATE_TOL = 1e-13  # bracket norms below this vanish to FD precision


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


def vector_field_bracket(pair_field, x, h):
    """[U, V](x) = DV(x) U(x) - DU(x) V(x) for a pair field p -> (U(p), V(p)).

    Both FD Jacobians come from one evaluation of the pair field per stencil
    point.
    """
    x = np.asarray(x, dtype=float)
    Ju = np.empty((3, 3))
    Jv = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        up, vp = pair_field(x + e)
        um, vm = pair_field(x - e)
        Ju[:, i] = (np.asarray(up) - np.asarray(um)) / (2 * h)
        Jv[:, i] = (np.asarray(vp) - np.asarray(vm)) / (2 * h)
    u, v = pair_field(x)
    return Jv @ np.asarray(u) - Ju @ np.asarray(v)


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
    k_plane=400,
    k_line=600,
) -> InvarianceResidual:
    """Residuals of the projected-bracket transport identities at depth k.

    Brackets are taken of the orthonormal pair field of the converged slow
    plane; both identities hold exactly for an exactly invariant splitting,
    so the residual measures convergence quality, not FD noise.
    """
    x = np.asarray(x, dtype=float)
    plane_field = lambda p: pullback_plane_at(phi, p, E0, k_plane)
    E_x = plane_field(x)
    F_x = compute_fast_line(phi, x, k=k_line)

    v = vector_field_bracket(aligned_pair_field(phi, k, plane_field, x), x, h)
    if np.linalg.norm(v) < DEGENERATE_TOL:
        return InvarianceResidual(x, k, 0.0, 0.0, True)

    pv = project_along(v, E_x, F_x)
    co = cocycle(phi, x, k)
    if co.overflow:
        raise ConvergenceError("cocycle overflow: reduce k or use log-scale ratios")
    D = co.final
    y = co.points[-1]
    E_y = plane_field(y)
    F_y = compute_fast_line(phi, y, k=k_line)

    lhs = project_along(D @ v, E_y, F_y)
    rhs = D @ pv
    denom = np.linalg.norm(rhs)
    if denom < DEGENERATE_TOL:
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
    limit_resolved: bool  # Richardson resolved flag of limit_lhs
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
    growth = swept_growth(phi, x, k_max, E0=E0, burn_in_plane=k_plane, burn_in_line=k_line)
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
        limit_resolved=limit.resolved,
        rate_rhs=fitted_rate(log_vol),
    )
