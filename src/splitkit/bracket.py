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
from .frames import AdaptedFrame, PullbackFrame, aligned_pairs, fd_stencil
from .geometry import project_along
from .splitting import compute_fast_line, fitted_rate, pullback_planes, swept_growth

DEFAULT_FD_STEP = 1e-4
RESOLVED_ABS_FLOOR = 1e-11
DEGENERATE_TOL = 1e-13  # bracket norms below this vanish to FD precision
# A coefficient value is trusted to this many ulps of its unit normal. It is
# a lower bound: pullback frames of the example map carry 1 to 5 ulps of
# rounding noise at depths 1 to 4 and about 25 at depth 6, and the Richardson
# order test is what rejects the noisier entries above this floor.
ROUNDOFF_ULPS = 8


@dataclass(frozen=True)
class BracketSample:
    """Bracket coefficient c with [X, Y] = c e3, plus its FD provenance."""

    point: np.ndarray
    h: float
    c: float
    error: float  # Richardson estimate from the h/2 vs h/4 pair
    order_ratio: float  # |c(h)-c(h/2)| / |c(h/2)-c(h/4)|, ~4 for clean 2nd order
    resolved: bool

    @property
    def norm(self):
        return abs(self.c)


def _coefficient_c(vals, h):
    """c = X(b) - Y(a) by centered differences at step h, from the (7,2)
    coefficients on ``fd_stencil(x, h)``."""
    (a0, b0), (a1p, b1p), (a1m, b1m), (a2p, b2p), (a2m, b2m), (a3p, b3p), (a3m, b3m) = vals
    db_dx1 = (b1p - b1m) / (2 * h)
    db_dx3 = (b3p - b3m) / (2 * h)
    da_dx2 = (a2p - a2m) / (2 * h)
    da_dx3 = (a3p - a3m) / (2 * h)
    X_of_b = db_dx1 + a0 * db_dx3
    Y_of_a = da_dx2 + b0 * da_dx3
    return X_of_b - Y_of_a


def bracket_coefficient(frame: AdaptedFrame, x, h=DEFAULT_FD_STEP) -> BracketSample:
    """Centered-difference bracket coefficient with a validated error bar.

    Three step levels (h, h/2, h/4) are evaluated; the returned value is the
    finest one and the error estimate the usual extrapolation residual
    |c(h/2) - c(h/4)| / 3.  A value only counts as resolved when the three
    levels shrink like a second-order method (ratio near 4): differences that
    fail this are measurement noise, not derivatives, no matter how large.
    Nor does a value below the rounding error of its own differences count,
    however the three levels happen to line up.
    """
    steps = [h / d for d in (1, 2, 4)]
    stencils = [fd_stencil(x, s) for s in steps]
    for s, stencil in zip(steps, stencils):
        for q in stencil:
            if not frame.in_domain(q):
                raise ChartExitError(
                    f"FD stencil point {q} leaves the chart; retry with h < {s / 4:g}"
                )
    vals = frame.coefficients(np.concatenate(stencils))  # all three levels in one call
    cs = [_coefficient_c(vals[7 * i : 7 * i + 7], s) for i, s in enumerate(steps)]
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
    # rounding bound of the finest level: each (a, b) carries an absolute
    # error of ROUNDOFF_ULPS * eps * (1 + |a| + |b|), and c sums four
    # differences of them, two weighted by a and b, divided by 2 (h/4)
    a0, b0 = (abs(v) for v in vals[14])
    floor = ROUNDOFF_ULPS * np.finfo(float).eps * (1 + a0 + b0) * (2 + a0 + b0) / (h / 4)
    resolved = order_ok and abs(c) > max(4.0 * err, RESOLVED_ABS_FLOOR, floor)
    return BracketSample(
        point=np.asarray(x, dtype=float),
        h=h,
        c=float(c),
        error=float(err),
        order_ratio=float(order_ratio),
        resolved=bool(resolved),
    )


def vector_field_bracket(U, V, h):
    """[U, V](x) = DV(x) U(x) - DU(x) V(x) from the values U, V (each (7,3))
    of a pair field on ``fd_stencil(x, h)``."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    Ju = ((U[1::2] - U[2::2]) / (2 * h)).T
    Jv = ((V[1::2] - V[2::2]) / (2 * h)).T
    return Jv @ U[0] - Ju @ V[0]


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
    co = cocycle(phi, x, k)
    y = co.points[-1]
    # x, its stencil and phi^k(x), pulled back once and shared
    stencil = fd_stencil(x, h)
    planes = pullback_planes(phi, np.vstack([stencil, y]), E0, k_plane)
    E_x, E_y = planes[0], planes[-1]
    F_x = compute_fast_line(phi, x, k=k_line)

    v = vector_field_bracket(*aligned_pairs(phi, stencil, planes[:-1], k), h)
    if np.linalg.norm(v) < DEGENERATE_TOL:
        return InvarianceResidual(x, k, 0.0, 0.0, True)

    pv = project_along(v, E_x, F_x)
    if co.overflow:
        raise ConvergenceError("cocycle overflow: reduce k or use log-scale ratios")
    D = co.final
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
