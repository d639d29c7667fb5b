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

from .dynamics import Diffeo, _differentials, _orbit_records
from .errors import ConvergenceError
from .frames import AdaptedFrame, PullbackFrame, _jacobians, aligned_pairs, fd_stencil
from .geometry import Line1, Plane2, project_along
from .splitting import _growth_along, _pullback_bases, compute_fast_line, fitted_rate

DEFAULT_FD_STEP = 1e-4
RESOLVED_ABS_FLOOR = 1e-11
DEGENERATE_TOL = 1e-13  # bracket norms below this vanish to FD precision
# A coefficient value is trusted to this many ulps of its unit normal. It is
# a lower bound: pullback frames of the example map carry 1 to 5 ulps of
# rounding noise at depths 1 to 4 and about 25 at depth 6, and the Richardson
# order test is what rejects the noisier entries above this floor.
ROUNDOFF_ULPS = 8
COCYCLE_OVERFLOW_NORM = 1e12  # D(phi^k) entries past this: use log-scale ratios


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
    return _bracket_samples([frame], x, [h])[0]


def _bracket_samples(frames, x, hs):
    """The samples of ``bracket_coefficient`` at x, one per frame and step
    h, from one ``_jacobians`` call over all their ladders (h, h/2, h/4)."""
    x = np.asarray(x, dtype=float)
    steps = [h / d for h in hs for d in (1, 2, 4)]
    C, J = _jacobians([f for f in frames for _ in range(3)], np.tile(x, (len(steps), 1)), steps)
    # c = X(b) - Y(a), with X = e1 + a e3 and Y = e2 + b e3
    c = (J[:, 1, 0] + C[:, 0] * J[:, 1, 2]) - (J[:, 0, 1] + C[:, 1] * J[:, 0, 2])
    samples = []
    for h, cs, (a0, b0) in zip(hs, c.reshape(-1, 3), np.abs(C[2::3])):
        d01 = abs(cs[0] - cs[1])
        d12 = abs(cs[1] - cs[2])
        err = d12 / 3.0
        converged_tol = max(RESOLVED_ABS_FLOOR, 0.02 * abs(cs[2]))
        if max(d01, d12) <= converged_tol:
            order_ratio = 4.0  # all three levels agree; order test moot
            order_ok = True
        else:
            order_ratio = d01 / max(d12, 1e-300)
            order_ok = 2.0 <= order_ratio <= 8.0
        # rounding bound of the finest level: each (a, b) carries an absolute
        # error of ROUNDOFF_ULPS * eps * (1 + |a| + |b|), and c sums four
        # differences of them, two weighted by a and b, divided by 2 (h/4)
        floor = ROUNDOFF_ULPS * np.finfo(float).eps * (1 + a0 + b0) * (2 + a0 + b0) / (h / 4)
        resolved = order_ok and abs(cs[2]) > max(4.0 * err, RESOLVED_ABS_FLOOR, floor)
        samples.append(
            BracketSample(x, h, float(cs[2]), float(err), float(order_ratio), bool(resolved))
        )
    return samples


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
    degenerate: bool  # bracket vanished to FD precision (e.g. linear maps)


def invariance_identity_residual(
    phi: Diffeo,
    x,
    k: int,
    h=DEFAULT_FD_STEP,
    E0=None,
    k_plane=400,
    k_line=600,
    fast_line: Line1 | None = None,
) -> InvarianceResidual:
    """Residual of the projected-bracket transport identity at depth k.

    Brackets are taken of the orthonormal pair field of the converged slow
    plane; the identity holds exactly for an exactly invariant splitting,
    so the residual measures convergence quality, not FD noise.

    ``fast_line`` is the depth-``k_line`` fast line at x when the caller
    already has it (``BoundCurve.fast_line``); it is reused at phi^k(x) too
    when that is x itself, as at a periodic sample.
    """
    x = np.asarray(x, dtype=float)
    pts = np.concatenate(_orbit_records(phi, x[None], k)[0])
    y = pts[-1]
    # x, its stencil and phi^k(x), pulled back once and shared
    stencil = fd_stencil(x, h)
    B = _pullback_bases(phi, np.vstack([stencil, y]), E0, k_plane)
    E_x, E_y = Plane2(B[:, :, 0]), Plane2(B[:, :, -1])
    F_x = compute_fast_line(phi, x, k=k_line) if fast_line is None else fast_line

    v = vector_field_bracket(*aligned_pairs(phi, stencil, B[:, :, :-1], k), h)
    if np.linalg.norm(v) < DEGENERATE_TOL:
        return InvarianceResidual(x, k, 0.0, True)

    pv = project_along(v, E_x, F_x)
    # D(phi^k): the k one-step differentials along the orbit, multiplied
    # densely (pushing one product through all k steps rounds differently);
    # the guard checks every partial product
    D, overflow = np.eye(3), False
    for D_i in _differentials(phi, pts[:-1]):
        D = D_i @ D
        overflow |= np.max(np.abs(D)) > COCYCLE_OVERFLOW_NORM
    if overflow:
        raise ConvergenceError("cocycle overflow: reduce k or use log-scale ratios")
    F_y = F_x if y.tobytes() == x.tobytes() else compute_fast_line(phi, y, k=k_line)

    lhs = project_along(D @ v, E_y, F_y)
    rhs = D @ pv
    denom = np.linalg.norm(rhs)
    if denom < DEGENERATE_TOL:
        return InvarianceResidual(x, k, 0.0, True)
    return InvarianceResidual(x, k, float(np.linalg.norm(lhs - rhs) / denom), False)


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
    limit_lhs: float  # |c| of the converged (deep-pullback) frame, at step h
    limit_lhs_error: float
    limit_resolved: bool  # resolved at steps h and h/10, and the two agree
    rate_rhs: float  # fitted per-step decay of the rhs
    fast_line: Line1  # depth-k_line fast line at the point; it seeds the growth sweep

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

    The limit bracket is reported at step h. It counts as resolved only when
    a second ladder at h/10 is resolved too and the two values agree within
    four times their summed error bars: a frame with no derivative can pass
    the Richardson test of one ladder with an FD artefact.
    """
    x = np.asarray(x, dtype=float)
    fast_line = compute_fast_line(phi, x, k=k_line)
    (growth,) = _growth_along(phi, x[None], k_max, E0, k_plane, fast_line.direction[None])
    log_vol = growth.log_vol()
    log_f = growth.log_f

    # the ladders of every depth at its adapted step, and the limit frame's
    # at h and h/10, from one call
    limit_frame = PullbackFrame(phi, k_plane, E0=E0)
    h_ks = [h * float(np.exp(-log_f[k - 1])) for k in range(1, k_max + 1)]
    frames = [PullbackFrame(phi, k, E0=E0) for k in range(1, k_max + 1)]
    *samples, limit, fine = _bracket_samples(frames + [limit_frame] * 2, x, h_ks + [h, h / 10])

    entries = []
    for k, (h_k, bs) in enumerate(zip(h_ks, samples), 1):
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
    agree = abs(limit.c - fine.c) <= 4.0 * (limit.error + fine.error)
    return BoundCurve(
        point=x,
        h=h,
        entries=tuple(entries),
        limit_lhs=limit.norm,
        limit_lhs_error=limit.error,
        limit_resolved=limit.resolved and fine.resolved and agree,
        rate_rhs=fitted_rate(log_vol),
        fast_line=fast_line,
    )
