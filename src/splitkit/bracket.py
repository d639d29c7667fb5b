"""Finite-difference Lie brackets of adapted frames and decay diagnostics.

For frames in graph form the bracket is (X(b) - Y(a)) e3, so only scalar
centered differences of the coefficient pair are needed; every value carries
a Richardson error estimate and a resolved flag marking whether it stands
above the measurement floor.  Bound curves compare the per-depth bracket
magnitude against the volume-ratio decay of the restricted cocycle.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Diffeo
from .frames import PullbackFrame, _jacobians, _point_keys, adapted_coefficients, fd_stencil
from .geometry import _record
from .splitting import _splitting_pass, fitted_rate

DEFAULT_FD_STEP = 1e-4
RESOLVED_ABS_FLOOR = 1e-11
# A coefficient value is trusted to this many ulps of its unit normal. It is
# a lower bound: pullback frames of the example map carry 1 to 5 ulps of
# rounding noise at depths 1 to 4 and about 25 at depth 6, and the Richardson
# order test is what rejects the noisier entries above this floor.
ROUNDOFF_ULPS = 8


@_record
class BracketSample:
    """Bracket coefficient c with [X, Y] = c e3, plus its FD provenance."""

    c: float
    error: float  # Richardson estimate from the h/2 vs h/4 pair
    order_ratio: float  # |c(h)-c(h/2)| / |c(h/2)-c(h/4)|, ~4 for clean 2nd order
    resolved: bool

    @property
    def norm(self):
        return abs(self.c)


def _ladders(X, hs):
    """The centres and steps of the bracket ladders at the rows of an (N,3)
    stack X, one step h per row: each row three times, at h, h/2 and h/4."""
    return np.repeat(X, 3, axis=0), [h / d for h in hs for d in (1, 2, 4)]


def bracket_samples(frames, X, hs):
    """Centered-difference bracket coefficients with validated error bars,
    one ``BracketSample`` per frame, each at its row of the (N,3) stack X
    and its step h, from one ``_jacobians`` call over all their ladders.

    Three step levels (h, h/2, h/4) are evaluated; the returned value is the
    finest one and the error estimate the usual extrapolation residual
    |c(h/2) - c(h/4)| / 3.  A value only counts as resolved when the three
    levels shrink like a second-order method (ratio near 4): differences that
    fail this are measurement noise, not derivatives, no matter how large.
    Nor does a value below the rounding error of its own differences count,
    however the three levels happen to line up.
    """
    C, J = _jacobians([f for f in frames for _ in range(3)], *_ladders(X, hs))
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
            BracketSample(float(cs[2]), float(err), float(order_ratio), bool(resolved))
        )
    return samples


@_record
class BoundCurve:
    point: np.ndarray
    entries: tuple  # BracketSample of the depth-k pullback frame, k = 1..k_max
    steps: tuple  # depth-adapted FD step of each entry
    rhs: tuple  # vol ratio of the converged splitting at each depth
    limit_lhs: float  # |c| of the converged (deep-pullback) frame, at step h
    limit_lhs_error: float
    limit_resolved: bool  # resolved at steps h and h/10, and the two agree
    rate_rhs: float  # fitted per-step decay of the rhs
    invariance_residual: float  # the splitting pass's one-step residual, radians

    def resolved_quotients(self):
        """(k, |c| / rhs) at every depth whose bracket is resolved."""
        return [
            (k, e.norm / rhs) for k, (e, rhs) in enumerate(zip(self.entries, self.rhs), 1) if e.resolved
        ]

    def running_max(self):
        """Running max of the quotient over resolved depths, per depth."""
        out = []
        cur = 0.0
        for e, rhs in zip(self.entries, self.rhs):
            if e.resolved:
                cur = max(cur, e.norm / rhs)
            out.append(cur)
        return out

    def rows(self):
        """CSV rows (k, h, c, lhs, rhs, quotient), the quotient blank where
        the bracket is not resolved."""
        return [
            (k, h, e.c, e.norm, rhs, e.norm / rhs if e.resolved else "")
            for k, (e, h, rhs) in enumerate(zip(self.entries, self.steps, self.rhs), 1)
        ]


def bound_curves(
    phi: Diffeo,
    points,
    k_max: int,
    h=DEFAULT_FD_STEP,
    E0=None,
    *,
    k_plane: int,
    k_line: int,
) -> list:
    """Per-depth bracket magnitude against the volume-ratio decay, one
    ``BoundCurve`` per row of the (N,3) stack ``points``.

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

    The rows run as one stack: one splitting pass (``_splitting_pass``)
    gives each row's growth and its invariance residual, reported as it is.
    The limit frame's distinct stencil points at h and h/10 ride that pass
    to depth k_plane and fill the frame's cache, so the ladders of every row
    and depth, rows of one ``_jacobians`` call, make one kernel call to
    depth k_max. A depth-0 limit frame converts E0's stored basis, not the
    pass's orthonormalised seeds, so it rides nothing and is read by that
    call. Each curve is bitwise that of a one-row call.
    """
    X = np.asarray(points, dtype=float).reshape(-1, 3)
    limit_frame = PullbackFrame(phi, k_plane, E0=E0)
    carried = {}  # the limit ladders' stencil points, each once, by cache key
    if k_plane:
        S = fd_stencil(*_ladders(np.repeat(X, 2, axis=0), [h, h / 10] * len(X))).reshape(-1, 3)
        carried = dict(zip(_point_keys(S), S))
    S = np.reshape(list(carried.values()), (-1, 3))
    residual, growth, B = _splitting_pass(phi, X, k_max, E0, k_plane, k_line, S)
    limit_frame._cache.update(zip(carried, adapted_coefficients(B).tolist()))

    # every row's ladders: its depths 1..k_max at their adapted steps, and
    # the limit frame's at h and h/10, from one call
    frames = [PullbackFrame(phi, k, E0=E0) for k in range(1, k_max + 1)] + [limit_frame] * 2
    h_ks = [[h * float(np.exp(-g.log_f[k - 1])) for k in range(1, k_max + 1)] for g in growth]
    samples = bracket_samples(
        frames * len(X),
        np.repeat(X, len(frames), axis=0),
        [s for hs in h_ks for s in hs + [h, h / 10]],
    )
    per_row = [samples[i : i + len(frames)] for i in range(0, len(samples), len(frames))]

    curves = []
    for x, g, hs, r, (*ladders, limit, fine) in zip(X, growth, h_ks, residual.tolist(), per_row):
        log_vol = g.log_vol()
        agree = abs(limit.c - fine.c) <= 4.0 * (limit.error + fine.error)
        curves.append(
            BoundCurve(
                point=x,
                entries=tuple(ladders),
                steps=tuple(hs),
                rhs=tuple(float(np.exp(v)) for v in log_vol),
                limit_lhs=limit.norm,
                limit_lhs_error=limit.error,
                limit_resolved=limit.resolved and fine.resolved and agree,
                rate_rhs=fitted_rate(log_vol),
                invariance_residual=r,
            )
        )
    return curves
