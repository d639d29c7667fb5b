"""Invariant splittings by dynamical iteration and domination diagnostics.

The slow 2-plane is obtained by pulling an initial plane field back along the
forward orbit (with per-step re-orthonormalization); the fast line by pushing
a seed direction forward along the backward orbit.  Growth of the restricted
cocycles is accumulated in log scale so arbitrarily deep iterates never
overflow, and per-k ratio tables for the three domination conditions are
assembled from those logs.  The pullback kernel is in ``dynamics``, for frames.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np

from .dynamics import Diffeo, _differentials, _field_bases, _forward, _pull_back, _tangent, _walks_orbit, orbit
from .errors import DegeneratePlaneError
from .geometry import Line1, _row_dots, _row_norms, line_angles, plane_angles, unit_lines
from .geometry import _record, wrap_point

RESIDUAL_TOL = 1e-6
MIN_FAST_ANGLE = 1e-3
FAST_LINE_ROWS = 1 << 15  # one-step differentials per kernel call in ``_fast_lines``

DEFAULT_L0 = Line1(np.array([0.0, 0.0, 1.0]))


def _fast_lines(phi: Diffeo, X, L, k):
    """Push unit seeds L (N,3) forward with normalisation along the depth-k
    backward orbits of the rows of X (N,3), to the rows: power iteration,
    converging to the most expanded line at the spectral gap of the cocycle.
    Each step is a batched product and row-dot norm, so each row's bits do
    not depend on N. A map with no shear stage has one differential, which
    every step takes, repeated to (N, 3, 3): no backward orbit is walked.
    Otherwise the steps run in blocks of at most ``FAST_LINE_ROWS`` rows,
    deepest block first, one kernel call of differentials each. The
    backward orbit keeps only each block's shallow end, and the block
    retreats again from it; retreat is deterministic and row-independent,
    so every point is bitwise that of one pass, and memory stays bounded
    as k grows."""
    if k < 0:
        raise ValueError("iteration depth k must be >= 0")
    if phi.shear_stages():
        block = max(1, FAST_LINE_ROWS // max(1, len(X)))
        tops = range(k, 0, -block)  # each block's deepest step, deepest block first
        # a block's shallow end is the next block's top, or 0 for the last block
        ends = [X]
        for top in reversed(tops[1:]):
            ends.append(orbit(phi, ends[-1], min(top, block), direction="inverse")[-1])
        pts = (orbit(phi, Y, min(top, block), direction="inverse")[:0:-1] for top, Y in zip(tops, reversed(ends)))
        diffs = (D for P in pts for D in _differentials(phi, np.concatenate(P)).reshape(len(P), len(X), 3, 3))
    else:
        diffs = itertools.repeat(np.repeat(_differentials(phi, X[:1]), len(X), axis=0), k)
    for D in diffs:
        w = (D @ L[:, :, None])[:, :, 0]
        L = w / _row_norms(w)[:, None]
    return L


@_record
class GrowthTable:
    """Per-k log growth of the cocycle restricted to a plane and a line.

    Index j of each array corresponds to k = j + 1.  ``log_s1 <= log_s2`` are
    the restricted singular values on the plane, ``log_f`` the growth of the
    line.  Everything is accumulated multiplicatively with per-step rescaling,
    so no entry overflows regardless of depth.
    """

    log_s1: np.ndarray
    log_s2: np.ndarray
    log_f: np.ndarray

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


def _accumulate_growth(diffs, planes, F) -> list:
    """Restricted growth of N orbits along one pullback chain, one table each.

    ``diffs`` (k, N, 3, 3) are the step differentials and ``planes``
    (k + 1, N, 3, 2) the orthonormal bases of one backward sweep at orbit
    points 0..k, so D_i Q_i = Q_(i+1) R_i up to rounding; the 2x2 step
    matrices Q_(i+1)^T D_i Q_i are multiplied with rescaling, the restricted
    determinant as a log sum. The unit lines ``F`` (N,3) at orbit point 0 are
    pushed forward with normalisation, their log norms summed. Every product
    is batched, one BLAS or LAPACK call per row, so each row's bits do not
    depend on N.
    """
    k_max, N = diffs.shape[:2]
    T = np.broadcast_to(np.eye(2), (N, 2, 2))
    log_acc, log_det_acc, log_f_acc = np.zeros((3, N))
    log_s1, log_s2, log_f = np.empty((3, N, k_max))
    for i, D in enumerate(diffs):
        M = planes[i + 1].swapaxes(1, 2) @ (D @ planes[i])
        log_det_acc += np.log(abs(M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]))
        T = M @ T
        scale = np.abs(T).max(axis=(1, 2))
        log_acc += np.log(scale)
        T = T / scale[:, None, None]
        sv = np.linalg.svd(T, compute_uv=False)
        log_s2[:, i] = np.log(sv[:, 0]) + log_acc
        log_s1[:, i] = log_det_acc - log_s2[:, i]

        w = (D @ F[:, :, None])[:, :, 0]
        n = _row_norms(w)
        log_f_acc += np.log(n)
        log_f[:, i] = log_f_acc
        F = w / n[:, None]
    return [GrowthTable(*logs) for logs in zip(log_s1, log_s2, log_f)]


def _splitting_pass(phi: Diffeo, X, k_max: int, E0, k_plane, k_line, carried=np.zeros((0, 3))):
    """The splitting at the rows of X (N,3), k_max >= 2: each row's
    invariance residual (N,) in radians, the angle from D E_x to E_phi(x)
    plus the angle from D F_x to F_phi(x), its restricted growth table, and
    the depth-k_plane bases (3, 2, M) at the ``carried`` rows (M,3). A k_max
    below 2 fits no rate and is a ValueError before any map step.

    One forward pass and one backward sweep run over the rows x at depth
    k_max + k_plane, then x, phi(x) and the carried rows at depth k_plane:
    the deep rows' bases at orbit points k_max..0 are the growth planes, the
    final stack's other columns the planes E and the carried bases, bitwise
    ``_pullback_bases``' for k_plane > 0 (the depth-0 seeds are
    orthonormalised). The forward pass is skipped where ``_walks_orbit``
    says no record or endpoint is read. The unit fast lines F at x and
    phi(x) come from one depth-``k_line`` power iteration, and those at x
    are pushed along the orbit (the fast line attracts). The step
    differentials, D(x) first, are the deep rows' at the first k_max
    records. Each row's bits do not depend on N or on the carried rows.

    An E0 whose pullback contains the fast line converges to another
    invariant plane, which passes the residual test, so a plane E_x within
    ``MIN_FAST_ANGLE`` of F_x is a DegeneratePlaneError naming ``e0.basis``.
    """
    if k_max < 2:
        raise ValueError(f"a fitted rate needs at least 2 depths, got k_max = {k_max}")
    N = len(X)
    XY = np.concatenate([X, phi.apply(X)])
    # before the pass, so the power iteration's blocks never meet its records
    F = unit_lines(_fast_lines(phi, XY, np.broadcast_to(DEFAULT_L0.direction, XY.shape), k_line))
    live = [3 * N + len(carried)] * k_plane + [N] * k_max  # rows deeper than step i
    Y = wrap_point(np.concatenate([X, XY, carried]))
    recs = [[None] * len(phi.stages)] * len(live)
    if _walks_orbit(phi, E0):
        Y, recs = _forward(phi, Y, live)
    seed = _field_bases(E0, Y)
    # only the stacks at orbit points k_max..0, the last ones yielded, are kept
    stacks = collections.deque([seed], maxlen=k_max + 1)
    stacks.extend(_pull_back(phi, recs, seed, live))
    final = stacks[-1] if k_plane else seed
    E = np.ascontiguousarray(final[:, :, N : 3 * N].transpose(2, 0, 1))
    # the bases are orthonormal, so their cross product is the unit normal
    fast_angle = np.arcsin(np.minimum(1.0, np.abs(_row_dots(np.cross(E[:N, :, 0], E[:N, :, 1]), F[:N]))))
    if (fast_angle <= MIN_FAST_ANGLE).any():
        worst = int(fast_angle.argmin())
        raise DegeneratePlaneError(
            f"the pullback of 'e0.basis' at {X[worst].tolist()} is {fast_angle[worst]:.3e} rad "
            f"from the fast line (<= {MIN_FAST_ANGLE:g}): seed a plane transversal to it"
        )
    planes = np.ascontiguousarray(np.transpose([Q[:, :, :N] for Q in stacks], (0, 3, 1, 2))[::-1])
    eye = np.broadcast_to(np.eye(3)[:, :, None], (3, 3, N))
    deep = ([None if r is None else r[:, :N] for r in rec] for rec in recs[:k_max])
    diffs = np.array([_tangent(phi, rec, eye).transpose(2, 0, 1) for rec in deep])
    del recs, stacks
    D = diffs[0]
    pushed_F = unit_lines((D @ F[:N, :, None])[:, :, 0])
    residual = plane_angles(D @ E[:N], E[N:]) + line_angles(pushed_F, F[N:])
    return residual, _accumulate_growth(diffs, planes, F[:N]), final[:, :, 3 * N :]


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
    over the second half of the depths (k >= len // 2). A line needs two
    depths, so fewer is a ValueError."""
    logs = np.asarray(log_ratios)
    if len(logs) < 2:
        raise ValueError(f"a fitted rate needs at least 2 depths, got {len(logs)}")
    ks = np.arange(1, len(logs) + 1)
    mask = ks >= max(1, len(logs) // 2)
    slope = np.polyfit(ks[mask], logs[mask], 1)[0]
    return float(np.exp(slope))


@_record
class SampleDomination:
    point: np.ndarray
    residual: float  # invariance residual of the plane and line, radians
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
        g = self.growth
        ratios = np.exp([g.log_dyn(), g.log_vol(), g.log_bunch()]).T.tolist()
        return [(k, *r) for k, r in enumerate(ratios, 1)]


@_record
class DominationReport:
    samples: tuple  # SampleDomination, in input order
    excluded: tuple  # (point, residual) pairs that failed to converge
    verdict_dyn: bool
    verdict_vol: bool
    verdict_bunch_fails: bool  # True when bunching stays violated (> 1)


def _dominated(x, residual: float, g: GrowthTable) -> SampleDomination:
    """A converged sample's k0 and fitted rate of each ratio, in (dyn, vol, bunch) order."""
    logs = (g.log_dyn(), g.log_vol(), g.log_bunch())
    k0s, rates = map(eventual_k0, logs), map(fitted_rate, logs)
    return SampleDomination(x, residual, g, *k0s, *rates, g.volume_identity_max_abs())


def domination_report(
    phi: Diffeo,
    sample_points,
    k_max: int,
    E0=None,
    *,
    k_plane: int,
    k_line: int,
) -> DominationReport:
    """Ratio tables and eventual-domination verdicts over a list of points.

    A sample's invariance residual (``_splitting_pass``) compares the plane
    and line pushed from x with those recomputed at phi(x); samples above
    ``RESIDUAL_TOL`` are excluded and listed. Verdicts hold when every converged sample admits a
    finite k0 with the ratio below 1 from k0 on; the bunching verdict is a
    *failure* flag, true when the squared-norm ratio still exceeds 1 at depth
    k_max. The samples run as one stack (one power iteration, one pass and
    one sweep, excluded samples included), and each sample's numbers are
    bitwise those of a one-sample report.
    """
    X = np.asarray(sample_points, dtype=float).reshape(-1, 3)
    residual, growth, _ = _splitting_pass(phi, X, k_max, E0, k_plane, k_line)
    ok = residual < RESIDUAL_TOL
    kept = zip(X[ok], residual[ok], [g for g, keep in zip(growth, ok) if keep])
    per_sample = [_dominated(x, float(r), g) for x, r, g in kept]
    return DominationReport(
        samples=tuple(per_sample),
        excluded=tuple((x, float(r)) for x, r in zip(X[~ok], residual[~ok])),
        verdict_dyn=bool(per_sample) and all(d.k0_dyn is not None for d in per_sample),
        verdict_vol=bool(per_sample) and all(d.k0_vol is not None for d in per_sample),
        verdict_bunch_fails=bool(per_sample)
        and all(d.k0_bunch is None for d in per_sample),
    )
