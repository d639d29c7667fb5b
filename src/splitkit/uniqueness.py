"""Numerical diagnostics for unique integrability.

Two families of checks: 1-form certificate data on a fixed x2-slice (sup-norm
convergence of the graph coefficient and boundedness of its transversal
derivative across a family of frames), and leaf comparisons (flow-order
commutator defect and Lipschitz dependence of patches on their seed point).
Both take frames, whatever built them.
"""

from __future__ import annotations

import numpy as np

from .frames import AdaptedFrame, _coefficients, _graph_vectors, _jacobians
from .geometry import _record
from .surface import SurfacePatch, _build_patches

# slack of the two-step decrease test on the slice distances
DECREASE_SLACK = 1e-9


@_record
class HartmanData:
    slice_x2: float
    sup_da_dx3: tuple  # per-k sup over the slice grid of |da^(k)/dx3|
    sup_distance: tuple  # per-k sup |a^(k) - a| on the slice
    bounded: bool  # every sup finite
    distances_decreasing: bool

    @property
    def max_sup(self):
        return max(self.sup_da_dx3)


def hartman_slice_report(
    frames,
    limit_frame: AdaptedFrame,
    slice_x2: float,
    grid_n: int,
    h: float,
) -> HartmanData:
    """Certificate data for a family of frames on the slice x2 = const.

    ``frames`` is a sequence of (k, AdaptedFrame).  The verdict reports what
    was measured: finiteness of the transversal-derivative sups and sup-norm
    distances to the limit coefficient that do not increase with k.
    """
    xs = np.linspace(0.0, 1.0, grid_n, endpoint=False)
    zs = np.linspace(0.0, 1.0, grid_n, endpoint=False)
    grid = np.array([[xv, slice_x2, zv] for xv in xs for zv in zs])
    a_lim = _coefficients([limit_frame] * len(grid), grid)[:, 0]
    # every frame on the grid, with its x3 difference, from one call
    row_frames = [frame for _, frame in frames for _ in grid]
    C, J = _jacobians(row_frames, np.tile(grid, (len(frames), 1)), h, axes=(2,))
    shape = (len(frames), len(grid))
    sup_d = np.max(np.abs(J[:, 0, 0].reshape(shape)), axis=1).tolist()
    sup_dist = np.max(np.abs(C[:, 0].reshape(shape) - a_lim), axis=1).tolist()
    # two-step envelope: convergence with an alternating-sign transient is
    # not monotone at consecutive depths, but every other depth must shrink
    decreasing = all(
        sup_dist[i] <= sup_dist[i - 2] + DECREASE_SLACK for i in range(2, len(sup_dist))
    )
    return HartmanData(
        slice_x2=float(slice_x2),
        sup_da_dx3=tuple(sup_d),
        sup_distance=tuple(sup_dist),
        bounded=bool(np.all(np.isfinite(sup_d)) and np.all(np.isfinite(sup_dist))),
        distances_decreasing=bool(decreasing),
    )


@_record
class LeafComparison:
    order_mismatch: float  # max node distance between xy- and yx-ordered patches
    lipschitz: float  # max patch displacement / seed displacement
    lipschitz_refined: float  # same at delta / 2
    stability: float  # |refined - original| / original


def _patch_distance(p1: SurfacePatch, p2: SurfacePatch) -> float:
    return float(np.max(np.linalg.norm(p1.points - p2.points, axis=2)))


def leaf_divergence(
    frame: AdaptedFrame,
    x0,
    epsilon: float,
    n: int,
    delta: float,
    step,
) -> LeafComparison:
    """Order-commutation and seed-Lipschitz diagnostics for one frame.

    The seed displacement u is X/|X| of the frame at x0, so both seeds lie
    on the same candidate leaf when the frame is integrable.  The xy and yx
    patches at x0 and the xy patches at x0 + delta u and x0 + delta/2 u are
    integrated as one stack.
    """
    x0 = np.asarray(x0, dtype=float)
    (X,) = _graph_vectors(_coefficients([frame], x0), 0)
    u = X / np.linalg.norm(X)
    half = delta / 2
    p_xy, p_yx, p_delta, p_half = _build_patches(
        [frame] * 4,
        [x0, x0, x0 + delta * u, x0 + half * u],
        ("xy", "yx", "xy", "xy"),
        epsilon,
        n,
        step,
        names=("xy", "yx", "+delta", "+delta/2"),
    )
    l1 = _patch_distance(p_xy, p_delta) / delta
    l2 = _patch_distance(p_xy, p_half) / half
    return LeafComparison(
        order_mismatch=_patch_distance(p_xy, p_yx),
        lipschitz=float(l1),
        lipschitz_refined=float(l2),
        stability=float(abs(l2 - l1) / max(l1, 1e-300)),
    )
