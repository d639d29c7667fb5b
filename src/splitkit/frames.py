"""Adapted local frames of a plane field.

A plane transverse to the third coordinate axis is the span of
X = d/dx1 + a d/dx3 and Y = d/dx2 + b d/dx3; the coefficient pair (a, b) is
the graph slope of the plane and is what all bracket computations consume.
Frames come from analytic formulas or from dynamical pullback at depth k.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Diffeo, _pullback_bases
from .errors import ChartUnsuitableError

CHART_NORMAL_TOL = 1e-6


def adapted_coefficients(B):
    """Graph coefficients (a, b), shape (N, 2), with X = e1 + a e3 and
    Y = e2 + b e3, of the planes spanned by a (3, 2, N) basis stack.

    The unit normal is the cross product over its length, the square root of
    a row dot product through ``np.matmul``: that is the BLAS dot which
    ``np.linalg.norm`` of one 3-vector calls, so every row is bitwise the
    normal of its plane alone, whatever N is. The cross product is
    written out as the products and differences ``np.cross`` makes.
    """
    u, v = B[:, 0], B[:, 1]
    c = np.empty((B.shape[2], 3))
    c[:, 0] = u[1] * v[2] - u[2] * v[1]
    c[:, 1] = u[2] * v[0] - u[0] * v[2]
    c[:, 2] = u[0] * v[1] - u[1] * v[0]
    n = c / np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0]
    low = np.abs(n[:, 2]) <= CHART_NORMAL_TOL
    if low.any():
        raise ChartUnsuitableError(
            f"chart unsuitable: |normal_3| = {abs(n[low.argmax(), 2]):.3e} <= "
            f"{CHART_NORMAL_TOL:g}; permute coordinates so the plane is a graph over (x1, x2)"
        )
    return -n[:, :2] / n[:, 2:]


def _graph_vectors(C, which):
    """The fields X = e1 + a e3 (``which`` = 0) or Y = e2 + b e3 (1) of (N, 2)
    coefficient pairs, as an (N,3) stack; ``which`` may also be a sequence
    with one column per row."""
    rows = np.arange(len(C))
    out = np.zeros((len(C), 3))
    out[rows, which] = 1.0
    out[:, 2] = C[rows, which]
    return out


def fd_stencil(x, h):
    """The centered-difference stencil of x as a (7,3) stack: rows x, x + h e1,
    x - h e1, x + h e2, x - h e2, x + h e3, x - h e3. For an (N,3) stack of
    points, with one step for all or one per row, an (N,7,3) stack."""
    x = np.asarray(x, dtype=float)
    E = np.asarray(h, dtype=float)[..., None, None] * np.eye(3)
    moved = [op(x, E[..., i, :]) for i in range(3) for op in (np.add, np.subtract)]
    return np.stack([x, *moved], axis=-2)


class AdaptedFrame:
    """Base class: a coefficient pair (a, b) evaluable at points of the chart.

    ``coefficients(p)`` returns the pair (a, b) for a point of shape (3,)
    and an (N, 2) array for a stack of shape (N, 3); so do the frame fields
    ``X`` and ``Y``, with one vector per point.  Derivatives of the
    coefficients are centred differences (``_jacobians``).
    """

    def coefficients(self, p):
        raise NotImplementedError

    def X(self, p):
        """X = e1 + a e3 at a point, or at every row of a stack."""
        return self._graph_field(p, 0)

    def Y(self, p):
        """Y = e2 + b e3 at a point, or at every row of a stack."""
        return self._graph_field(p, 1)

    def _graph_field(self, p, which):
        """X (``which`` = 0) or Y (1) from one coefficients call."""
        C = np.asarray(self.coefficients(p), dtype=float).reshape(-1, 2)
        return _graph_vectors(C, which).reshape(np.shape(p))


class AnalyticFrame(AdaptedFrame):
    """Coefficients given by closed-form functions of a point."""

    def __init__(self, a, b):
        self._a = a
        self._b = b

    def coefficients(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 2:
            return np.array([self.coefficients(q) for q in p]).reshape(-1, 2)
        return float(self._a(p)), float(self._b(p))


def constant_frame(a, b) -> AnalyticFrame:
    return AnalyticFrame(lambda p: a, lambda p: b)


def contact_frame() -> AnalyticFrame:
    """The kernel of dx3 - x1 dx2: a = 0, b = x1, bracket coefficient 1."""
    return AnalyticFrame(lambda p: 0.0, lambda p: p[0])


class PullbackFrame(AdaptedFrame):
    """Adapted frame of the depth-k pullback plane field, evaluated on demand.

    Evaluations are cached by point key; the field is pure, so a cached
    value never goes stale. The points of a stack that miss the cache are
    pulled back together in one kernel call (a record-free stack reads the
    bases its map keeps by depth) and their bases converted in one
    ``adapted_coefficients`` call, and a value is bitwise the same whether
    it was computed alone or in a batch. At k = 0 the frame is E0 itself,
    converted from the bases its planes store.
    """

    def __init__(self, phi: Diffeo, k: int, E0=None):
        self.phi = phi
        self.k = int(k)
        self.E0 = E0
        self._cache = {}

    def coefficients(self, p):
        p = np.asarray(p, dtype=float)
        C = _pulled([self] * (p.size // 3), p.reshape(-1, 3))
        return tuple(C[0].tolist()) if p.ndim == 1 else C


def _pulled(frames, P):
    """Coefficient pairs (N, 2) at the rows of an (N,3) stack, of
    ``PullbackFrame``s that share a map and E0, one frame per row.

    The rows that miss their frame's cache, each distinct (frame, point)
    once, are pulled back in one kernel call at each frame's depth and
    converted in one ``adapted_coefficients`` call. A point's key is its
    row's bytes (+0.0 and -0.0 differ), read off one view.
    """
    keys = np.ascontiguousarray(P).view((np.void, 24)).ravel().tolist()
    missing = {}  # (frame, key) -> first row, for the distinct misses in order
    for n, (frame, key) in enumerate(zip(frames, keys)):
        if key not in frame._cache:
            missing.setdefault((frame, key), n)
    if missing:
        rows = list(missing.values())
        depths = [frames[n].k for n in rows]
        B = _pullback_bases(frames[0].phi, P[rows], frames[0].E0, depths)
        for (frame, key), ab in zip(missing, adapted_coefficients(B).tolist()):
            frame._cache[key] = ab
    return np.array([frame._cache[key] for frame, key in zip(frames, keys)]).reshape(-1, 2)


def _graph_field_of(frames, which):
    """The field X (``which`` = 0) or Y (1), row n read off ``frames[n]``,
    as a map of (N,3) stacks, for ``flow``; ``which`` may also be a
    sequence with one column per row."""
    return lambda P: _graph_vectors(_coefficients(frames, P), which)


def _jacobians(frames, P, h, axes=(0, 1, 2)):
    """Coefficient pairs (N, 2) at the rows of an (N,3) stack, row n of
    ``frames[n]``, and their centred differences d(a, b)/dx_j (N, 2,
    len(axes)), j in ``axes``, at step h, one for all rows or one per row.

    Each row's centre and the ``fd_stencil`` rows of ``axes`` go in one
    ``_coefficients`` call: the pairs are the centres' values, bitwise each
    frame's own, and the misses of all pullback frames make one kernel
    call. Frame coefficients are differenced only here.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    h = np.broadcast_to(np.asarray(h, dtype=float), len(P))
    rows = [0, *(r for j in axes for r in (2 * j + 1, 2 * j + 2))]
    stencils = fd_stencil(P, h)[:, rows].reshape(-1, 3)
    C = _coefficients([f for f in frames for _ in rows], stencils).reshape(-1, len(rows), 2)
    J = (C[:, 1::2] - C[:, 2::2]).transpose(0, 2, 1) / (2 * h)[:, None, None]
    return C[:, 0], J


def _coefficients(frames, P):
    """Coefficient pairs (N, 2) at the rows of an (N,3) stack, row n read off
    ``frames[n]``: bitwise what each frame's own ``coefficients`` gives.

    The ``PullbackFrame``s that share a map and E0 fetch their cache misses
    in one kernel call, one depth per row; any other frame evaluates its own
    rows in one ``coefficients`` call.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    shared = {
        frame: (id(frame.phi), id(frame.E0)) if isinstance(frame, PullbackFrame) else id(frame)
        for frame in dict.fromkeys(frames)
    }
    if len(set(shared.values())) == 1 and isinstance(frames[0], PullbackFrame):
        return _pulled(frames, P)  # one group: no per-row grouping
    groups = {}
    for n, frame in enumerate(frames):
        groups.setdefault(shared[frame], []).append(n)
    C = np.empty((len(P), 2))
    for rows in groups.values():
        group = [frames[n] for n in rows]
        if isinstance(group[0], PullbackFrame):
            C[rows] = _pulled(group, P[rows])
        else:
            C[rows] = group[0].coefficients(P[rows])
    return C


def coefficient_grid_rows(frames_by_k, lo, hi, n, x3=0.0):
    """Rows (x1, x2, x3, k, a, b) over a regular grid, for plotting dumps;
    the coefficients of all the frames come from one call."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    grid = np.array([[xv, yv, x3] for xv in xs for yv in ys])
    frames = [frame for _, frame in frames_by_k for _ in grid]
    C = _coefficients(frames, np.tile(grid, (len(frames_by_k), 1))).reshape(-1, len(grid), 2)
    return [
        (float(xv), float(yv), float(x3), int(k), float(a), float(b))
        for (k, _), pairs in zip(frames_by_k, C)
        for (xv, yv, _), (a, b) in zip(grid, pairs)
    ]
