"""Adapted and orthonormal local frames of a plane field.

A plane transverse to the third coordinate axis is the span of
X = d/dx1 + a d/dx3 and Y = d/dx2 + b d/dx3; the coefficient pair (a, b) is
the graph slope of the plane and is what all bracket computations consume.
Frames come from analytic formulas or from dynamical pullback at depth k.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Diffeo, _differentials, _gram_schmidt, _orbit_records
from .errors import ChartUnsuitableError
from .geometry import Plane2, _row_dots, orthonormal_bases
from .splitting import _field_bases, _pullback_bases

CHART_NORMAL_TOL = 1e-6
SVD_TIE_TOL = 1e-12


def adapted_coefficients(B):
    """Graph coefficients (a, b), shape (N, 2), with X = e1 + a e3 and
    Y = e2 + b e3, of the planes spanned by a (3, 2, N) basis stack.

    The unit normal is the cross product over its length, the square root of
    a row dot product through ``np.matmul``: that is the BLAS dot which
    ``np.linalg.norm`` of one 3-vector calls, so every row is bitwise what
    ``Plane2(B[:, :, n]).normal`` gives, whatever N is.
    """
    c = np.ascontiguousarray(np.cross(B[:, 0], B[:, 1], axis=0).T)
    n = c / np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0]
    low = np.abs(n[:, 2]) <= CHART_NORMAL_TOL
    if low.any():
        raise ChartUnsuitableError(
            f"chart unsuitable: |normal_3| = {abs(n[low.argmax(), 2]):.3e} <= "
            f"{CHART_NORMAL_TOL:g}; permute coordinates so the plane is a graph over (x1, x2)"
        )
    return np.stack([-n[:, 0] / n[:, 2], -n[:, 1] / n[:, 2]], axis=1)


def plane_from_coefficients(a, b) -> Plane2:
    return Plane2.spanned_by([1.0, 0.0, a], [0.0, 1.0, b])


def fd_stencil(x, h):
    """The centered-difference stencil of x as a (7,3) stack: rows x, x + h e1,
    x - h e1, x + h e2, x - h e2, x + h e3, x - h e3."""
    x = np.asarray(x, dtype=float)
    E = h * np.eye(3)
    return np.array([x, x + E[0], x - E[0], x + E[1], x - E[1], x + E[2], x - E[2]])


class AdaptedFrame:
    """Base class: a coefficient pair (a, b) evaluable at points of the chart.

    ``coefficients(p)`` returns the pair (a, b) for a point of shape (3,)
    and an (N, 2) array for a stack of shape (N, 3); so do the frame fields
    ``X`` and ``Y``, with one vector per point.  ``plane`` and the gradient
    take one point.
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
        """X (``which`` = 0) or Y (1) from one coefficients call; on a stack,
        ``which`` may also be a sequence with one column per row."""
        c = np.asarray(self.coefficients(p), dtype=float)
        out = np.zeros(np.shape(p))
        if np.ndim(which):
            rows = np.arange(len(which))
            out[rows, which] = 1.0
            out[:, 2] = c[rows, which]
        else:
            out[..., which] = 1.0
            out[..., 2] = c[..., which]
        return out

    def plane(self, p) -> Plane2:
        a, b = self.coefficients(p)
        return plane_from_coefficients(a, b)

    def gradient_a(self, p, h=1e-6):
        """Centered differences of a at p, from one coefficients call on the
        whole stencil; its centre row makes the frame's value at p a cache hit."""
        vals = self.coefficients(fd_stencil(p, h))[:, 0]
        return (vals[1::2] - vals[2::2]) / (2 * h)


class AnalyticFrame(AdaptedFrame):
    """Coefficients given by closed-form functions, with an optional gradient of a."""

    def __init__(self, a, b, grad_a=None):
        self._a = a
        self._b = b
        self._grad_a = grad_a

    def coefficients(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 2:
            return np.array([self.coefficients(q) for q in p]).reshape(-1, 2)
        return float(self._a(p)), float(self._b(p))

    def gradient_a(self, p, h=1e-6):
        if self._grad_a is not None:
            return np.asarray(self._grad_a(np.asarray(p, dtype=float)), dtype=float)
        return super().gradient_a(p, h)


def constant_frame(a, b) -> AnalyticFrame:
    return AnalyticFrame(lambda p: a, lambda p: b, grad_a=lambda p: np.zeros(3))


def contact_frame() -> AnalyticFrame:
    """The kernel of dx3 - x1 dx2: a = 0, b = x1, bracket coefficient 1."""
    return AnalyticFrame(lambda p: 0.0, lambda p: p[0], grad_a=lambda p: np.zeros(3))


class PullbackFrame(AdaptedFrame):
    """Adapted frame of the depth-k pullback plane field, evaluated on demand.

    Evaluations are cached by point key; the field is pure, so a cached
    value never goes stale. The points of a stack that miss the cache are
    pulled back together in one kernel call and their bases converted in one
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
        rows = p.reshape(-1, 3)
        keys = [q.tobytes() for q in rows]
        missing = {}  # key -> first row index, for the distinct misses in order
        for i, key in enumerate(keys):
            if key not in self._cache:
                missing.setdefault(key, i)
        if missing:
            P = rows[list(missing.values())]
            if self.k == 0:
                B = _field_bases(self.E0, P, orthonormal=False)
            else:
                B = _pullback_bases(self.phi, P, self.E0, self.k)
            self._cache.update(zip(missing, map(tuple, adapted_coefficients(B).tolist())))
        if p.ndim == 1:
            return self._cache[keys[0]]
        return np.array([self._cache[key] for key in keys]).reshape(-1, 2)


def aligned_pairs(phi: Diffeo, points, bases, k: int):
    """Orthonormal pairs (Z, W), each (N, 3), of the planes that a (3, 2, N)
    basis stack spans at the rows of ``points`` (N, 3): the right singular
    vectors of D(phi^k) restricted to each plane, so the product of their
    image norms is |det| of the restriction, sign-aligned to the pair at row 0.

    The bases are orthonormalised and pushed forward through the one-step
    differentials of all orbits, one Gram-Schmidt per step; the 2x2 R
    factors multiply, rescaled per step, into a matrix with the same right
    singular vectors. On a singular-value tie the SVD direction is
    arbitrary, so the orthonormalised basis is kept. SVD vectors carry an
    arbitrary sign per point; aligning to row 0 makes the field continuous
    over a finite-difference stencil. Every product is batched, one BLAS or
    LAPACK call per row, so each row's bits do not depend on N.
    """
    P = np.asarray(points, dtype=float)
    N = len(P)
    Q0 = orthonormal_bases(np.transpose(bases, (2, 0, 1)))
    T = np.broadcast_to(np.eye(2), (N, 2, 2))
    if k > 0:
        pts, _ = _orbit_records(phi, P, k)
        diffs = _differentials(phi, np.concatenate(pts[:-1])).reshape(k, N, 3, 3)
        Q = Q0
        R = np.zeros((N, 2, 2))
        for D in diffs:
            V, (R[:, 0, 0], R[:, 0, 1], R[:, 1, 1]) = _gram_schmidt((D @ Q).transpose(1, 2, 0))
            Q = np.ascontiguousarray(V.transpose(2, 0, 1))
            T = R @ T
            T = T / np.abs(T).max(axis=(1, 2))[:, None, None]
    _, sv, Vt = np.linalg.svd(T)
    tie = (sv[:, 0] - sv[:, 1] <= SVD_TIE_TOL * sv[:, 0])[:, None]
    Z = np.where(tie, Q0[:, :, 0], (Q0 @ Vt[:, 0, :, None])[:, :, 0])
    W = np.where(tie, Q0[:, :, 1], (Q0 @ Vt[:, 1, :, None])[:, :, 0])
    Z0, W0 = np.tile(Z[0], (N, 1)), np.tile(W[0], (N, 1))
    # singular directions crossed between stencil points
    swap = (np.abs(_row_dots(Z, Z0)) < np.abs(_row_dots(W, Z0)))[:, None]
    Z, W = np.where(swap, W, Z), np.where(swap, Z, W)
    Z = np.where((_row_dots(Z, Z0) < 0)[:, None], -Z, Z)
    W = np.where((_row_dots(W, W0) < 0)[:, None], -W, W)
    return Z, W


def coefficient_grid_rows(frames_by_k, lo, hi, n, x3=0.0):
    """Rows (x1, x2, x3, k, a, b) over a regular grid, for plotting dumps."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    grid = np.array([[xv, yv, x3] for xv in xs for yv in ys])
    rows = []
    for k, frame in frames_by_k:
        for (xv, yv, _), (a, b) in zip(grid, frame.coefficients(grid)):
            rows.append((float(xv), float(yv), float(x3), int(k), float(a), float(b)))
    return rows
