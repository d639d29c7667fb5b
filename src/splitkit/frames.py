"""Adapted and orthonormal local frames of a plane field.

A plane transverse to the third coordinate axis is the span of
X = d/dx1 + a d/dx3 and Y = d/dx2 + b d/dx3; the coefficient pair (a, b) is
the graph slope of the plane and is what all bracket computations consume.
Frames come from analytic formulas or from dynamical pullback at depth k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Diffeo, _differentials, _orbit_records, _push_forward
from .errors import ChartExitError, ChartUnsuitableError
from .geometry import Plane2
from .splitting import _as_plane_field, pullback_planes

CHART_NORMAL_TOL = 1e-6
SVD_TIE_TOL = 1e-12


def adapted_coefficients(plane: Plane2):
    """Graph coefficients (a, b) of a plane with X = e1 + a e3, Y = e2 + b e3."""
    n = plane.normal
    if abs(n[2]) <= CHART_NORMAL_TOL:
        raise ChartUnsuitableError(
            f"chart unsuitable: |normal_3| = {abs(n[2]):.3e} <= {CHART_NORMAL_TOL:g}; "
            "permute coordinates so the plane is a graph over (x1, x2)"
        )
    return float(-n[0] / n[2]), float(-n[1] / n[2])


def plane_from_coefficients(a, b) -> Plane2:
    return Plane2.spanned_by([1.0, 0.0, a], [0.0, 1.0, b])


def fd_stencil(x, h):
    """The centered-difference stencil of x as a (7,3) stack: rows x, x + h e1,
    x - h e1, x + h e2, x - h e2, x + h e3, x - h e3."""
    x = np.asarray(x, dtype=float)
    E = h * np.eye(3)
    return np.array([x, x + E[0], x - E[0], x + E[1], x - E[1], x + E[2], x - E[2]])


class AdaptedFrame:
    """Base class: a coefficient pair (a, b) evaluable over a chart domain.

    ``coefficients(p)`` returns the pair (a, b) for a point of shape (3,)
    and an (N, 2) array for a stack of shape (N, 3); so do the frame fields
    ``X`` and ``Y``, with one vector per point.  ``plane`` and the gradient
    take one point.
    """

    domain = None  # None = whole torus; else (lo, hi) arrays for a box

    def coefficients(self, p):
        raise NotImplementedError

    def X(self, p):
        """X = e1 + a e3 at a point, or at every row of a stack."""
        return self._graph_field(p, 0)

    def Y(self, p):
        """Y = e2 + b e3 at a point, or at every row of a stack."""
        return self._graph_field(p, 1)

    def _graph_field(self, p, which):
        c = np.asarray(self.coefficients(p), dtype=float)
        out = np.zeros(np.shape(p))
        out[..., which] = 1.0
        out[..., 2] = c[..., which]
        return out

    def plane(self, p) -> Plane2:
        a, b = self.coefficients(p)
        return plane_from_coefficients(a, b)

    def planes(self, P):
        """Planes at the rows of an (N,3) stack, from one coefficients call."""
        return [plane_from_coefficients(a, b) for a, b in self.coefficients(P)]

    def in_domain(self, p):
        if self.domain is None:
            return True
        lo, hi = self.domain
        return bool(np.all(p >= lo) and np.all(p <= hi))

    def _require_domain(self, p):
        if not self.in_domain(p):
            raise ChartExitError(f"point {np.asarray(p)} outside frame domain")

    def gradient_a(self, p, h=1e-6):
        """Centered differences of a at p, from one coefficients call on the
        whole stencil; its centre row makes the frame's value at p a cache hit."""
        vals = self.coefficients(fd_stencil(p, h))[:, 0]
        return (vals[1::2] - vals[2::2]) / (2 * h)


class AnalyticFrame(AdaptedFrame):
    """Coefficients given by closed-form functions, with an optional gradient of a."""

    def __init__(self, a, b, grad_a=None, domain=None):
        self._a = a
        self._b = b
        self._grad_a = grad_a
        self.domain = domain

    def coefficients(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 2:
            return np.array([self.coefficients(q) for q in p]).reshape(-1, 2)
        self._require_domain(p)
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


def pullback_plane_at(phi: Diffeo, p, E0=None, k=1) -> Plane2:
    """The depth-k pullback plane at a single point: ``pullback_planes`` at N = 1."""
    return pullback_planes(phi, np.asarray(p, dtype=float)[None], E0, k)[0]


class PullbackFrame(AdaptedFrame):
    """Adapted frame of the depth-k pullback plane field, evaluated on demand.

    Evaluations are cached by point key; the field is pure, so a cached
    value never goes stale. The points of a stack that miss the cache are
    pulled back together in one kernel call, and a value is bitwise the same
    whether it was computed alone or in a batch.
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
                planes = [_as_plane_field(self.E0)(q) for q in P]
            else:
                planes = pullback_planes(self.phi, P, self.E0, self.k)
            for key, plane in zip(missing, planes):
                self._cache[key] = adapted_coefficients(plane)
        if p.ndim == 1:
            return self._cache[keys[0]]
        return np.array([self._cache[key] for key in keys]).reshape(-1, 2)


@dataclass(frozen=True)
class OrthonormalPair:
    """Orthonormal basis of a plane aligned with the right singular vectors
    of the depth-k restricted cocycle, so the product of the image norms
    equals |det| of the restriction."""

    Z: np.ndarray
    W: np.ndarray
    log_image_norms: tuple  # (log ||D(phi^k) Z||, log ||D(phi^k) W||)
    isotropic: bool
    k: int

    @property
    def log_det(self):
        return self.log_image_norms[0] + self.log_image_norms[1]


def svd_orthonormal_pair(phi: Diffeo, x, E: Plane2, k: int) -> OrthonormalPair:
    """Right-singular-vector pair of D(phi^k) restricted to E at x.

    On a singular-value tie the SVD direction is arbitrary; the stored basis
    is then used unchanged and the pair flagged isotropic.
    """
    Q0 = E.orthonormal_basis()
    if k == 0:
        return OrthonormalPair(Q0[:, 0], Q0[:, 1], (0.0, 0.0), True, 0)
    pts, _ = _orbit_records(phi, np.asarray(x, dtype=float)[None], k)
    diffs = _differentials(phi, np.concatenate(pts[:-1]))
    T = np.eye(2)
    log_acc = 0.0
    for r11, r12, r22 in _push_forward(diffs, Q0)[1]:
        T = np.array([[r11[0], r12[0]], [0.0, r22[0]]]) @ T
        scale = np.max(np.abs(T))
        log_acc += np.log(scale)
        T = T / scale
    sv = np.linalg.svd(T, compute_uv=False)
    if sv[0] - sv[1] <= SVD_TIE_TOL * sv[0]:
        return OrthonormalPair(
            Q0[:, 0], Q0[:, 1], (np.log(sv[0]) + log_acc, np.log(sv[1]) + log_acc), True, k
        )
    _, _, Vt = np.linalg.svd(T)
    Z = Q0 @ Vt[0]
    W = Q0 @ Vt[1]
    return OrthonormalPair(
        Z, W, (np.log(sv[0]) + log_acc, np.log(sv[1]) + log_acc), False, k
    )


def aligned_pairs(phi: Diffeo, points, planes, k: int):
    """SVD pairs (Z, W) at the rows of ``points``, each (N, 3), sign-aligned
    to the pair at row 0.

    SVD vectors carry an arbitrary sign per point; aligning to the reference
    pair makes the field continuous over a finite-difference stencil.
    """
    pairs = [svd_orthonormal_pair(phi, p, E, k) for p, E in zip(points, planes)]
    ref = pairs[0]
    Zs, Ws = [], []
    for pr in pairs:
        Z, W = pr.Z, pr.W
        if abs(Z @ ref.Z) < abs(W @ ref.Z):
            Z, W = W, Z  # singular directions crossed between stencil points
        if Z @ ref.Z < 0:
            Z = -Z
        if W @ ref.W < 0:
            W = -W
        Zs.append(Z)
        Ws.append(W)
    return np.array(Zs), np.array(Ws)


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
