"""Diffeomorphisms of the 3-torus with exact differentials.

Maps are compositions of two primitive kinds: integer toral automorphisms and
volume-preserving coordinate shears with a smooth compactly supported bump.
Differentials are analytic (chain rule over the stages), so cocycles carry no
finite-difference noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import adjugate3, det3, torus_delta, wrap_point

# Built-in example: a volume-preserving Anosov automorphism whose invariant
# 2-plane is volume dominated but not center-bunched.
PAPER_MATRIX = np.array([[-3, 0, 2], [1, 2, -3], [0, -1, 1]], dtype=np.int64)
PAPER_MATRIX.setflags(write=False)

COCYCLE_OVERFLOW_NORM = 1e12


class ToralAutomorphism:
    """Linear torus map induced by an integer matrix with det = +-1."""

    def __init__(self, matrix):
        M = np.asarray(matrix)
        if M.shape != (3, 3):
            raise ConfigError(f"automorphism matrix must be 3x3, got {M.shape}")
        if not np.all(M == np.round(M)):
            raise ConfigError("automorphism matrix must have integer entries")
        M = M.astype(np.int64)
        d = int(det3(M))
        if abs(d) != 1:
            raise ConfigError(f"automorphism matrix must have determinant +-1, got {d}")
        # det = +-1 makes adjugate/det integer: inv = adj * det.
        Minv = adjugate3(M) * d
        M.setflags(write=False)
        Minv.setflags(write=False)
        self.matrix = M
        self.inverse_matrix = Minv
        self.det = d
        self._Mf = M.astype(float)
        self._Mf.setflags(write=False)
        self._Minvf = Minv.astype(float)
        self._Minvf.setflags(write=False)

    def apply(self, x):
        return wrap_point(self._Mf @ x)

    def apply_inverse(self, x):
        return wrap_point(self._Minvf @ x)

    def differential(self, x):
        return self._Mf

    def differential_inverse(self, x):
        return self._Minvf


class ShearPerturbation:
    """Volume-preserving shear x_i += g(x_j, x_k) with a C^2 bump.

    The bump is amplitude * cos^4(pi*r/(2*radius)) of the wrapped planar
    distance r from ``center`` in the two coordinates other than ``axis``, so
    the support is the cylinder r < radius, the Jacobian determinant is
    identically 1, and x -> x - g e_i is the exact inverse.
    """

    def __init__(self, axis, center, radius, amplitude):
        if axis not in (0, 1, 2):
            raise ConfigError(f"shear axis must be 0, 1 or 2, got {axis}")
        if not 0.0 < radius <= 0.5:
            raise ConfigError(f"shear radius must lie in (0, 0.5], got {radius}")
        self.axis = int(axis)
        self.center = wrap_point(np.asarray(center, dtype=float))
        self.center.setflags(write=False)
        self.radius = float(radius)
        self.amplitude = float(amplitude)
        self.plane_axes = tuple(i for i in range(3) if i != self.axis)

    def _planar_radius(self, x):
        j, k = self.plane_axes
        d = torus_delta([x[j], x[k], 0.0], [self.center[j], self.center[k], 0.0])
        return float(np.hypot(d[0], d[1])), d

    def bump(self, x):
        r, _ = self._planar_radius(x)
        if r >= self.radius:
            return 0.0
        z = np.pi * r / (2.0 * self.radius)
        return self.amplitude * np.cos(z) ** 4

    def bump_gradient(self, x):
        """Gradient of the bump as a 3-vector (component ``axis`` is 0)."""
        r, d = self._planar_radius(x)
        grad = np.zeros(3)
        if r >= self.radius or r < 1e-15:
            return grad
        z = np.pi * r / (2.0 * self.radius)
        dh = -self.amplitude * (2.0 * np.pi / self.radius) * np.cos(z) ** 3 * np.sin(z)
        j, k = self.plane_axes
        grad[j] = dh * d[0] / r
        grad[k] = dh * d[1] / r
        return grad

    def in_support(self, x):
        return self._planar_radius(x)[0] < self.radius

    def apply(self, x):
        y = np.array(x, dtype=float)
        y[self.axis] += self.bump(y)
        return wrap_point(y)

    def apply_inverse(self, x):
        y = np.array(x, dtype=float)
        y[self.axis] -= self.bump(y)
        return wrap_point(y)

    def differential(self, x):
        D = np.eye(3)
        D[self.axis, :] += self.bump_gradient(x)
        return D

    def differential_inverse(self, x):
        D = np.eye(3)
        D[self.axis, :] -= self.bump_gradient(x)
        return D


class Diffeo:
    """A composition of primitive stages, applied left to right."""

    def __init__(self, stages=()):
        self.stages = tuple(stages)

    @classmethod
    def identity(cls):
        return cls(())

    @classmethod
    def from_matrix(cls, matrix):
        return cls((ToralAutomorphism(matrix),))

    def apply(self, x):
        y = wrap_point(np.asarray(x, dtype=float))
        for stage in self.stages:
            y = stage.apply(y)
        return y

    def apply_inverse(self, x):
        y = wrap_point(np.asarray(x, dtype=float))
        for stage in reversed(self.stages):
            y = stage.apply_inverse(y)
        return y

    def differential(self, x):
        D = np.eye(3)
        y = wrap_point(np.asarray(x, dtype=float))
        for stage in self.stages:
            D = stage.differential(y) @ D
            y = stage.apply(y)
        return D

    def differential_inverse(self, x):
        """Differential of the inverse map at x."""
        D = np.eye(3)
        y = wrap_point(np.asarray(x, dtype=float))
        for stage in reversed(self.stages):
            D = stage.differential_inverse(y) @ D
            y = stage.apply_inverse(y)
        return D

    def shear_stages(self):
        return [s for s in self.stages if isinstance(s, ShearPerturbation)]


@dataclass(frozen=True)
class Cocycle:
    """Orbit points and the product D(phi^k) (or D(phi^-k)) along them."""

    point: np.ndarray
    horizon: int
    direction: str  # "forward" | "inverse"
    points: tuple  # orbit points, length horizon + 1
    final: np.ndarray  # D(phi^(+-horizon)) at point
    overflow: bool = False


def orbit(phi: Diffeo, x, k: int, direction="forward"):
    """Orbit points x, phi(x), ..., phi^k(x) (or backward for "inverse")."""
    step = phi.apply if direction == "forward" else phi.apply_inverse
    pts = [wrap_point(np.asarray(x, dtype=float))]
    for _ in range(k):
        pts.append(step(pts[-1]))
    return pts


def _tangent_orbit(phi: Diffeo, x, k: int):
    """Forward orbit x, ..., phi^k(x) and the one-step differentials D_i at x_i, i < k."""
    pts = orbit(phi, x, k)
    return pts, [phi.differential(p) for p in pts[:-1]]


def _pull_back(diffs, basis):
    """Pull an orthonormal 3x2 basis back through the one-step differentials.

    Returns the bases Q_0..Q_k, with Q_k = ``basis`` and
    Q_i R_i = D_i^-1 Q_(i+1) (solve, then QR), and the factors R_0..R_(k-1).
    """
    Qs = [None] * len(diffs) + [basis]
    Rs = [None] * len(diffs)
    for i in range(len(diffs) - 1, -1, -1):
        Qs[i], Rs[i] = np.linalg.qr(np.linalg.solve(diffs[i], Qs[i + 1]))
    return Qs, Rs


def _push_forward(diffs, basis):
    """Push a 3x2 basis forward: Q_0 = ``basis``, Q_(i+1) R_i = D_i Q_i.

    Returns the bases Q_0..Q_k and the factors R_0..R_(k-1).
    """
    Qs = [basis]
    Rs = []
    for D in diffs:
        Q, R = np.linalg.qr(D @ Qs[-1])
        Qs.append(Q)
        Rs.append(R)
    return Qs, Rs


def _push_forward_line(diffs, v):
    """Push a vector forward with normalization: v_0 = ``v``, v_(i+1) = D_i v_i / ||D_i v_i||.

    Returns the vectors v_0..v_k and the sum of the log norms log ||D_i v_i||.
    """
    vs = [v]
    log_n = 0.0
    for D in diffs:
        w = D @ vs[-1]
        n = np.linalg.norm(w)
        log_n += np.log(n)
        vs.append(w / n)
    return vs, log_n


def cocycle(phi: Diffeo, x, k: int, direction="forward") -> Cocycle:
    """Assemble D(phi^k) (or D(phi^-k)) stepwise with its orbit points.

    Stops early with ``overflow=True`` once the cumulative product norm
    exceeds 1e12; callers needing large k should use the log-scale routines
    in :mod:`splitkit.splitting`.
    """
    if k < 0:
        raise ValueError("cocycle horizon must be >= 0")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    diff = phi.differential if direction == "forward" else phi.differential_inverse
    step = phi.apply if direction == "forward" else phi.apply_inverse

    pts = [wrap_point(np.asarray(x, dtype=float))]
    M = np.eye(3)
    overflow = False
    for _ in range(k):
        M = diff(pts[-1]) @ M
        pts.append(step(pts[-1]))
        if np.max(np.abs(M)) > COCYCLE_OVERFLOW_NORM:
            overflow = True
            break
    return Cocycle(
        point=pts[0],
        horizon=len(pts) - 1,
        direction=direction,
        points=tuple(pts),
        final=M,
        overflow=overflow,
    )


def orbit_support_report(phi: Diffeo, x, k: int):
    """Which forward-orbit steps of x land in the support of some shear stage.

    The perturbation analysis assumes reference orbits that avoid the support;
    this reports the fact instead of assuming it.
    """
    shears = phi.shear_stages()
    pts = orbit(phi, x, k)
    hits = []
    for j, p in enumerate(pts):
        if any(s.in_support(p) for s in shears):
            hits.append(j)
    return {"steps_in_support": hits, "orbit_avoids_support": not hits}
