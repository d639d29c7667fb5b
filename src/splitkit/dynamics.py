"""Diffeomorphisms of the 3-torus with exact differentials, and the pullback kernel.

Maps are compositions of two primitive kinds: integer toral automorphisms and
volume-preserving coordinate shears with a smooth compactly supported bump.
Each stage maps (N,3) stacks of points and (3, c, N) stacks of tangent
vectors: ``advance`` and ``retreat`` move points forward and back, ``push``
and ``pull`` apply the differential and its exact inverse at a recorded
point.  Differentials are analytic (chain rule over the stages), so cocycles
carry no finite-difference noise.  The pullback kernel ``_pullback_bases``,
which every frame read goes through, lives here too, so ``frames`` needs no
other layer.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegeneratePlaneError
from .geometry import GRAM_TOL, Plane2, adjugate3, det3, wrap_point

# Built-in example: a volume-preserving Anosov automorphism whose invariant
# 2-plane is volume dominated but not center-bunched.
PAPER_MATRIX = np.array([[-3, 0, 2], [1, 2, -3], [0, -1, 1]], dtype=np.int64)
PAPER_MATRIX.setflags(write=False)

DEFAULT_E0 = Plane2.spanned_by([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


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
        # made once, not per map step: the transposes and ``_times``' column broadcasts
        self._MT = M.T.astype(float)
        self._MT.setflags(write=False)
        self._MinvT = Minv.T.astype(float)
        self._MinvT.setflags(write=False)
        self._cols = [c[:, None, None] for c in self._MT]  # column j of M, as a (3, 1, 1) view
        self._inv_cols = [c[:, None, None] for c in self._MinvT]

    def advance(self, Y):
        """Images of the rows of a wrapped (N,3) float stack; no record needed."""
        return (Y @ self._MT) % 1.0, None

    def retreat(self, Y):
        """Inverse images of the rows of a wrapped (N,3) float stack: one
        BLAS call per row, so each row's bits do not depend on N; one gemm
        over the stack rounds some rows differently (README)."""
        return (Y[:, None, :] @ self._MinvT)[:, 0] % 1.0

    def push(self, V, record):
        return _times(self._cols, V)

    def pull(self, V, record):
        return _times(self._inv_cols, V)


def _times(cols, V):
    """A V for the columns ``A[:, j, None, None]`` of a 3x3 A and a (3, c, N) stack V, entry by entry.

    No BLAS call, so the bits of each column do not depend on N.
    """
    return cols[0] * V[0] + cols[1] * V[1] + cols[2] * V[2]


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
        a, b = self.plane_axes
        self._plane = slice(a, b + 1, b - a)  # the plane axes as a slice: a view, not a copy
        self._plane_center = self.center[self._plane]

    def _planar_offsets(self, Y):
        """Wrapped offsets (N,2) in [-1/2, 1/2) from the center in the plane axes, and their norms r."""
        d = (Y[:, self._plane] - self._plane_center + 0.5) % 1.0 - 0.5
        return d, np.hypot(d[:, 0], d[:, 1])

    def _bump(self, Y, gradient=False):
        """Bump values at the rows of an (N,3) stack (None when every row is
        outside the support) and, with ``gradient``, the two gradient
        components along the plane axes, shape (2, N).

        Only elementwise ufuncs, so each row's bits do not depend on N. The
        fourth power goes through ``float_power`` (C ``pow``, like the scalar
        ``** 4``): on AVX-512 machines numpy's vectorised ``power`` differs in
        the last bit on about 6% of inputs, and one ulp in an orbit point
        grows at the expansion rate along the orbit.
        """
        d, r = self._planar_offsets(Y)
        inside = r < self.radius
        if not inside.any():  # the common case for short stacks: all zeros
            return (None, np.zeros((2, len(Y)))) if gradient else None
        z = np.pi * r / (2.0 * self.radius)
        c = np.cos(z)
        bump = np.where(inside, self.amplitude * np.float_power(c, 4), 0.0)
        if not gradient:
            return bump
        live = inside & (r >= 1e-15)
        dh = -self.amplitude * (2.0 * np.pi / self.radius) * np.float_power(c, 3) * np.sin(z)
        g = np.where(live, dh * d.T / np.where(live, r, 1.0), 0.0)
        return bump, g

    def advance(self, Y):
        """Images of the rows of an (N,3) stack and the bump gradients there."""
        bump, g = self._bump(Y, gradient=True)
        if bump is not None:
            Y = Y.copy()
            Y[:, self.axis] += bump
        return Y % 1.0, g

    def retreat(self, Y):
        """Inverse images of the rows of an (N,3) stack: the bump does not
        depend on the sheared coordinate, so subtracting it is exact."""
        bump = self._bump(Y)
        if bump is not None:  # adding zeros would change no bit after the wrap
            Y = Y.copy()
            Y[:, self.axis] -= bump
        return Y % 1.0

    def push(self, V, g):
        """(I + e_axis grad^T) V for a stack V of shape (3, c, N)."""
        j, k = self.plane_axes
        W = V.copy()
        W[self.axis] += g[0] * V[j] + g[1] * V[k]
        return W

    def pull(self, V, g):
        """(I - e_axis grad^T) V, the exact inverse of ``push``."""
        j, k = self.plane_axes
        W = V.copy()
        W[self.axis] -= g[0] * V[j] + g[1] * V[k]
        return W


class Diffeo:
    """A composition of primitive stages, applied left to right."""

    def __init__(self, stages=()):
        self.stages = tuple(stages)
        self._depth_tables = {}  # E0 seed bytes -> bases by depth, kept by _depth_table

    @classmethod
    def identity(cls):
        return cls(())

    @classmethod
    def from_matrix(cls, matrix):
        return cls((ToralAutomorphism(matrix),))

    # views of the stacked kernel below, at one point or at the rows of an (N,3) stack
    def apply(self, x):
        return orbit(self, x, 1)[1]

    def apply_inverse(self, x):
        return orbit(self, x, 1, direction="inverse")[1]

    def differential(self, x):
        X = np.asarray(x, dtype=float)
        D = _differentials(self, X.reshape(-1, 3))
        return D if X.ndim == 2 else D[0]

    def differential_inverse(self, x):
        """D(phi^-1) at x: the exact stage inverses, recorded at phi^-1(x)."""
        _, rec = _advance(self, wrap_point(self.apply_inverse(x)[None]))
        return _tangent(self, rec, np.eye(3)[:, :, None], inverse=True)[:, :, 0]

    def shear_stages(self):
        return [s for s in self.stages if isinstance(s, ShearPerturbation)]


def orbit(phi: Diffeo, x, k: int, direction="forward"):
    """Orbit points x, phi(x), ..., phi^k(x) (or backward for "inverse") of
    one point, or of the rows of an (N,3) stack stepped together: every stage
    step is row-independent, so each row's bits do not depend on N."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    X = np.asarray(x, dtype=float)
    pts = [wrap_point(X.reshape(-1, 3))]
    for _ in range(k):
        pts.append(_advance(phi, pts[-1])[0] if direction == "forward" else _retreat(phi, pts[-1]))
    return pts if X.ndim == 2 else [p[0] for p in pts]


def _forward(phi: Diffeo, Y, live):
    """The one forward pass of a pullback: step i advances the first
    ``live[i]`` rows of a wrapped (N,3) float stack in place, so with the
    rows deepest first each row stops at its own depth. Returns the stack
    and every step's ``_advance`` records, for ``_pull_back`` to sweep back
    through."""
    recs = []
    for n in live:
        Y[:n], rec = _advance(phi, Y[:n])
        recs.append(rec)
    return Y, recs


def _advance(phi: Diffeo, Y):
    """One forward step of the rows of an (N,3) stack: their images and the
    stage records at them, in stage order: the bump gradients (2, N) at the
    input of a shear, None for an automorphism."""
    rec = []
    for stage in phi.stages:
        Y, r = stage.advance(Y)
        rec.append(r)
    return Y, rec


def _retreat(phi: Diffeo, Y):
    """One backward step of the rows of an (N,3) stack: the exact stage
    inverses in reverse order."""
    for stage in reversed(phi.stages):
        Y = stage.retreat(Y)
    return Y


def _tangent(phi: Diffeo, rec, V, inverse=False):
    """D V, or D^-1 V with the exact stage inverses in reverse order, for one
    recorded step; V is a stack of shape (3, c, N)."""
    if inverse:
        for stage, r in zip(reversed(phi.stages), reversed(rec)):
            V = stage.pull(V, r)
    else:
        for stage, r in zip(phi.stages, rec):
            V = stage.push(V, r)
    return V


def _differentials(phi: Diffeo, P):
    """One-step differentials at the rows of an (N,3) stack, shape (N, 3, 3)."""
    _, rec = _advance(phi, wrap_point(P))
    eye = np.broadcast_to(np.eye(3)[:, :, None], (3, 3, len(P)))
    return np.ascontiguousarray(_tangent(phi, rec, eye).transpose(2, 0, 1))


def _gram_schmidt(V):
    """Q of Q R = V for a stack of 3x2 matrices V of shape (3, 2, N): the
    same shape, orthonormal columns, and R upper triangular with a positive
    diagonal. Raises DegeneratePlaneError where the second column is
    (nearly) a multiple of the first, ||w|| <= GRAM_TOL ||v2||, instead of
    returning NaN.
    """
    norms = np.hypot(np.hypot(V[0], V[1]), V[2])  # ||v1||, ||v2||
    Q = np.empty_like(V)
    q1 = np.divide(V[:, 0], norms[0], out=Q[:, 0])
    P = q1 * V[:, 1]
    r12 = P[0] + P[1] + P[2]
    w = V[:, 1] - r12 * q1
    r22 = np.hypot(np.hypot(w[0], w[1]), w[2])
    if not (r22 > GRAM_TOL * norms[1]).all():  # also false on NaN
        raise DegeneratePlaneError("degenerate plane: Gram-Schmidt lost the second column")
    np.divide(w, r22, out=Q[:, 1])
    return Q


def _pull_back(phi: Diffeo, recs, Q, live=None):
    """Pull orthonormal bases Q (3, 2, N) back through the recorded steps,
    last step first; step i moves only the first ``live[i]`` columns (all by
    default), so with the rows deepest first each row joins at its own depth.

    Yields Q_i for i = k-1 down to 0: the live columns after step i, the
    orthonormal bases of D_i^-1 Q_(i+1) (``_gram_schmidt``) with Q_k = ``Q``.
    """
    Q = np.array(Q, dtype=float)  # the waiting columns stay as given
    for i in reversed(range(len(recs))):
        n = Q.shape[2] if live is None else live[i]
        Qi = _gram_schmidt(_tangent(phi, recs[i], Q[:, :, :n], inverse=True))
        if n < Q.shape[2]:
            Q[:, :, :n] = Qi
        else:  # all live from here on, as live[i] never decreases as i goes
            Q = Qi  # down, so no later step writes into a yielded stack
        yield Qi


def _field_bases(E0, P, orthonormal=True):
    """The bases of E0 at the rows of an (N,3) stack, as a (3, 2, N) stack:
    orthonormalised, or as the planes store them. E0 is None (the coordinate
    plane), a constant ``Plane2`` or a field mapping a point to a ``Plane2``;
    a constant plane is converted once and broadcast, a field is evaluated
    row by row."""
    basis = Plane2.orthonormal_basis if orthonormal else (lambda E: E.basis)
    if callable(E0):  # (N, 3, 2) to (3, 2, N), also for N = 0
        return np.array([basis(E0(p)) for p in P]).reshape(-1, 3, 2).transpose(1, 2, 0)
    return np.broadcast_to(basis(DEFAULT_E0 if E0 is None else E0)[:, :, None], (3, 2, len(P)))


def _pullback_bases(phi: Diffeo, P, E0, k):
    """Orthonormal bases (3, 2, N) of the pullback planes D(phi^-k) E0(phi^k p)
    at the rows p of an (N,3) stack, from one kernel call. ``k`` is one
    depth for every row or one depth per row; a depth-0 row keeps the basis
    its E0 plane stores, at the point as given (which may lie outside
    [0, 1)^3).

    The rows run deepest first, and step i moves only the rows deeper than
    i, in both halves: the forward orbit leaves each row at its own
    endpoint, where E0 seeds it, and one backward sweep takes it in at its
    depth. The kernel uses elementwise arithmetic only, so each row's basis
    is bitwise the same whatever else is in the stack, at whatever depths.
    So a constant E0 on orbits that meet no support (every shear record
    bitwise +0.0) gives each row the ``_depth_table`` column of its depth,
    read in the rows' own order, with no stack to assemble.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    depth = (np.zeros(len(P), dtype=int) + k).tolist()
    order = sorted(range(len(P)), key=depth.__getitem__, reverse=True)  # stable
    d = [depth[n] for n in order]  # deepest first
    if d and d[-1] < 0:
        raise ValueError("pullback depth k must be >= 0")
    live = (len(d) - np.cumsum(np.bincount(d, minlength=1))[:-1]).tolist()  # rows deeper than i
    swept = live[0] if live else 0
    recs = []  # none on a shear-free map, which needs no forward pass for a constant E0
    if callable(E0) or phi.shear_stages():
        Y, recs = _forward(phi, wrap_point(P[order]), live)
    # the bits, not the truth value: a -0.0 gradient can flip the sign of a zero entry
    if callable(E0) or any(r is not None and r.view(np.uint64).any() for rec in recs for r in rec):
        Q = _field_bases(E0, Y[:swept])
        for Q in _pull_back(phi, recs, Q, live):
            pass  # the last stack yielded holds every swept row at depth 0
    else:  # depth 0 reads E0's stored basis and depth d the table's column d, in row order
        E0 = DEFAULT_E0 if E0 is None else E0
        B = np.concatenate([E0.basis[:, :, None], _depth_table(phi, E0, len(live))[:, :, 1:]], axis=2)
        return B[:, :, depth]
    out = np.empty((3, 2, len(d)))
    out[:, :, order] = np.concatenate([Q, _field_bases(E0, P[order[swept:]], orthonormal=False)], axis=2)
    return out


def _depth_table(phi: Diffeo, E0, depth):
    """Bases (3, 2, depth + 1) of a constant E0 pulled back 0..depth steps
    over +0.0 shear records by ``_pull_back`` on one column: column d is the
    sweep's basis of a depth-d row whose orbit meets no support. Kept on
    ``phi`` per E0 seed, the table grows from its deepest column."""
    seed = (DEFAULT_E0 if E0 is None else E0).orthonormal_basis()
    B = phi._depth_tables.get(seed.tobytes(), seed[:, :, None])
    if B.shape[2] <= depth:
        zero = [np.zeros((2, 1)) if isinstance(s, ShearPerturbation) else None for s in phi.stages]
        steps = _pull_back(phi, [zero] * (depth + 1 - B.shape[2]), B[:, :, -1:])
        B = phi._depth_tables[seed.tobytes()] = np.concatenate([B, *steps], axis=2)
    return B


def orbit_support_report(phi: Diffeo, x, k: int):
    """Which forward-orbit steps of x land in the support of some shear stage.

    x is one point, or an (N,3) stack for a list of N reports. The
    perturbation analysis assumes reference orbits that avoid the support;
    this reports the fact instead of assuming it.
    """
    X = np.asarray(x, dtype=float)
    P = np.array(orbit(phi, X.reshape(-1, 3), k))  # (k+1, N, 3)
    inside = np.zeros(P.shape[:2], dtype=bool)
    for shear in phi.shear_stages():
        inside |= shear._planar_offsets(P.reshape(-1, 3))[1].reshape(P.shape[:2]) < shear.radius
    hits = [np.flatnonzero(row).tolist() for row in inside.T]
    reports = [{"steps_in_support": h, "orbit_avoids_support": not h} for h in hits]
    return reports if X.ndim == 2 else reports[0]
