"""Chart-level linear algebra on the 3-torus.

Points live in [0,1)^3 with the flat wrap-around metric; 2-planes and lines
in a tangent space are carried by explicit spanning vectors.  Everything here
is plain numpy on small fixed-size arrays, immutable after construction, and
safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneratePlaneError

GRAM_TOL = 1e-12

# Ordered basis of the wedge space Lambda^2(R^3).
WEDGE_PAIRS = ((0, 1), (0, 2), (1, 2))

# Hodge star on wedge coordinates: e1^e2 -> e3, e1^e3 -> -e2, e2^e3 -> e1.
HODGE_STAR = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
HODGE_STAR.setflags(write=False)


def wrap_point(p):
    """Reduce chart coordinates to [0, 1]^3 by floor mod. A coordinate a
    rounding error below an integer (-1e-17, say) maps to exactly 1.0, and
    a second wrap maps that to 0.0, so wrapping twice is not a no-op."""
    return np.asarray(p, dtype=float) % 1.0


def _row_dots(U, V):
    """Row-by-row ``u @ v`` of two (N, m) stacks, one BLAS dot per row."""
    return (U[:, None, :] @ V[:, :, None])[:, 0, 0]


def _row_norms(V):
    """``np.linalg.norm`` of each row of an (N, m) stack, bit for bit."""
    V = np.ascontiguousarray(V)
    return np.sqrt(_row_dots(V, V))


def unit_lines(V, tol=1e-12):
    """The rows of an (N,3) stack at unit length, each sign flipped so that
    its first component larger than ``tol`` is positive."""
    n = _row_norms(V)
    if (n < GRAM_TOL).any():
        raise ValueError("cannot normalize a (near-)zero vector")
    V = V / n[:, None]
    first = V[np.arange(len(V)), (np.abs(V) > tol).argmax(axis=1)]
    return np.where((first < -tol)[:, None], -V, V)


def det3(M):
    """Determinant of a 3x3 matrix by cofactor expansion (exact for ints)."""
    M = np.asarray(M)
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def adjugate3(M):
    """Adjugate (transposed cofactor matrix); integer-exact for integer input."""
    M = np.asarray(M)
    out = np.empty((3, 3), dtype=M.dtype)
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            minor = M[r][:, c]
            out[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return out


def check_spans(B):
    """Raise DegeneratePlaneError unless every 3x2 basis of an (N, 3, 2)
    stack spans a plane: its Gram determinant must exceed ``GRAM_TOL``."""
    gram = np.linalg.det(B.swapaxes(1, 2) @ B)
    bad = gram <= GRAM_TOL
    if bad.any():
        raise DegeneratePlaneError(f"degenerate plane: Gram determinant {gram[bad.argmax()]:.3e}")


def _record(cls):
    """``cls`` as an immutable record of its annotated fields, as ``dataclass(frozen=True)``
    made it but with no source compiled at import: fields by position or keyword, class-level
    defaults, ``__post_init__`` last; assignment raises ``AttributeError``; identity equality."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or kwargs.keys() - names[len(args) :] or len(values) < len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, each once")
        self.__dict__.update(values)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {cls.__name__} is immutable")

    cls.__init__, cls.__setattr__ = __init__, __setattr__
    return cls


@_record
class Line1:
    """A 1-dimensional direction, unit length and sign-normalized."""

    direction: np.ndarray

    def __post_init__(self):
        d = unit_lines(np.asarray(self.direction, dtype=float)[None])[0]
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)


@_record
class Plane2:
    """A tangent 2-plane stored as a spanning pair."""

    basis: np.ndarray  # shape (3, 2), columns span the plane

    def __post_init__(self):
        B = np.array(self.basis, dtype=float).reshape(3, 2)
        check_spans(B[None])
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @classmethod
    def spanned_by(cls, u, v):
        return cls(np.column_stack([np.asarray(u, dtype=float), np.asarray(v, dtype=float)]))

    def orthonormal_basis(self):
        """Gram-Schmidt of the stored pair, shape (3, 2), read-only. It is
        made on first use and kept, so a constant plane that seeds many
        kernel calls is converted once."""
        Q = self.__dict__.get("_orthonormal")
        if Q is None:
            Q = orthonormal_bases(self.basis[None])[0]
            Q.setflags(write=False)
            object.__setattr__(self, "_orthonormal", Q)
        return Q


def principal_angle(P: Plane2, Q: Plane2) -> float:
    """Largest principal angle between two 2-planes, in [0, pi/2]."""
    return float(plane_angles(P.basis[None], Q.basis[None])[0])


def line_angles(U, V):
    """Angles between the lines of two (N,3) stacks of unit directions; atan2
    of cross and dot stays accurate for near-parallel lines."""
    return np.arctan2(_row_norms(np.cross(U, V)), np.abs(_row_dots(U, V)))


def orthonormal_bases(B):
    """Gram-Schmidt of each 3x2 basis of an (N, 3, 2) stack."""
    B = np.ascontiguousarray(B, dtype=float)
    q1 = B[:, :, 0] / _row_norms(B[:, :, 0])[:, None]
    w = B[:, :, 1] - _row_dots(B[:, :, 1], q1)[:, None] * q1
    return np.stack([q1, w / _row_norms(w)[:, None]], axis=2)


def plane_angles(A, B):
    """Largest principal angles, in [0, pi/2], between the planes spanned by
    two (N, 3, 2) basis stacks. The cosine route loses resolution below
    sqrt(2 eps) ~ 1.5e-8, so small angles are recomputed from the projection
    onto the orthogonal complement (the sine), accurate to machine precision.
    """
    A = orthonormal_bases(A)
    B = orthonormal_bases(B)
    C = A.swapaxes(1, 2) @ B
    theta = np.arccos(np.clip(np.linalg.svd(C, compute_uv=False).min(axis=1), -1.0, 1.0))
    small = theta < 1e-4
    if small.any():
        sines = np.linalg.svd(B[small] - A[small] @ C[small], compute_uv=False)
        theta[small] = np.arcsin(np.clip(sines.max(axis=1), -1.0, 1.0))
    return theta


def exterior_square(M):
    """Induced action on Lambda^2(R^3) in the basis e1^e2, e1^e3, e2^e3.

    Built from 2x2 minors, so it is defined for singular matrices too, and
    exterior_square(M @ N) == exterior_square(M) @ exterior_square(N).
    """
    M = np.asarray(M, dtype=float)
    out = np.empty((3, 3))
    for a, (i, j) in enumerate(WEDGE_PAIRS):
        for b, (k, l) in enumerate(WEDGE_PAIRS):
            out[a, b] = M[i, k] * M[j, l] - M[i, l] * M[j, k]
    return out


def wedge_coordinates(u, v):
    """Coordinates of u ^ v in the basis e1^e2, e1^e3, e2^e3."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.array(
        [
            u[0] * v[1] - u[1] * v[0],
            u[0] * v[2] - u[2] * v[0],
            u[1] * v[2] - u[2] * v[1],
        ]
    )
