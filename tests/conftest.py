import numpy as np
import pytest

from splitkit import PAPER_MATRIX, Diffeo, Line1, Plane2
from splitkit.dynamics import ShearPerturbation, ToralAutomorphism

# Spectrum of the built-in example matrix, from the eigen-decomposition
# oracle (numpy.linalg.eig on the integer matrix), sorted by magnitude.
EIG_BY_MAG = (-0.1001003012, -3.1110390521, 3.2111393533)

# Per-step ratios of eigenvalue magnitudes (oracle values).
RATE_DYN = 0.9688271700
RATE_VOL = 0.0969798915
RATE_BUNCH = 3.0140591605

# Flat-metric k=1 ratios on the true slow plane / fast line (oracle values).
FLAT_DYN_1 = 0.9933186612
FLAT_VOL_1 = 0.0969798915
FLAT_BUNCH_1 = 3.1683732798

# Graph coefficients of the slow eigenplane (normal via eigenvector cross).
SLOW_PLANE_COEFFS = (0.1329335525, 0.8256688194)

# Shear used in all perturbed-map tests: support cylinder well away from the
# binary-exact fixed points below.
SHEAR = dict(axis=0, center=(0.0, 0.5, 0.5), radius=0.2, amplitude=0.05)

# Fixed points of the example matrix that are exactly representable in binary
# floating point: their numerical orbits are exactly periodic, so deep
# cocycles along them are free of roundoff drift (which otherwise grows with
# the expansion rate and randomizes the tail of the orbit).
FIXED_EXACT = (np.zeros(3), np.array([0.5, 0.0, 0.5]))


def shear_bump(shear, x):
    """The bump of ``shear`` at x and its gradient (a 3-vector), in closed
    form: g = A cos^4(pi r / 2R) of the wrapped planar distance r."""
    j, k = shear.plane_axes
    d = (np.array([x[j], x[k]]) - shear.center[[j, k]] + 0.5) % 1.0 - 0.5
    r = np.hypot(d[0], d[1])
    grad = np.zeros(3)
    if r >= shear.radius:
        return 0.0, grad
    z = np.pi * r / (2.0 * shear.radius)
    if r > 0.0:
        dg_dr = -4.0 * shear.amplitude * np.cos(z) ** 3 * np.sin(z) * np.pi / (2.0 * shear.radius)
        grad[[j, k]] = dg_dr * d / r
    return shear.amplitude * np.cos(z) ** 4, grad


def dense_differential(phi, x):
    """D phi at x as a product of per-stage dense matrices, I + e_axis grad(g)^T
    for a shear and M for an automorphism: an oracle for the stacked kernel."""
    D = np.eye(3)
    y = np.asarray(x, dtype=float) % 1.0
    for stage in phi.stages:
        if isinstance(stage, ShearPerturbation):
            g, grad = shear_bump(stage, y)
            S = np.eye(3)
            S[stage.axis] += grad
            D = S @ D
            y = y.copy()
            y[stage.axis] += g
        else:
            D = stage.matrix @ D
            y = stage.matrix @ y
        y = y % 1.0
    return D


def torus_delta(p, q):
    """Shortest signed displacement q -> p, componentwise in [-1/2, 1/2)."""
    return (np.asarray(p, dtype=float) - np.asarray(q, dtype=float) + 0.5) % 1.0 - 0.5


def counting_kernel(monkeypatch):
    """Record (rows, sorted depths) of every kernel call that frames make,
    a call that reads the map's depth table included."""
    import splitkit.frames as frames

    calls = []
    kernel = frames._pullback_bases

    def counting(phi, P, E0, k):
        calls.append((len(P), sorted(set(np.atleast_1d(k).tolist()))))
        return kernel(phi, P, E0, k)

    monkeypatch.setattr(frames, "_pullback_bases", counting)
    return calls


@pytest.fixture(scope="session")
def phi_linear():
    return Diffeo.from_matrix(PAPER_MATRIX)


@pytest.fixture(scope="session")
def phi_perturbed():
    shear = ShearPerturbation(**SHEAR)
    return Diffeo((shear, ToralAutomorphism(PAPER_MATRIX)))


@pytest.fixture(scope="session")
def eigen_oracle():
    """Live eigen-decomposition of the example matrix, sorted by |eigenvalue|."""
    w, V = np.linalg.eig(PAPER_MATRIX.astype(float))
    order = np.argsort(np.abs(w))
    return w[order].real, V[:, order].real


@pytest.fixture(scope="session")
def slow_plane(eigen_oracle) -> Plane2:
    _, V = eigen_oracle
    return Plane2.spanned_by(V[:, 0], V[:, 1])


@pytest.fixture(scope="session")
def fast_line(eigen_oracle) -> Line1:
    _, V = eigen_oracle
    return Line1(V[:, 2])


def tilt_plane_field(p):
    """Smooth periodic non-involutive initial plane field: a=0, b=0.1 sin(2 pi x1).

    Its bracket coefficient is 0.2 pi cos(2 pi x1), nonzero away from two
    circles, which makes pullback-bracket decay measurable (the coordinate
    plane is involutive, and pullbacks of involutive fields stay involutive).
    """
    return Plane2.spanned_by([1, 0, 0.0], [0, 1, 0.1 * np.sin(2.0 * np.pi * p[0])])


@pytest.fixture(scope="session")
def tilt_E0():
    return tilt_plane_field
