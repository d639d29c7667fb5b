import numpy as np
import pytest

from splitkit import PAPER_MATRIX, Diffeo
from splitkit.dynamics import (
    ShearPerturbation,
    ToralAutomorphism,
    _forward,
    _gram_schmidt,
    _pull_back,
    _tangent,
    orbit,
    orbit_support_report,
)
from splitkit.errors import ConfigError, DegeneratePlaneError
from splitkit.geometry import wrap_point
from conftest import SHEAR, dense_differential, shear_bump, torus_delta


def fd_differential(phi, x, h=1e-5):
    """Central differences of the wrapped map, unwrapped via torus deltas."""
    D = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        D[:, i] = torus_delta(phi.apply(x + e), phi.apply(x - e)) / (2 * h)
    return D


def cocycle(phi, points, inverse=False):
    """The product of the one-step differentials at ``points``, the first
    applied first, or of their exact inverses: the identity pushed (pulled)
    through each point's recorded step with ``_tangent``."""
    V = np.eye(3)[:, :, None]
    for p in points:
        _, (rec,) = _forward(phi, wrap_point(np.asarray(p, dtype=float)[None]), [1])
        V = _tangent(phi, rec, V, inverse=inverse)
    return V[:, :, 0]


class TestToralAutomorphism:
    def test_example_matrix_is_valid(self):
        auto = ToralAutomorphism(PAPER_MATRIX)
        assert auto.det == 1
        assert np.trace(auto.matrix) == 0

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            ToralAutomorphism(np.eye(3) * 1.5)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ConfigError, match="determinant"):
            ToralAutomorphism(np.diag([1, 1, 2]))

    def test_integer_inverse(self):
        auto = ToralAutomorphism(PAPER_MATRIX)
        assert np.all(auto.matrix @ auto.inverse_matrix == np.eye(3, dtype=np.int64))

    def test_step_constants_read_only(self):
        # every map step reads these; an in-place write would corrupt all later steps
        auto = ToralAutomorphism(PAPER_MATRIX)
        assert np.array_equal(auto._MT, auto.matrix.T) and np.array_equal(auto._MinvT, auto.inverse_matrix.T)
        for A in (auto.matrix, auto.inverse_matrix, auto._MT, auto._MinvT, *auto._cols, *auto._inv_cols):
            assert not A.flags.writeable


class TestApply:
    def test_identity_composition(self):
        phi = Diffeo.identity()
        x = np.array([0.3, 0.4, 0.5])
        assert np.allclose(phi.apply(x), x)

    def test_fixed_point_of_linear_map(self, phi_linear):
        assert np.allclose(phi_linear.apply(np.zeros(3)), np.zeros(3))

    def test_half_point_wraps(self, phi_linear):
        # A (,5,.5,.5) = (-.5, 0, 0) which wraps to (.5, 0, 0)
        got = phi_linear.apply(np.array([0.5, 0.5, 0.5]))
        assert np.allclose(got, [0.5, 0.0, 0.0], atol=1e-15)

    def test_differential_constant(self, phi_linear):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(0, 1, 3)
            assert np.all(phi_linear.differential(x) == PAPER_MATRIX.astype(float))


class TestShear:
    def setup_method(self):
        self.shear = ShearPerturbation(**SHEAR)
        self.phi = Diffeo((self.shear,))

    def test_outside_support_is_identity(self):
        x = np.array([0.3, 0.1, 0.05])  # far from the (x2,x3) support disc
        assert orbit_support_report(self.phi, x, 0)["orbit_avoids_support"]
        assert np.all(self.phi.apply(x) == x)
        assert np.all(self.phi.differential(x) == np.eye(3))

    def test_interior_differential_structure(self):
        x = np.array([0.7, 0.55, 0.42])
        assert orbit_support_report(self.phi, x, 0)["steps_in_support"] == [0]
        D = self.phi.differential(x)
        _, g = shear_bump(self.shear, x)
        assert g[self.shear.axis] == 0.0
        assert np.any(g != 0.0)
        assert np.allclose(D, np.eye(3) + np.outer([1.0, 0.0, 0.0], g))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(40):
            x = rng.uniform(0, 1, 3)
            D = self.phi.differential(x)
            Dfd = fd_differential(self.phi, x, h)
            assert np.max(np.abs(D - Dfd)) < 1e-8

    def test_exact_inverse(self):
        X = np.random.default_rng(2).uniform(0, 1, (40, 3))
        Y, _ = self.shear.advance(X)
        assert np.max(np.abs(torus_delta(self.shear.retreat(Y), X))) < 1e-15

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_planar_offsets_wrap_on_each_axis(self, axis):
        # the plane axes are read through a slice: bitwise the wrapped
        # displacement of the plane coordinates, which crosses the seam
        shear = ShearPerturbation(axis, (0.05, 0.05, 0.05), 0.2, 0.05)
        Y = np.vstack([np.random.default_rng(axis).uniform(0, 1, (30, 3)), np.full((1, 3), 0.95)])
        d, r = shear._planar_offsets(Y)
        plane = list(shear.plane_axes)
        want = torus_delta(Y[:, plane], shear.center[plane])
        assert d.tobytes() == want.tobytes()
        assert r.tobytes() == np.hypot(want[:, 0], want[:, 1]).tobytes()
        assert d[-1] == pytest.approx([-0.1, -0.1])

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis"):
            ShearPerturbation(3, (0, 0, 0), 0.2, 0.05)

    def test_wrap_gives_one_and_the_stage_wrap_maps_it_to_zero(self):
        # the floor mod of wrap_point rounds a coordinate just below 0 up to
        # exactly 1.0, so its range is [0, 1]; the shear stage wraps its
        # output again, even outside the support, and maps that 1.0 to 0.0
        x = wrap_point(np.array([[-1e-17, 0.3, 0.05]]))
        assert x.tolist() == [[1.0, 0.3, 0.05]]
        assert self.shear._bump(x) is None
        Y, _ = self.shear.advance(x)
        assert Y.tolist() == [[0.0, 0.3, 0.05]]


class TestComposedMap:
    def test_volume_preservation(self, phi_perturbed):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.uniform(0, 1, 3)
            assert abs(abs(np.linalg.det(phi_perturbed.differential(x))) - 1.0) < 1e-12

    def test_differential_matches_fd(self, phi_perturbed):
        rng = np.random.default_rng(4)
        for _ in range(60):
            x = rng.uniform(0, 1, 3)
            D = phi_perturbed.differential(x)
            Dfd = fd_differential(phi_perturbed, x, 1e-5)
            assert np.max(np.abs(D - Dfd)) < 1e-7

    def test_inverse_roundtrip(self, phi_perturbed):
        rng = np.random.default_rng(5)
        for _ in range(60):
            x = rng.uniform(0, 1, 3)
            back = phi_perturbed.apply_inverse(phi_perturbed.apply(x))
            assert np.max(np.abs(torus_delta(back, x))) < 1e-10

    def test_differential_inverse_is_matrix_inverse(self, phi_perturbed):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.uniform(0, 1, 3)
            D = phi_perturbed.differential(x)
            Dinv = phi_perturbed.differential_inverse(phi_perturbed.apply(x))
            assert np.max(np.abs(Dinv @ D - np.eye(3))) < 1e-10


class TestCocycle:
    def test_zero_horizon(self, phi_linear):
        Y, recs = _forward(phi_linear, np.array([[0.3, 0.4, 0.5]]), [])
        assert Y.tolist() == [[0.3, 0.4, 0.5]] and recs == []
        assert np.all(cocycle(phi_linear, []) == np.eye(3))

    def test_matrix_square(self, phi_linear):
        D = cocycle(phi_linear, orbit(phi_linear, [0.1, 0.2, 0.3], 2)[:-1])
        A = PAPER_MATRIX.astype(float)
        assert np.allclose(D, A @ A, atol=1e-12)

    def test_forward_then_inverse_linear(self, phi_linear):
        x = np.array([0.3, 0.4, 0.5])
        for k in (1, 4, 10):
            fwd = orbit(phi_linear, x, k)
            bwd = orbit(phi_linear, fwd[-1], k, direction="inverse")
            F = cocycle(phi_linear, fwd[:-1])
            B = cocycle(phi_linear, bwd[1:], inverse=True)
            assert np.max(np.abs(B @ F - np.eye(3))) < 1e-8

    def test_forward_then_inverse_perturbed(self, phi_perturbed):
        # At a generic point the backward retrace drifts by roundoff amplified
        # at the inverse map's expansion rate, so the deep-horizon check only
        # holds along exactly periodic orbits.
        for x, ks in ((np.array([0.3, 0.4, 0.5]), (1, 4)), (np.zeros(3), (10,))):
            for k in ks:
                fwd = orbit(phi_perturbed, x, k)
                bwd = orbit(phi_perturbed, fwd[-1], k, direction="inverse")
                F = cocycle(phi_perturbed, fwd[:-1])
                B = cocycle(phi_perturbed, bwd[1:], inverse=True)
                assert np.max(np.abs(B @ F - np.eye(3))) < 1e-8

    def test_multiplicativity(self, phi_perturbed):
        x = np.array([0.21, 0.82, 0.43])
        pts = orbit(phi_perturbed, x, 8)
        for j in range(8):
            assert np.allclose(
                cocycle(phi_perturbed, pts[: j + 1]),
                dense_differential(phi_perturbed, pts[j]) @ cocycle(phi_perturbed, pts[:j]),
                atol=1e-10,
            )

    def test_bad_direction(self, phi_linear):
        with pytest.raises(ValueError, match="direction"):
            orbit(phi_linear, np.zeros(3), 1, direction="sideways")


class TestOrbitSupport:
    def test_fixed_point_avoids(self, phi_perturbed):
        rep = orbit_support_report(phi_perturbed, np.zeros(3), 30)
        assert rep["orbit_avoids_support"]

    def test_in_support_start(self, phi_perturbed):
        rep = orbit_support_report(phi_perturbed, [0.3, 0.55, 0.42], 5)
        assert 0 in rep["steps_in_support"]

    def test_stack_matches_single_reports(self, phi_perturbed):
        X = np.vstack([np.zeros(3), [0.3, 0.55, 0.42], support_points(5, 8)])
        assert orbit_support_report(phi_perturbed, X, 12) == [
            orbit_support_report(phi_perturbed, x, 12) for x in X
        ]

    def test_orbit_length(self, phi_perturbed):
        assert len(orbit(phi_perturbed, np.zeros(3), 7)) == 8


def support_points(n, seed):
    """Points inside the support cylinder of the conftest shear."""
    rng = np.random.default_rng(seed)
    r = 0.19 * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    c = SHEAR["center"]
    return np.column_stack([rng.uniform(0, 1, n), c[1] + r * np.cos(th), c[2] + r * np.sin(th)])


class TestKernel:
    def test_orbit_matches_scalar_apply(self, phi_perturbed):
        X = support_points(20, 0)
        pts = orbit(phi_perturbed, X, 60)
        for n, x in enumerate(X):
            assert np.array_equal(np.array([p[n] for p in pts]), np.array(orbit(phi_perturbed, x, 60)))

    def test_batch_size_invariance(self, phi_perturbed):
        X = support_points(50, 1)
        seed = np.broadcast_to(np.eye(3)[:, :2, None], (3, 2, 50))
        Y, recs = _forward(phi_perturbed, wrap_point(X), [50] * 200)
        *_, Q = _pull_back(phi_perturbed, recs, seed)
        for n in range(50):
            Y1, recs1 = _forward(phi_perturbed, wrap_point(X[n : n + 1]), [1] * 200)
            *_, Q1 = _pull_back(phi_perturbed, recs1, seed[:, :, :1])
            assert Y1[0].tobytes() == Y[n].tobytes()
            assert Q1[:, :, 0].tobytes() == Q[:, :, n].tobytes()

    def test_stage_inverse_matches_solve(self, phi_perturbed):
        X = support_points(30, 2)
        _, (rec,) = _forward(phi_perturbed, wrap_point(X), [30])
        V = np.random.default_rng(3).normal(size=(3, 2, 30))
        pulled = _tangent(phi_perturbed, rec, V, inverse=True)
        pushed = _tangent(phi_perturbed, rec, V)
        for n, x in enumerate(X):
            D = dense_differential(phi_perturbed, x)
            assert np.max(np.abs(pulled[:, :, n] - np.linalg.solve(D, V[:, :, n]))) < 1e-13
            assert np.max(np.abs(pushed[:, :, n] - D @ V[:, :, n])) < 1e-13

    def test_gram_schmidt(self):
        V = np.random.default_rng(4).normal(size=(3, 2, 10))
        Q = _gram_schmidt(V)
        for n in range(10):
            R = Q[:, :, n].T @ V[:, :, n]
            assert R[1, 0] == pytest.approx(0.0, abs=1e-14) and R[0, 0] > 0 and R[1, 1] > 0
            assert np.max(np.abs(Q[:, :, n].T @ Q[:, :, n] - np.eye(2))) < 1e-14
            assert np.max(np.abs(Q[:, :, n] @ R - V[:, :, n])) < 1e-14

    def test_gram_schmidt_collinear_raises(self):
        V = np.random.default_rng(5).normal(size=(3, 2, 4))
        V[:, 1, 2] = -2.5 * V[:, 0, 2]
        with pytest.raises(DegeneratePlaneError):
            _gram_schmidt(V)

    def test_backward_orbit_batch_size_invariance(self, phi_perturbed):
        # half the rows start inside the support; a row's backward orbit and
        # inverse step are bitwise the same at N = 1, 7 and 2,000
        X = np.random.default_rng(6).uniform(0, 1, (2000, 3))
        X[::2] = support_points(1000, 7)
        shear, auto = phi_perturbed.stages
        assert (shear._planar_offsets(X)[1] < shear.radius)[::2].all()
        big = np.array(orbit(phi_perturbed, X, 300, direction="inverse"))
        seven = np.array(orbit(phi_perturbed, X[:7], 300, direction="inverse"))
        assert big[:, :7].tobytes() == seven.tobytes()
        R = auto.retreat(big[-1])
        assert auto.retreat(big[-1][:7]).tobytes() == R[:7].tobytes()
        for n in range(7):
            single = np.array(orbit(phi_perturbed, X[n], 300, direction="inverse"))
            assert single.tobytes() == big[:, n].tobytes()
            assert auto.retreat(big[-1][n : n + 1])[0].tobytes() == R[n].tobytes()
            assert phi_perturbed.apply_inverse(X[n]).tobytes() == big[1, n].tobytes()
