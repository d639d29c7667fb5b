import numpy as np
import pytest

from splitkit import PAPER_MATRIX
from splitkit.errors import DegeneratePlaneError
from splitkit.geometry import (
    HODGE_STAR,
    Line1,
    Plane2,
    _record,
    adjugate3,
    det3,
    exterior_square,
    orthonormal_bases,
    principal_angle,
    wedge_coordinates,
    wrap_point,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def random_plane(rng):
    while True:
        B = rng.uniform(-1.0, 1.0, (3, 2))
        try:
            return Plane2(B)
        except DegeneratePlaneError:
            continue


class TestPointsAndLines:
    def test_wrap(self):
        assert np.allclose(wrap_point([1.2, -0.3, 2.0]), [0.2, 0.7, 0.0])

    def test_line_sign_convention(self):
        L = Line1(np.array([-2.0, 1.0, 0.0]))
        assert L.direction[0] > 0
        assert np.linalg.norm(L.direction) == pytest.approx(1.0, abs=1e-12)

    def test_line_first_component_zero(self):
        L = Line1(np.array([0.0, -3.0, 1.0]))
        assert L.direction[1] > 0


class TestPlane:
    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePlaneError, match="degenerate plane"):
            Plane2.spanned_by(E1, 2.0 * E1)

    def test_immutable(self):
        P = Plane2.spanned_by(E1, E2)
        with pytest.raises(ValueError):
            P.basis[0, 0] = 2.0
        with pytest.raises(AttributeError):
            P.basis = np.eye(3)[:, :2]

    def test_orthonormal_basis_made_once(self):
        # 10,000 random planes: the kept basis is bitwise the Gram-Schmidt of
        # the stored pair, made on the first call and read-only
        B = np.random.default_rng(8).uniform(-1.0, 1.0, (10_000, 3, 2))
        want = orthonormal_bases(B)
        for basis, w in zip(B, want):
            P = Plane2(basis)
            Q = P.orthonormal_basis()
            assert Q.tobytes() == w.tobytes()
            assert P.orthonormal_basis() is Q and not Q.flags.writeable


class TestRecord:
    @_record
    class Pair:
        first: int
        second: int = 2

        def __post_init__(self):
            object.__setattr__(self, "first", int(self.first))

    def test_fields_by_position_keyword_and_default(self):
        assert vars(self.Pair(1.0)) == {"first": 1, "second": 2}
        assert vars(self.Pair(second=3, first=1)) == {"first": 1, "second": 3}
        assert vars(self.Pair(1, 3)) == {"first": 1, "second": 3}

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((1, 2, 3), {}), ((1,), {"first": 1}), ((1,), {"third": 3})],
        ids=["missing", "too-many", "twice", "unknown"],
    )
    def test_bad_arguments_refused(self, args, kwargs):
        with pytest.raises(TypeError):
            self.Pair(*args, **kwargs)

    def test_assignment_refused(self):
        pair = self.Pair(1)
        with pytest.raises(AttributeError):
            pair.second = 3
        with pytest.raises(AttributeError):
            pair.third = 3
        assert vars(pair) == {"first": 1, "second": 2}


class TestPrincipalAngle:
    def test_identical(self):
        P = Plane2.spanned_by(E1, E2)
        assert principal_angle(P, P) == 0.0

    def test_orthogonal_completion(self):
        P = Plane2.spanned_by(E1, E2)
        Q = Plane2.spanned_by(E1, E3)
        assert principal_angle(P, Q) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_rotated(self):
        th = 0.3
        P = Plane2.spanned_by(E1, E2)
        Q = Plane2.spanned_by(E1, np.cos(th) * E2 + np.sin(th) * E3)
        assert principal_angle(P, Q) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            P, Q = random_plane(rng), random_plane(rng)
            assert principal_angle(P, Q) == pytest.approx(principal_angle(Q, P), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            P, Q, R = (random_plane(rng) for _ in range(3))
            assert principal_angle(P, R) <= principal_angle(P, Q) + principal_angle(Q, R) + 1e-9


class TestExteriorSquare:
    def test_identity(self):
        assert np.allclose(exterior_square(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(exterior_square(np.diag([2.0, 3.0, 5.0])), np.diag([6.0, 10.0, 15.0]))

    def test_functoriality(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            M = rng.uniform(-5.0, 5.0, (3, 3))
            N = rng.uniform(-5.0, 5.0, (3, 3))
            defect = exterior_square(M @ N) - exterior_square(M) @ exterior_square(N)
            assert np.max(np.abs(defect)) < 1e-10

    def test_determinant_squares(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            M = rng.uniform(-5.0, 5.0, (3, 3))
            d = np.linalg.det(M)
            assert np.linalg.det(exterior_square(M)) == pytest.approx(d * d, rel=1e-8)

    def test_cofactor_relation(self):
        # conjugating by the Hodge star turns the wedge action into det(M) M^-T
        rng = np.random.default_rng(6)
        for _ in range(100):
            M = rng.uniform(-3.0, 3.0, (3, 3))
            if abs(np.linalg.det(M)) < 1e-3:
                continue
            lhs = HODGE_STAR @ exterior_square(M) @ np.linalg.inv(HODGE_STAR)
            rhs = np.linalg.det(M) * np.linalg.inv(M).T
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_example_matrix_spectrum(self):
        A = PAPER_MATRIX.astype(float)
        E2A = exterior_square(A)
        assert np.linalg.det(E2A) == pytest.approx(1.0, rel=1e-10)
        w = np.sort(np.linalg.eigvals(A).real)
        pairs = np.sort([w[0] * w[1], w[0] * w[2], w[1] * w[2]])
        got = np.sort(np.linalg.eigvals(E2A).real)
        assert np.allclose(got, pairs, atol=1e-8)

    def test_wedge_coordinates_compatible(self):
        rng = np.random.default_rng(7)
        M = rng.uniform(-2.0, 2.0, (3, 3))
        u, v = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
        lhs = exterior_square(M) @ wedge_coordinates(u, v)
        rhs = wedge_coordinates(M @ u, M @ v)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestIntegerMatrixHelpers:
    def test_det3_exact(self):
        assert det3(PAPER_MATRIX) == 1
        assert isinstance(det3(PAPER_MATRIX), (int, np.integer))

    def test_adjugate_inverse(self):
        adj = adjugate3(PAPER_MATRIX)
        assert np.all(adj @ PAPER_MATRIX == np.eye(3, dtype=np.int64))
