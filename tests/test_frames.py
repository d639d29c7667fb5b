import numpy as np
import pytest

from splitkit import Plane2
from splitkit.errors import ChartUnsuitableError
from splitkit.frames import (
    AdaptedFrame,
    AnalyticFrame,
    PullbackFrame,
    adapted_coefficients,
    _jacobians,
    fd_stencil,
)
from splitkit.dynamics import _pullback_bases, orbit
from splitkit.geometry import principal_angle
from conftest import SHEAR, SLOW_PLANE_COEFFS, counting_kernel, dense_differential


def solve_qr_pullback(phi, p, E0: Plane2, k):
    """Reference pullback: solve with the dense one-step differential, then
    Householder QR, one point and one step at a time."""
    Q = E0.orthonormal_basis()
    for x in reversed(orbit(phi, p, k)[:-1]):
        Q, _ = np.linalg.qr(np.linalg.solve(dense_differential(phi, x), Q))
    return Plane2(Q)


def coefficients_of(plane: Plane2):
    """``adapted_coefficients`` of one plane, as an (a, b) tuple."""
    return tuple(adapted_coefficients(plane.basis[:, :, None])[0])


def plane_normal(B):
    """The unit normal of the plane a 3x2 basis spans, from one 3-vector
    ``np.linalg.norm``."""
    n = np.cross(B[:, 0], B[:, 1])
    return n / np.linalg.norm(n)


def normal_coefficients(B):
    """(-n[0]/n[2], -n[1]/n[2]) from the unit normal of ``Plane2(B)``."""
    n = plane_normal(Plane2(B).basis)
    return -n[0] / n[2], -n[1] / n[2]


class TestAdaptedCoefficients:
    def test_coordinate_plane(self):
        P = Plane2.spanned_by([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert coefficients_of(P) == pytest.approx((0.0, 0.0))

    def test_contact_plane(self):
        # kernel of dx3 - x1 dx2 at x1 = 0.7: normal (0, -0.7, 1)
        P = Plane2.spanned_by([1.0, 0.0, 0.0], [0.0, 1.0, 0.7])
        a, b = coefficients_of(P)
        assert a == pytest.approx(0.0, abs=1e-14)
        assert b == pytest.approx(0.7, abs=1e-14)

    def test_slow_eigenplane(self, slow_plane):
        a, b = coefficients_of(slow_plane)
        assert a == pytest.approx(SLOW_PLANE_COEFFS[0], abs=1e-9)
        assert b == pytest.approx(SLOW_PLANE_COEFFS[1], abs=1e-9)

    def test_reconstruction_in_plane(self, slow_plane):
        a, b = coefficients_of(slow_plane)
        for v in ([1.0, 0.0, a], [0.0, 1.0, b]):
            assert abs(plane_normal(slow_plane.basis) @ v) <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(-3.0, 3.0, 2)
            got = coefficients_of(Plane2.spanned_by([1, 0, a], [0, 1, b]))
            assert got == pytest.approx((a, b), abs=1e-12)

    def test_chart_unsuitable(self):
        P = Plane2.spanned_by([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        with pytest.raises(ChartUnsuitableError, match="permute"):
            coefficients_of(P)

    def test_chart_unsuitable_names_first_bad_row(self):
        B = np.stack(
            [Plane2.spanned_by([1, 0, 0.1], [0, 1, 0.2]).basis, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])],
            axis=-1,
        )
        with pytest.raises(ChartUnsuitableError, match="0.000e"):
            adapted_coefficients(B)

    def test_cross_product_is_np_cross(self):
        # 10,000 random bases: the products and differences written out are
        # bitwise np.cross, and so is every coefficient pair
        B = np.random.default_rng(9).uniform(-1.0, 1.0, (3, 2, 10_000))
        B[:2] = 0.3 * B[:2] + np.eye(2)[:, :, None]  # graphs over (x1, x2)
        c = np.ascontiguousarray(np.cross(B[:, 0], B[:, 1], axis=0).T)
        n = c / np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0]
        want = np.stack([-n[:, 0] / n[:, 2], -n[:, 1] / n[:, 2]], axis=1)
        assert adapted_coefficients(B).tobytes() == want.tobytes()

    def test_bitwise_equal_to_plane_normal(self, phi_perturbed):
        # every basis the kernel yields on a depth-500 pullback of 20 rows is
        # the row's pullback at a depth from 1 to 500: 10,000 kernel rows; the
        # normal's length is the guarded part, since a plain sum of squares,
        # np.linalg.norm(axis=0) or nested np.hypot differ from the BLAS dot
        # of one 3-vector in the last bit on some rows
        from splitkit.dynamics import _forward, _pull_back
        from splitkit.geometry import wrap_point
        from splitkit.dynamics import _field_bases

        X = np.random.default_rng(5).uniform(0, 1, (20, 3))
        X[:10, 1:] = np.asarray(SHEAR["center"])[1:] + np.random.default_rng(6).uniform(
            -0.15, 0.15, (10, 2)
        )
        Y, recs = _forward(phi_perturbed, wrap_point(X), [20] * 500)
        stacks = list(_pull_back(phi_perturbed, recs, _field_bases(None, Y)))
        Q = np.concatenate(stacks, axis=2)
        assert Q.shape[2] == 10_000
        got = adapted_coefficients(Q)
        want = np.array([normal_coefficients(Q[:, :, n]) for n in range(Q.shape[2])])
        assert got.tobytes() == want.tobytes()
        for n in range(0, Q.shape[2], 97):
            assert adapted_coefficients(Q[:, :, n : n + 1]).tobytes() == got[n].tobytes()


class TestPullbackFrame:
    def test_depth_zero_is_initial(self, phi_linear, tilt_E0):
        fr = PullbackFrame(phi_linear, 0, E0=tilt_E0)
        p = np.array([0.25, 0.1, 0.9])
        a, b = fr.coefficients(p)
        assert a == pytest.approx(0.0, abs=1e-14)
        assert b == pytest.approx(0.1 * np.sin(2 * np.pi * 0.25), abs=1e-14)

    def test_depth_zero_bitwise_field_coefficients(self, phi_perturbed, tilt_E0):
        # lifted flow points leave [0, 1)^3; the field is read where they are
        from splitkit.dynamics import DEFAULT_E0

        P = np.random.default_rng(4).uniform(-0.5, 1.5, (50, 3))
        const = Plane2.spanned_by([1, 0, 0.3], [0, 1, -0.7])
        for E0, field in ((tilt_E0, tilt_E0), (None, lambda p: DEFAULT_E0), (const, lambda p: const)):
            got = PullbackFrame(phi_perturbed, 0, E0=E0).coefficients(P)
            want = np.array([normal_coefficients(field(p).basis) for p in P])
            assert got.tobytes() == want.tobytes()

    def test_linear_pullback_constant_in_x(self, phi_linear):
        fr = PullbackFrame(phi_linear, 5)
        a1, b1 = fr.coefficients(np.array([0.1, 0.2, 0.3]))
        a2, b2 = fr.coefficients(np.array([0.7, 0.9, 0.05]))
        assert a1 == pytest.approx(a2, abs=1e-12)
        assert b1 == pytest.approx(b2, abs=1e-12)

    def test_converges_to_slow_plane_coeffs(self, phi_linear):
        fr = PullbackFrame(phi_linear, 500)
        a, b = fr.coefficients(np.array([0.3, 0.3, 0.3]))
        assert a == pytest.approx(SLOW_PLANE_COEFFS[0], abs=1e-6)
        assert b == pytest.approx(SLOW_PLANE_COEFFS[1], abs=1e-6)

    def test_matches_solve_qr_reference(self, phi_perturbed):
        # roundoff differences contract with the pullback, so the closed-form
        # kernel and the reference agree to a few hundred ulps at any depth
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (10, 3))
        X[:5, 1:] = np.asarray(SHEAR["center"])[1:] + rng.uniform(-0.1, 0.1, (5, 2))
        E0 = Plane2.spanned_by([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        for x in X:
            for k in (1, 30):
                got = Plane2(_pullback_bases(phi_perturbed, x[None], E0, k)[:, :, 0])
                assert principal_angle(got, solve_qr_pullback(phi_perturbed, x, E0, k)) < 1e-12

    def test_fields_of_a_stack_equal_rows(self, phi_perturbed, tilt_E0):
        P = np.random.default_rng(3).uniform(0, 1, (7, 3))
        analytic = AnalyticFrame(lambda p: p[2], lambda p: p[0])
        for fr in (PullbackFrame(phi_perturbed, 10, E0=tilt_E0), analytic):
            for field in (fr.X, fr.Y):
                got = field(P)
                assert got.shape == (7, 3)
                assert got.tobytes() == np.array([field(p) for p in P]).tobytes()
        assert np.array_equal(analytic.X(P[0]), [1.0, 0.0, P[0, 2]])
        assert np.array_equal(analytic.Y(P[0]), [0.0, 1.0, P[0, 0]])

    def test_cache_hit(self, phi_linear):
        fr = PullbackFrame(phi_linear, 3)
        p = np.array([0.5, 0.5, 0.25])
        assert fr.coefficients(p) == fr.coefficients(p)
        assert len(fr._cache) == 1

    def test_batch_equals_rows(self, phi_perturbed, tilt_E0, monkeypatch):
        P = np.random.default_rng(0).uniform(0, 1, (12, 3))
        P[5] = P[2]  # a repeated row is pulled back once
        batch = PullbackFrame(phi_perturbed, 40, E0=tilt_E0)
        got = batch.coefficients(P)
        assert got.shape == (12, 2)
        assert len(batch._cache) == 11
        single = PullbackFrame(phi_perturbed, 40, E0=tilt_E0)
        for n, p in enumerate(P):
            assert tuple(got[n]) == single.coefficients(p)

        def no_pullback(*args):
            raise AssertionError("cache miss")

        monkeypatch.setattr("splitkit.frames._pullback_bases", no_pullback)
        assert np.array_equal(batch.coefficients(P), got)
        assert len(batch._cache) == 11


def jacobian_reference(frame, x, h):
    """The pair (a, b) at x and its centred differences (2, 3) at step h, from
    the frame's own coefficients on the 7-point stencil written out here."""
    E = h * np.eye(3)
    C = np.asarray(frame.coefficients(np.array([x, x + E[0], x - E[0], x + E[1], x - E[1], x + E[2], x - E[2]])))
    return C[0], ((C[1::2] - C[2::2]) / (2 * h)).T


class TestJacobians:
    def test_stencil_stack_equals_rows(self):
        P = np.random.default_rng(7).uniform(0, 1, (5, 3))
        h = np.array([1e-3, 1e-4, 2.5e-5, 1e-6, 3e-2])
        S = fd_stencil(P, h)
        assert S.shape == (5, 7, 3)
        for x, step, rows in zip(P, h, S):
            E = step * np.eye(3)
            want = np.array([x, x + E[0], x - E[0], x + E[1], x - E[1], x + E[2], x - E[2]])
            assert rows.tobytes() == want.tobytes() == fd_stencil(x, step).tobytes()

    def test_x3_axis_reads_three_stencil_rows_per_point(self):
        # axes=(2,) reads each point's centre and its two x3 rows, 3 rows per
        # point in one coefficients call; its pairs and its x3 column are
        # bitwise the full call's, which reads all 7
        shapes = []

        class Counting(AdaptedFrame):
            def coefficients(self, P):
                shapes.append(np.shape(P))
                x1, x2, x3 = np.asarray(P).T
                return np.stack([0.3 * x1 * x3 * x3 - 0.2 * x2, 0.1 * x1 * x2 * x3], axis=1)

        frame = Counting()
        P = np.random.default_rng(11).uniform(0, 1, (6, 3))
        h = np.array([1e-4, 3e-5, 1e-3, 1e-5, 2e-4, 1e-6])
        C, J = _jacobians([frame] * 6, P, h, axes=(2,))
        full_C, full_J = _jacobians([frame] * 6, P, h)
        assert shapes == [(18, 3), (42, 3)]
        assert J.shape == (6, 2, 1) and full_J.shape == (6, 2, 3)
        assert C.tobytes() == full_C.tobytes()
        assert J[:, :, 0].tobytes() == full_J[:, :, 2].tobytes()
        assert np.abs(J).min() > 0

    def test_mixed_frames_rows_bitwise_one_kernel_call(self, phi_perturbed, monkeypatch):
        # an analytic frame and pullback frames at depths 0, 1 and 6, each
        # row with its own point and step: every row is bitwise its frame's
        # own differences, and the pullback rows make one kernel call
        def frames():
            curved = AnalyticFrame(
                lambda p: 0.3 * np.sin(2 * np.pi * p[0]) + 0.2 * p[1] * p[2] ** 2,
                lambda p: 0.1 * np.cos(2 * np.pi * p[1]) * p[2],
            )
            deep = PullbackFrame(phi_perturbed, 6)
            return [curved, PullbackFrame(phi_perturbed, 0), PullbackFrame(phi_perturbed, 1), deep, deep]

        rng = np.random.default_rng(8)
        P = np.asarray(SHEAR["center"]) + rng.uniform(-0.1, 0.1, (5, 3))
        h = np.array([1e-4, 3e-5, 1e-3, 1e-5, 2e-4])
        calls = counting_kernel(monkeypatch)
        C, J = _jacobians(frames(), P, h)
        assert [depths for _, depths in calls] == [[0, 1, 6]]
        assert C.shape == (5, 2) and J.shape == (5, 2, 3)
        monkeypatch.undo()
        for frame, x, step, c, j in zip(frames(), P, h, C, J):
            want_c, want_j = jacobian_reference(frame, x, step)
            assert c.tobytes() == want_c.tobytes() and j.tobytes() == want_j.tobytes()
        assert np.abs(J[3]).max() > 0
