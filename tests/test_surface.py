import math

import numpy as np
import pytest

from splitkit.errors import ChartExitError
from splitkit.frames import (
    AdaptedFrame,
    AnalyticFrame,
    PullbackFrame,
    constant_frame,
    contact_frame,
)
from splitkit.surface import (
    ChartBox,
    FlowSpec,
    build_patch,
    flow,
    planarity_defect,
    pushforward_convergence_series,
    pushforward_norm_identity,
    pushforward_vector,
    tangency_report,
)

SPEC = FlowSpec(step=1e-3)

# inside the support of the shared test shear (centre (0, 0.5, 0.5), radius 0.2)
IN_SUPPORT = np.array([0.3, 0.52, 0.45])


def rk4_point(field, y, t, step):
    """Row-by-row reference: one state, one field evaluation per RK4 stage."""
    n = max(1, math.ceil(abs(t) / step))
    dt = t / n
    for _ in range(n):
        k1 = field(y)
        k2 = field(y + 0.5 * dt * k1)
        k3 = field(y + 0.5 * dt * k2)
        k4 = field(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def reference_patch(frame, x0, epsilon, n, step, order):
    """Patch nodes flowed one row and one point at a time, outward from t = 0."""
    grid = np.linspace(-epsilon, epsilon, n)
    i0 = n // 2

    def row(p, field):
        out = np.empty((n, 3))
        out[i0] = p
        for side in (range(i0 + 1, n), range(i0 - 1, -1, -1)):
            q, prev = p, i0
            for i in side:
                q = rk4_point(field, q, grid[i] - grid[prev], step)
                out[i] = q
                prev = i
        return out

    first, second = (frame.Y, frame.X) if order == "xy" else (frame.X, frame.Y)
    rows = np.array([row(q, second) for q in row(x0, first)])
    return rows.swapaxes(0, 1) if order == "xy" else rows


def exp_frame():
    """a = x3: the X-flow multiplies x3 by e^t (closed form, genuinely curved)."""
    return AnalyticFrame(
        lambda p: p[2],
        lambda p: 0.0,
        grad_a=lambda p: np.array([0.0, 0.0, 1.0]),
    )


class TestFlow:
    def test_straight_line(self):
        fr = constant_frame(0.0, 0.0)
        got = flow(fr.X, np.zeros(3), 0.3, SPEC)
        assert np.allclose(got, [0.3, 0.0, 0.0], atol=1e-13)

    def test_constant_slope(self):
        fr = constant_frame(0.5, 0.0)
        got = flow(fr.X, np.zeros(3), 0.4, SPEC)
        assert np.allclose(got, [0.4, 0.0, 0.2], atol=1e-13)

    def test_contact_y_flow(self):
        fr = contact_frame()
        for x1, s in [(0.3, 0.2), (0.7, -0.15)]:
            got = flow(fr.Y, np.array([x1, 0.0, 0.0]), s, SPEC)
            assert np.allclose(got, [x1, s, x1 * s], atol=1e-12)

    def test_reversibility(self):
        fr = exp_frame()
        x = np.array([0.1, 0.2, 0.8])
        back = flow(fr.X, flow(fr.X, x, 0.3, SPEC), -0.3, SPEC)
        assert np.allclose(back, x, atol=1e-12)

    def test_chart_exit(self):
        fr = constant_frame(0.0, 0.0)
        chart = ChartBox(center=np.zeros(3), halfwidth=0.1)
        with pytest.raises(ChartExitError) as ei:
            flow(fr.X, np.zeros(3), 0.5, SPEC, chart=chart)
        assert 0.0 < ei.value.exit_time <= 0.15

    def test_order_four(self):
        # global error on the exponential closed-form flow scales as step^4
        fr = exp_frame()
        x = np.array([0.0, 0.0, 1.0])
        t = 0.5
        errs = []
        for step in (1e-2, 5e-3, 2.5e-3):
            got = flow(fr.X, x, t, FlowSpec(step=step))
            errs.append(abs(got[2] - np.exp(t)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert abs(order1 - 4.0) < 0.8
        assert abs(order2 - 4.0) < 0.8

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            FlowSpec(step=-1.0)

    def test_stack_equals_rows_bitwise(self, phi_perturbed):
        fr = PullbackFrame(phi_perturbed, 10)
        P = IN_SUPPORT + np.random.default_rng(2).uniform(-0.05, 0.05, (6, 3))
        for field in (fr.X, fr.Y):
            got = flow(field, P, -0.013, SPEC)
            assert got.shape == P.shape
            rows = np.array([flow(field, p, -0.013, SPEC) for p in P])
            assert got.tobytes() == rows.tobytes()

    def test_stack_chart_exit_of_one_row(self):
        fr = constant_frame(0.0, 0.0)
        chart = ChartBox(center=np.zeros(3), halfwidth=0.1)
        P = np.array([[0.0, 0.0, 0.0], [0.08, 0.0, 0.0], [-0.05, 0.02, 0.0]])
        assert np.all(chart.contains(flow(fr.X, P[[0, 2]], 0.05, SPEC)))
        with pytest.raises(ChartExitError) as ei:
            flow(fr.X, P, 0.05, SPEC, chart=chart)
        assert ei.value.exit_time == pytest.approx(0.02, abs=SPEC.step)


class TestPatches:
    def test_linear_patch_planar(self):
        fr = constant_frame(0.2, -0.3)
        patch = build_patch(fr, np.array([0.5, 0.5, 0.5]), 0.05, 9, spec=SPEC)
        assert planarity_defect(patch) < 1e-9

    def test_linear_patch_tangency(self):
        fr = constant_frame(0.2, -0.3)
        x0 = np.array([0.5, 0.5, 0.5])
        patch = build_patch(fr, x0, 0.05, 9, spec=SPEC)
        rep = tangency_report(patch, fr, fr.planes)
        assert rep.max_angle < 1e-8
        assert rep.max_dWdt_defect < 1e-10
        assert rep.max_tangent_norm <= 1.05 * np.sqrt(1.0 + 0.3**2)

    def test_contact_patch_closed_form(self):
        fr = contact_frame()
        x0 = np.zeros(3)
        patch = build_patch(fr, x0, 0.05, 9, spec=SPEC)
        for i, t in enumerate(patch.ts):
            for j, s in enumerate(patch.ss):
                assert np.allclose(patch.points[i, j], [t, s, 0.0], atol=1e-10)
        swapped = build_patch(fr, x0, 0.05, 9, spec=SPEC, order="yx")
        for i, t in enumerate(swapped.ts):
            for j, s in enumerate(swapped.ss):
                assert np.allclose(swapped.points[i, j], [t, s, t * s], atol=1e-8)

    def test_contact_order_mismatch_is_ts(self):
        fr = contact_frame()
        p_xy = build_patch(fr, np.zeros(3), 0.05, 9, spec=SPEC)
        p_yx = build_patch(fr, np.zeros(3), 0.05, 9, spec=SPEC, order="yx")
        diff = p_yx.points - p_xy.points
        for i, t in enumerate(p_xy.ts):
            for j, s in enumerate(p_xy.ss):
                assert np.allclose(diff[i, j], [0.0, 0.0, t * s], atol=1e-8)

    def test_involutive_orders_commute(self):
        fr = AnalyticFrame(
            lambda p: 0.2 * np.cos(2 * np.pi * p[0]),
            lambda p: 0.3 * np.sin(2 * np.pi * p[1]),
        )
        x0 = np.array([0.4, 0.6, 0.5])
        p_xy = build_patch(fr, x0, 0.04, 7, spec=SPEC)
        p_yx = build_patch(fr, x0, 0.04, 7, spec=SPEC, order="yx")
        assert np.max(np.abs(p_xy.points - p_yx.points)) < 1e-9

    def test_dWdt_identity_curved(self):
        fr = exp_frame()
        patch = build_patch(fr, np.array([0.0, 0.0, 0.5]), 0.04, 9, spec=SPEC)
        rep = tangency_report(patch, fr, fr.planes)
        # FD tangents carry an O(grid^2) truncation error on curved patches
        assert rep.max_dWdt_defect < 5e-4

    def test_perturbed_pullback_patch_recorded(self, phi_perturbed, tilt_E0):
        fr = PullbackFrame(phi_perturbed, 4, E0=tilt_E0)
        x0 = np.zeros(3)
        patch = build_patch(fr, x0, 0.03, 7, spec=SPEC, k=4)
        rep = tangency_report(patch, fr, fr.planes)
        assert np.isfinite(rep.max_angle)
        # halving the integrator step does not move the recorded defect much
        patch2 = build_patch(fr, x0, 0.03, 7, spec=FlowSpec(step=5e-4), k=4)
        rep2 = tangency_report(patch2, fr, fr.planes)
        assert rep2.max_angle == pytest.approx(rep.max_angle, rel=0.5, abs=1e-9)

    @pytest.mark.parametrize("order", ["xy", "yx"])
    def test_stacked_patch_equals_row_by_row(self, phi_perturbed, order):
        x0 = IN_SUPPORT
        patch = build_patch(PullbackFrame(phi_perturbed, 10), x0, 0.02, 5, spec=SPEC, order=order)
        ref = reference_patch(PullbackFrame(phi_perturbed, 10), x0, 0.02, 5, SPEC.step, order)
        assert patch.points.tobytes() == ref.tobytes()
        # the shear bends the patch: its nodes are off the plane through x0
        assert planarity_defect(patch) > 1e-7

    def test_patch_sweep_one_coefficients_call_per_stage(self):
        sizes = []

        class Counting(AdaptedFrame):
            def coefficients(self, P):
                sizes.append(len(P))
                return np.tile([0.2, -0.3], (len(P), 1))

        build_patch(Counting(), np.zeros(3), 0.02, 5, spec=FlowSpec(step=4e-3))
        # n - 1 grid gaps of 3 RK4 steps, 4 stages each: the spine, then all rows
        assert sizes == [1] * 48 + [5] * 48

    def test_chart_exit_suggests_epsilon(self):
        fr = constant_frame(0.0, 0.0)
        chart = ChartBox(center=np.zeros(3), halfwidth=0.02)
        with pytest.raises(ChartExitError):
            build_patch(fr, np.zeros(3), 0.05, 7, spec=SPEC, chart=chart)


class TestPushforward:
    def test_norm_identity_constant(self):
        lhs, rhs, rel, _ = pushforward_norm_identity(constant_frame(0.7, 0.1), np.zeros(3), 0.3, SPEC)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_norm_identity_exponential(self):
        lhs, rhs, rel, _ = pushforward_norm_identity(
            exp_frame(), np.array([0.0, 0.0, 1.0]), 0.2, SPEC
        )
        assert lhs == pytest.approx(np.exp(0.2), abs=1e-5)
        assert rhs == pytest.approx(np.exp(0.2), abs=1e-5)
        assert rel <= 1e-4

    def test_norm_identity_contact(self):
        for t in (0.1, 0.25):
            lhs, rhs, rel, _ = pushforward_norm_identity(contact_frame(), np.array([0.3, 0.2, 0.1]), t, SPEC)
            assert lhs == pytest.approx(1.0, abs=1e-10)
            assert rhs == pytest.approx(1.0, abs=1e-10)

    def test_transport_one_kernel_call_per_stage(self, phi_perturbed, monkeypatch):
        import splitkit.frames as frames

        sizes = []
        kernel = frames.pullback_planes

        def counting(phi, P, E0, k):
            sizes.append(len(P))
            return kernel(phi, P, E0, k)

        monkeypatch.setattr(frames, "pullback_planes", counting)
        pushforward_vector(PullbackFrame(phi_perturbed, 20), IN_SUPPORT, 0.005, SPEC)
        # 5 RK4 steps of 4 stages each way: the backward X-flow pulls back each
        # stage point, Y is read at the preimage, and each variational stage
        # pulls back its whole gradient stencil, centre first, so that X at the
        # centre is a cache hit (at the first stage the centre is the preimage)
        assert sizes == [1] * 20 + [1] + [6] + [7] * 19

    def test_contact_pushforward_closed_form(self):
        # (X-flow_t)_* Y at x equals e2 + (x1 - t) e3 for the contact frame
        fr = contact_frame()
        x = np.array([0.4, 0.1, 0.2])
        t = 0.15
        res = pushforward_vector(fr, x, t, SPEC)
        assert np.allclose(res.vector, [0.0, 1.0, x[0] - t], atol=1e-10)
        assert np.linalg.norm(res.vector - fr.Y(x)) == pytest.approx(t, abs=1e-10)

    def test_series_zero_for_linear_involutive(self, phi_linear):
        ser = pushforward_convergence_series(phi_linear, np.zeros(3), [1, 3, 5, 8], 0.05, SPEC)
        assert all(ser.resolved)
        assert np.all(ser.values < 1e-9)

    def test_series_decays_for_tilt_initial(self, phi_linear, tilt_E0):
        ser = pushforward_convergence_series(
            phi_linear, np.zeros(3), [1, 2, 3, 4], 0.01, FlowSpec(step=2.5e-4),
            E0=tilt_E0, grad_h=1e-9,
        )
        vals = [v for (_, v) in ser.resolved_values()]
        assert len(vals) >= 3
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


class TestTangencySeries:
    def test_linear_patch_vs_true_eigenplane(self, slow_plane):
        from conftest import SLOW_PLANE_COEFFS

        fr = constant_frame(*SLOW_PLANE_COEFFS)
        patch = build_patch(fr, np.array([0.5, 0.5, 0.5]), 0.05, 9, spec=SPEC)
        rep = tangency_report(patch, fr, lambda P: [slow_plane] * len(P))
        assert rep.max_angle < 1e-8

    def test_perturbed_series_decreasing_towards_limit(self, phi_perturbed, tilt_E0):
        # tangency defect against the (deep-pullback) limit plane shrinks
        # with the frame depth; the convergence alternates in sign, so the
        # trend is asserted on window means, with no rate claimed
        limit = PullbackFrame(phi_perturbed, 60, E0=tilt_E0)
        maxima = []
        for k in range(1, 9):
            fr = PullbackFrame(phi_perturbed, k, E0=tilt_E0)
            patch = build_patch(fr, np.zeros(3), 0.02, 5, spec=FlowSpec(step=1e-3), k=k)
            rep = tangency_report(patch, fr, fr.planes, limit.planes)
            maxima.append(rep.max_angle_limit)
        assert np.mean(maxima[4:]) < np.mean(maxima[:4])
