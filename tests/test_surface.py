import math

import numpy as np
import pytest

from splitkit import Plane2, principal_angle
from splitkit.errors import ChartExitError, DegeneratePlaneError
from splitkit.frames import (
    AdaptedFrame,
    AnalyticFrame,
    PullbackFrame,
    adapted_coefficients,
    constant_frame,
    contact_frame,
)
from splitkit.surface import (
    SurfacePatch,
    _build_patches,
    _pushforwards,
    build_patch,
    flow,
    planarity_defect,
    pushforward_convergence_series,
    pushforward_norm_identity,
    tangency_report,
)
from conftest import counting_kernel

STEP = 1e-3

# inside the support of the shared test shear (centre (0, 0.5, 0.5), radius 0.2)
IN_SUPPORT = np.array([0.3, 0.52, 0.45])


def pullback_frames(phi, ks, E0=None):
    """(k, frame) pairs of fresh depth-k pullback frames, as the surface command builds them."""
    return [(k, PullbackFrame(phi, k, E0=E0)) for k in ks]


def graph_plane(frame, p):
    """The plane of a frame at one point, spanned by X = e1 + a e3 and Y = e2 + b e3."""
    a, b = frame.coefficients(p)
    return Plane2.spanned_by([1, 0, a], [0, 1, b])


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


def per_side_patch(frame, x0, epsilon, n, step, order):
    """Patch nodes of one seed with each side of each sweep flowed on its
    own: one ``flow`` call per grid gap and side, the side ahead first."""
    grid = np.linspace(-epsilon, epsilon, n)
    i0 = n // 2

    def sweep(field, starts):
        out = np.empty((len(starts), n, 3))
        out[:, i0] = starts
        for side in (range(i0 + 1, n), range(i0 - 1, -1, -1)):
            q, prev = starts, i0
            for i in side:
                q = flow(field, q, grid[i] - grid[prev], step)
                out[:, i] = q
                prev = i
        return out

    first, second = (frame.Y, frame.X) if order == "xy" else (frame.X, frame.Y)
    rows = sweep(second, sweep(first, np.asarray(x0, dtype=float)[None])[0])
    return rows.swapaxes(0, 1) if order == "xy" else rows


def transport_reference(frame, x, t, step, grad_h=1e-6, v=None):
    """Pushforward of Y (or of v given at the preimage) by the X-flow, its
    largest step load and the integral of da/dx3, from one backward pass of
    one state (p, q, m): grad(a) is the centred difference on the 7-point
    stencil, centre first, in one coefficients call, and the load is
    ``np.linalg.norm``; v is pushed by the inverse of the matrix with rows
    e1, e2 and m."""
    dt = t / max(1, math.ceil(abs(t) / step))
    E = grad_h * np.eye(3)
    loads = [0.0]

    def g(S):
        p = S[:3]
        C = frame.coefficients(np.array([p, p + E[0], p - E[0], p + E[1], p - E[1], p + E[2], p - E[2]]))
        G = (C[1::2, 0] - C[2::2, 0]) / (2 * grad_h)
        loads.append(float(np.linalg.norm(G) * abs(dt)))
        dm = -(G[2] * S[4:])
        dm[:2] -= G[:2]
        return np.concatenate([-frame.X(p), G[2:], dm])

    S = rk4_point(g, np.concatenate([x, [0.0, 0.0, 0.0, 1.0]]), t, step)
    m = S[4:]
    v = frame.Y(S[:3]) if v is None else np.asarray(v, dtype=float)
    w = np.array([v[0], v[1], (v[2] - m[0] * v[0] - m[1] * v[1]) / m[2]])
    return w, max(loads), S[3]


def forward_transport(frame, x, t, step, grad_h=1e-6, v=None):
    """The same pushforward by a forward pass: flow x back to its preimage,
    then carry (p, v) forward with p' = X(p) and v' = J(p) v."""
    y = rk4_point(frame.X, x, -t, step)
    E = grad_h * np.eye(3)

    def g(S):
        p = S[:3]
        a = frame.coefficients(np.array([p + E[0], p - E[0], p + E[1], p - E[1], p + E[2], p - E[2]]))[:, 0]
        J = np.zeros((3, 3))
        J[2] = (a[0::2] - a[1::2]) / (2 * grad_h)
        return np.concatenate([frame.X(p), J @ S[3:]])

    v = frame.Y(y) if v is None else v
    return rk4_point(g, np.concatenate([y, v]), t, step)[3:]


def exp_frame():
    """a = x3: the X-flow multiplies x3 by e^t (closed form, genuinely curved)."""
    return AnalyticFrame(lambda p: p[2], lambda p: 0.0)


class TestFlow:
    def test_straight_line(self):
        fr = constant_frame(0.0, 0.0)
        got = flow(fr.X, np.zeros(3), 0.3, STEP)
        assert np.allclose(got, [0.3, 0.0, 0.0], atol=1e-13)

    def test_constant_slope(self):
        fr = constant_frame(0.5, 0.0)
        got = flow(fr.X, np.zeros(3), 0.4, STEP)
        assert np.allclose(got, [0.4, 0.0, 0.2], atol=1e-13)

    def test_contact_y_flow(self):
        fr = contact_frame()
        for x1, s in [(0.3, 0.2), (0.7, -0.15)]:
            got = flow(fr.Y, np.array([x1, 0.0, 0.0]), s, STEP)
            assert np.allclose(got, [x1, s, x1 * s], atol=1e-12)

    def test_reversibility(self):
        fr = exp_frame()
        x = np.array([0.1, 0.2, 0.8])
        back = flow(fr.X, flow(fr.X, x, 0.3, STEP), -0.3, STEP)
        assert np.allclose(back, x, atol=1e-12)

    def test_chart_exit(self):
        # from 0.35 along e1, the row leaves the 0.45 box around 0 at time 0.1
        fr = constant_frame(0.0, 0.0)
        with pytest.raises(ChartExitError) as ei:
            flow(fr.X, np.array([0.35, 0.0, 0.0]), 0.5, STEP, center=np.zeros(3))
        assert 0.0 < ei.value.exit_time <= 0.15

    def test_order_four(self):
        # global error on the exponential closed-form flow scales as step^4
        fr = exp_frame()
        x = np.array([0.0, 0.0, 1.0])
        t = 0.5
        errs = []
        for step in (1e-2, 5e-3, 2.5e-3):
            got = flow(fr.X, x, t, step)
            errs.append(abs(got[2] - np.exp(t)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert abs(order1 - 4.0) < 0.8
        assert abs(order2 - 4.0) < 0.8

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            flow(constant_frame(0.0, 0.0).X, np.zeros(3), 0.1, step=-1.0)

    def test_zero_step_rejected(self):
        field = constant_frame(0.0, 0.0).X
        with pytest.raises(ValueError, match="step must be finite and positive"):
            flow(field, np.zeros(3), 0.1, step=0.0)
        with pytest.raises(ValueError, match="step must be finite and positive"):
            flow(field, np.zeros((3, 3)), 0.1, step=np.array([1e-3, 0.0, 5e-4]))

    @pytest.mark.parametrize("step", [math.inf, math.nan, np.array([1e-3, 0.0, math.inf, math.nan])])
    def test_non_finite_step_rejected(self, step):
        with pytest.raises(ValueError, match="step must be finite and positive"):
            flow(constant_frame(0.0, 0.0).X, np.zeros((np.size(step), 3)), 0.1, step=step)

    @pytest.mark.parametrize(
        "y0, t, message",
        [
            (np.zeros(3), math.nan, "row 0 is not finite: nan"),
            (np.zeros(3), math.inf, "row 0 is not finite: inf"),
            (np.zeros(3), -math.inf, "row 0 is not finite: -inf"),
            (np.zeros((4, 3)), [0.01, -0.02, math.nan, 0.0], "row 2 is not finite: nan"),
        ],
    )
    def test_non_finite_time_rejected(self, y0, t, message):
        with pytest.raises(ValueError, match=f"flow time of {message}"):
            flow(constant_frame(0.0, 0.0).X, y0, t, STEP)

    def test_per_row_times_bitwise_one_row_flows(self, phi_perturbed):
        # rows of 13, 11, 0, 2, 0 and 10 steps, of both signs, in one stack:
        # each row is bitwise its own one-row flow, and every RK4 stage is
        # one field call for the whole stack
        fr = PullbackFrame(phi_perturbed, 10)
        P = IN_SUPPORT + np.random.default_rng(3).uniform(-0.05, 0.05, (6, 3))
        times = np.array([0.013, -0.0105, 0.0, 0.0015, -0.0, 0.0091])
        calls = []

        def counted(S):
            calls.append(len(S))
            return fr.X(S)

        got = flow(counted, P, times, STEP)
        assert calls == [6] * (4 * 13)
        rows = np.array([flow(fr.X, p, t, STEP) for p, t in zip(P, times)])
        assert got.tobytes() == rows.tobytes()
        assert got[[2, 4]].tobytes() == P[[2, 4]].tobytes()
        # with one step per row as well: 13, 21, 0, 6, 0 and 13 steps
        steps = np.array([1e-3, 5e-4, 2e-3, 2.5e-4, 1e-3, 7e-4])
        calls.clear()
        got = flow(counted, P, times, steps)
        assert calls == [6] * (4 * 21)
        rows = np.array([flow(fr.X, p, t, h) for p, t, h in zip(P, times, steps)])
        assert got.tobytes() == rows.tobytes()
        assert got[[2, 4]].tobytes() == P[[2, 4]].tobytes()

    def test_per_row_times_bitwise_transport_state(self):
        # a 4-column state, X-flow positions with a vector column that grows
        # at the rate a, as the variational transport's states do
        fr = exp_frame()

        def g(S):
            return np.concatenate([fr.X(S[:, :3]), fr.coefficients(S[:, :3])[:, :1] * S[:, 3:]], axis=1)

        S = np.array([[0.0, 0.1, 0.5, 1.0], [0.2, 0.0, -0.3, 2.0], [0.1, 0.1, 0.1, -1.0], [0.0, 0.0, 0.9, 0.5]])
        times = [0.0072, -0.004, 0.0, -0.0101]
        got = flow(g, S, times, STEP)
        rows = np.array([flow(g, s, t, STEP) for s, t in zip(S, times)])
        assert got.tobytes() == rows.tobytes()
        # a = x3 is constant along the X-flow of x3 e^t, so v grows by exp(x3 (e^t - 1))
        assert got[0, 3] == pytest.approx(np.exp(0.5 * np.expm1(0.0072)), rel=1e-12)

    def test_stack_equals_rows_bitwise(self, phi_perturbed):
        fr = PullbackFrame(phi_perturbed, 10)
        P = IN_SUPPORT + np.random.default_rng(2).uniform(-0.05, 0.05, (6, 3))
        for field in (fr.X, fr.Y):
            got = flow(field, P, -0.013, STEP)
            assert got.shape == P.shape
            rows = np.array([flow(field, p, -0.013, STEP) for p in P])
            assert got.tobytes() == rows.tobytes()

    def test_stack_chart_exit_of_one_row(self):
        fr = constant_frame(0.0, 0.0)
        P = np.array([[0.0, 0.0, 0.0], [0.4305, 0.0, 0.0], [-0.05, 0.02, 0.0]])
        assert np.all(np.abs(flow(fr.X, P[[0, 2]], 0.05, STEP)) <= 0.45)
        with pytest.raises(ChartExitError) as ei:
            flow(fr.X, P, 0.05, STEP, center=np.zeros(3))
        assert ei.value.exit_time == pytest.approx(0.02, abs=STEP)
        assert ei.value.row == 1

    def test_stack_chart_exit_of_one_negative_time_row(self):
        fr = constant_frame(0.0, 0.0)
        P = np.array([[0.0, 0.0, 0.0], [-0.4305, 0.0, 0.0], [0.05, 0.02, 0.0]])
        times = [0.05, -0.05, -0.05]
        assert np.all(np.abs(flow(fr.X, P[[0, 2]], [0.05, -0.05], STEP)) <= 0.45)
        with pytest.raises(ChartExitError) as ei:
            flow(fr.X, P, times, STEP, center=np.zeros(3))
        assert ei.value.exit_time == pytest.approx(-0.02, abs=STEP)
        assert ei.value.exit_time < 0
        assert ei.value.row == 1


class TestPatches:
    def test_linear_patch_planar(self):
        fr = constant_frame(0.2, -0.3)
        patch = build_patch(fr, np.array([0.5, 0.5, 0.5]), 0.05, 9, STEP)
        assert planarity_defect(patch) < 1e-9

    def test_linear_patch_tangency(self):
        fr = constant_frame(0.2, -0.3)
        x0 = np.array([0.5, 0.5, 0.5])
        patch = build_patch(fr, x0, 0.05, 9, STEP)
        rep = tangency_report(patch, fr, fr)
        assert rep.max_angle < 1e-8
        assert rep.max_dWdt_defect < 1e-10
        assert rep.max_tangent_norm <= 1.05 * np.sqrt(1.0 + 0.3**2)

    def test_contact_patch_closed_form(self):
        fr = contact_frame()
        x0 = np.zeros(3)
        patch = build_patch(fr, x0, 0.05, 9, STEP)
        for i, t in enumerate(patch.ts):
            for j, s in enumerate(patch.ss):
                assert np.allclose(patch.points[i, j], [t, s, 0.0], atol=1e-10)
        swapped = build_patch(fr, x0, 0.05, 9, STEP, order="yx")
        for i, t in enumerate(swapped.ts):
            for j, s in enumerate(swapped.ss):
                assert np.allclose(swapped.points[i, j], [t, s, t * s], atol=1e-8)

    def test_contact_order_mismatch_is_ts(self):
        fr = contact_frame()
        p_xy = build_patch(fr, np.zeros(3), 0.05, 9, STEP)
        p_yx = build_patch(fr, np.zeros(3), 0.05, 9, STEP, order="yx")
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
        p_xy = build_patch(fr, x0, 0.04, 7, STEP)
        p_yx = build_patch(fr, x0, 0.04, 7, STEP, order="yx")
        assert np.max(np.abs(p_xy.points - p_yx.points)) < 1e-9

    def test_dWdt_identity_curved(self):
        fr = exp_frame()
        patch = build_patch(fr, np.array([0.0, 0.0, 0.5]), 0.04, 9, STEP)
        rep = tangency_report(patch, fr, fr)
        # FD tangents carry an O(grid^2) truncation error on curved patches
        assert rep.max_dWdt_defect < 5e-4

    def test_perturbed_pullback_patch_recorded(self, phi_perturbed, tilt_E0):
        fr = PullbackFrame(phi_perturbed, 4, E0=tilt_E0)
        x0 = np.zeros(3)
        patch = build_patch(fr, x0, 0.03, 7, STEP)
        rep = tangency_report(patch, fr, fr)
        assert np.isfinite(rep.max_angle)
        # halving the integrator step does not move the recorded defect much
        patch2 = build_patch(fr, x0, 0.03, 7, 5e-4)
        rep2 = tangency_report(patch2, fr, fr)
        assert rep2.max_angle == pytest.approx(rep.max_angle, rel=0.5, abs=1e-9)

    @pytest.mark.parametrize("order", ["xy", "yx"])
    def test_stacked_patch_equals_row_by_row(self, phi_perturbed, order):
        x0 = IN_SUPPORT
        patch = build_patch(PullbackFrame(phi_perturbed, 10), x0, 0.02, 5, STEP, order=order)
        ref = reference_patch(PullbackFrame(phi_perturbed, 10), x0, 0.02, 5, STEP, order)
        assert patch.points.tobytes() == ref.tobytes()
        # the shear bends the patch: its nodes are off the plane through x0
        assert planarity_defect(patch) > 1e-7

    def test_stacked_seeds_equal_separate_builds(self, phi_perturbed):
        # four seeds in both orders, one stack; each patch is bitwise the
        # patch built from its seed alone, with a frame of its own
        u = np.array([0.6, 0.0, 0.8])
        seeds = [IN_SUPPORT, IN_SUPPORT, IN_SUPPORT + 1e-3 * u, IN_SUPPORT + 5e-4 * u]
        orders = ("xy", "yx", "yx", "xy")
        frame = PullbackFrame(phi_perturbed, 10)
        stacked = _build_patches([frame] * 4, seeds, orders, 0.02, 5, STEP)
        for patch, x0, order in zip(stacked, seeds, orders):
            fresh = PullbackFrame(phi_perturbed, 10)
            alone = build_patch(fresh, x0, 0.02, 5, STEP, order=order)
            assert patch.points.tobytes() == alone.points.tobytes()
            assert patch.points[2, 2].tobytes() == alone.points[2, 2].tobytes() == x0.tobytes()

    @pytest.mark.parametrize("field", [None, "tilt"])
    def test_stacked_depths_equal_build_patch(self, phi_perturbed, tilt_E0, field):
        # the patches of several depths in one stack, as the surface command
        # builds them: each is bitwise the patch built alone
        E0 = tilt_E0 if field else None
        ks = [1, 2, 4]
        frames = [PullbackFrame(phi_perturbed, k, E0=E0) for k in ks]
        stacked = _build_patches(frames, [IN_SUPPORT] * 3, ["xy"] * 3, 0.02, 5, STEP)
        for patch, k in zip(stacked, ks):
            fresh = PullbackFrame(phi_perturbed, k, E0=E0)
            alone = build_patch(fresh, IN_SUPPORT, 0.02, 5, STEP)
            assert patch.points.tobytes() == alone.points.tobytes()

    def test_stacked_depths_one_kernel_call_per_stage(self, phi_perturbed, tilt_E0, monkeypatch):
        calls = counting_kernel(monkeypatch)
        frames = [PullbackFrame(phi_perturbed, k, E0=tilt_E0) for k in (1, 2, 3)]
        _build_patches(frames, [IN_SUPPORT] * 3, ["xy", "yx", "xy"], 0.02, 5, 4e-3)
        # (n - 1) / 2 gaps on each side of 3 RK4 steps, 4 stages each: the
        # spines, then all rows, both sides of a gap in one stack, and every
        # stage pulls back the three depths together. Both sides of the
        # spines start at the three seeds, so the first stage pulls back
        # those three once; the rows start on the spine nodes, which the
        # spines' next steps put in the cache, except the two end nodes of
        # each spine
        assert [rows for rows, _ in calls] == [3] + [6] * 23 + [6] + [30] * 23
        assert all(depths == [1, 2, 3] for _, depths in calls)

    def test_patch_sweep_one_coefficients_call_per_stage(self):
        sizes = []

        class Counting(AdaptedFrame):
            def coefficients(self, P):
                sizes.append(len(P))
                return np.tile([0.2, -0.3], (len(P), 1))

        build_patch(Counting(), np.zeros(3), 0.02, 5, 4e-3)
        # (n - 1) / 2 gaps on each side of 3 RK4 steps, 4 stages each: the
        # spine, then all rows, both sides of a gap in one stack
        assert sizes == [2] * 24 + [10] * 24

    def test_shipped_grid_both_sides_bitwise_per_side_flows(self, phi_perturbed):
        # the shipped perturbed grid: epsilon 0.03, n = 7, depth 10. Rounding
        # in the grid makes the + side take 11, 11, 10 steps per gap and the
        # - side 10, 10, 11, and both sides step in one stack
        grid = np.linspace(-0.03, 0.03, 7)
        assert [math.ceil(abs(grid[i] - grid[i - 1]) / STEP) for i in (4, 5, 6)] == [11, 11, 10]
        assert [math.ceil(abs(grid[i] - grid[i + 1]) / STEP) for i in (2, 1, 0)] == [10, 10, 11]
        seeds = [IN_SUPPORT, IN_SUPPORT + np.array([1e-3, 0.0, 0.0])]
        orders = ("xy", "yx")
        frame = PullbackFrame(phi_perturbed, 10)
        stacked = _build_patches([frame] * 2, seeds, orders, 0.03, 7, STEP)
        for patch, x0, order in zip(stacked, seeds, orders):
            ref = per_side_patch(PullbackFrame(phi_perturbed, 10), x0, 0.03, 7, STEP, order)
            assert patch.points.tobytes() == ref.tobytes()

    def test_chart_exit_earlier_minus_side_reported_first(self):
        # X = e1 + 2 (1 - x3) e3 from the chart centre 0: x3 = 1 - exp(-2 t),
        # so in the second gap the - side rows leave the 0.45 box at
        # t = -ln(1.45) / 2 = -0.186, before the + side rows, which would
        # leave at t = -ln(0.55) / 2 = 0.299; the spines (along e2) stay inside
        step = 1e-2
        fr = AnalyticFrame(lambda p: 2.0 * (1.0 - p[2]), lambda p: 0.0)
        with pytest.raises(ChartExitError, match="patch xy left") as ei:
            build_patch(fr, np.zeros(3), 0.3, 5, step)
        assert ei.value.exit_time == pytest.approx(-math.log(1.45) / 2, abs=step)
        assert ei.value.exit_time < 0

    def test_chart_exit_suggests_epsilon(self):
        # the spine along e2 passes the 0.45 box before reaching s = 0.5
        fr = constant_frame(0.0, 0.0)
        with pytest.raises(ChartExitError, match="reduce epsilon"):
            build_patch(fr, np.zeros(3), 0.5, 7, STEP)


class TestPushforward:
    def test_norm_identity_constant(self):
        lhs, rhs, rel, _ = pushforward_norm_identity(constant_frame(0.7, 0.1), np.zeros(3), 0.3, STEP)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_norm_identity_exponential(self):
        lhs, rhs, rel, _ = pushforward_norm_identity(
            exp_frame(), np.array([0.0, 0.0, 1.0]), 0.2, STEP
        )
        assert lhs == pytest.approx(np.exp(0.2), abs=1e-5)
        assert rhs == pytest.approx(np.exp(0.2), abs=1e-5)
        assert rel <= 1e-4

    def test_norm_identity_contact(self):
        for t in (0.1, 0.25):
            lhs, rhs, rel, _ = pushforward_norm_identity(contact_frame(), np.array([0.3, 0.2, 0.1]), t, STEP)
            assert lhs == pytest.approx(1.0, abs=1e-10)
            assert rhs == pytest.approx(1.0, abs=1e-10)

    def test_norm_identity_holds_for_a_non_integrable_frame(self):
        # along one backward trajectory the pass integrates m3' = -a3 m3 and
        # q' = a3, so lhs = 1/|m3| equals rhs = exp(q) for every C^1 graph
        # frame: a = x2 x3, b = 0 has bracket c = -x3, and the identity holds
        from splitkit.bracket import bracket_coefficient

        fr = AnalyticFrame(lambda p: p[1] * p[2], lambda p: 0.0)
        x = np.array([0.3, 0.4, 0.5])
        bs = bracket_coefficient(fr, x)
        assert bs.resolved and bs.c == pytest.approx(-0.5, rel=1e-9)
        lhs, rhs, rel, resolved = pushforward_norm_identity(fr, x, 0.05, STEP)
        assert resolved and rel < 1e-12

    def test_transport_one_kernel_call_per_stage(self, phi_perturbed, monkeypatch):
        calls = counting_kernel(monkeypatch)
        _, load, _, _ = _pushforwards([PullbackFrame(phi_perturbed, 2)], IN_SUPPORT[None], 0.005, STEP, 1e-6)
        # 5 backward RK4 steps of 4 stages: each stage pulls back its whole
        # gradient stencil, centre first, and Y is read at the preimage
        assert load[0] < 0.5 and [rows for rows, _ in calls] == [7] * 20 + [1]
        calls.clear()
        # the depth-20 frame's load passes the budget at the first stage, so
        # its row leaves the pass there and Y is not read
        _, load, _, _ = _pushforwards([PullbackFrame(phi_perturbed, 20)], IN_SUPPORT[None], 0.005, STEP, 1e-6)
        assert load[0] >= 0.5 and [rows for rows, _ in calls] == [7]

    def test_stopped_row_leaves_a_mixed_stack(self, phi_perturbed, monkeypatch):
        # one stack of a row past the load budget (depth 20 in the support),
        # a depth-2 pullback frame and a curved analytic frame: the stopped
        # row's vector, integral and m3 are not formed and it is spent on no
        # kernel row after its first stage; the other rows are bitwise their
        # one-row passes
        curved = AnalyticFrame(lambda p: np.sin(2 * np.pi * p[0]) + p[1] * p[2] ** 2, lambda p: p[2])
        X = np.array([IN_SUPPORT, IN_SUPPORT, [0.1, 0.4, 0.7]])
        frames = [PullbackFrame(phi_perturbed, 20), PullbackFrame(phi_perturbed, 2), curved]
        calls = counting_kernel(monkeypatch)
        vec, load, q, m3 = _pushforwards(frames, X, 0.005, STEP, 1e-6)
        assert load[0] >= 0.5 and np.isnan(vec[0]).all() and np.isnan(q[0]) and np.isnan(m3[0])
        assert calls[0] == (14, [2, 20])
        assert calls[1:] == [(7, [2])] * 19 + [(1, [2])]
        for n, fr in ((1, PullbackFrame(phi_perturbed, 2)), (2, curved)):
            one = _pushforwards([fr], X[n : n + 1], 0.005, STEP, 1e-6)
            assert one[1][0] < 0.5
            assert [a[n : n + 1].tobytes() for a in (vec, load, q, m3)] == [a.tobytes() for a in one]

    @pytest.mark.parametrize("k", [2, 6])
    def test_identity_is_one_pass(self, phi_perturbed, monkeypatch, k):
        # both sides of the identity come from one backward pass: one kernel
        # call per stage (4 RK4 steps of 4 stages), none for a forward
        # transport or a second quadrature, and each side is the one-state
        # reference's, bit for bit
        calls = counting_kernel(monkeypatch)
        fr = PullbackFrame(phi_perturbed, k)
        lhs, rhs, rel, resolved = pushforward_norm_identity(fr, IN_SUPPORT, 0.004, STEP)
        assert [rows for rows, _ in calls] == [7] * 16
        fresh = PullbackFrame(phi_perturbed, k)
        w, load, q = transport_reference(fresh, IN_SUPPORT, 0.004, STEP, v=[0.0, 0.0, 1.0])
        assert (lhs, rhs) == (np.linalg.norm(w), np.exp(q))
        assert rel == abs(lhs - rhs) / rhs and resolved is bool(load < 0.5)

    @pytest.mark.parametrize("frame", ["depth 2", "depth 6", "exp", "curved"])
    def test_identity_rhs_bitwise_separate_quadrature(self, phi_perturbed, frame):
        # rhs is the quadrature of a (-X, da/dx3) state on its own, with
        # da/dx3 the centred difference at step 1e-6, bit for bit: the
        # transport columns that ride along do not touch it. That
        # quadrature's positions end bitwise at the backward X-flow's end,
        # as negating the field and the time step is exact
        if frame == "exp":
            fr, x, t = exp_frame(), np.array([0.0, 0.0, 1.0]), 0.2
        elif frame == "curved":
            fr = AnalyticFrame(lambda p: np.sin(2 * np.pi * p[0]) + p[1] * p[2] ** 2, lambda p: p[2])
            x, t = np.array([0.1, 0.4, 0.7]), 0.05
        else:
            fr, x, t = PullbackFrame(phi_perturbed, int(frame[-1])), IN_SUPPORT, 0.004
        h = 1e-6

        def g(S):
            p = S[:3]
            a_up, a_down = fr.coefficients(np.array([p + [0.0, 0.0, h], p - [0.0, 0.0, h]]))[:, 0]
            return np.concatenate([-fr.X(p), [(a_up - a_down) / (2 * h)]])

        S = rk4_point(g, np.concatenate([x, [0.0]]), t, STEP)
        _, rhs, _, _ = pushforward_norm_identity(fr, x, t, STEP)
        assert rhs == float(np.exp(S[3]))
        assert S[:3].tobytes() == flow(fr.X, x, -t, STEP).tobytes()

    def test_off_diagonal_oracles_one_stack(self):
        # a = x1 and a = x2: m = (-tau, 0, 1) and (0, -tau, 1), so the
        # inverse pushes e1 to (1, 0, t) and e2 to (0, 1, t)
        frames = [AnalyticFrame(lambda p: p[0], lambda p: 0.0), AnalyticFrame(lambda p: p[1], lambda p: 0.0)]
        X = np.array([[0.1, 0.2, 0.3], [0.6, -0.2, 0.05]])
        t = 0.2
        vec, load, q, m3 = _pushforwards(frames, X, t, STEP, 1e-6, V=np.eye(3)[:2])
        assert np.allclose(vec, [[1.0, 0.0, t], [0.0, 1.0, t]], rtol=0.0, atol=1e-12)
        assert np.allclose(load, STEP, rtol=1e-9) and np.all(q == 0.0) and np.all(m3 == 1.0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_backward_pass_agrees_with_forward_transport(self, phi_perturbed, k):
        # inside the load budget the rank-one inverse of the backward pass
        # and a forward transport from the preimage agree, for Y and for the
        # identity's lhs, at depths 1 to 10 in the support
        fr = PullbackFrame(phi_perturbed, k)
        x, t = np.array([0.02, 0.52, 0.47]), 0.004
        vec, load, _, _ = _pushforwards([fr], x[None], t, STEP, 1e-6)
        assert load[0] < 0.5
        want = forward_transport(fr, x, t, STEP)
        assert np.linalg.norm(vec[0] - want) <= 1e-6 * np.linalg.norm(want)
        lhs, *_ = pushforward_norm_identity(fr, x, t, STEP)
        e3 = forward_transport(fr, x, t, STEP, v=np.array([0.0, 0.0, 1.0]))
        assert lhs == pytest.approx(np.linalg.norm(e3), rel=1e-6)

    def test_stacked_transport_rows_bitwise_reference(self):
        # a curved analytic frame at 200 random points and random vectors,
        # one stack: each row's vector, load and da/dx3 integral are bitwise
        # the one-state reference's, whose load is np.linalg.norm(grad(a))
        fr = AnalyticFrame(
            lambda p: 0.3 * np.sin(2 * np.pi * p[0]) + 0.2 * p[1] * p[2] ** 2,
            lambda p: 0.1 * np.cos(2 * np.pi * p[1]) * p[2],
        )
        rng = np.random.default_rng(12)
        X, V = rng.uniform(0.0, 1.0, (200, 3)), rng.standard_normal((200, 3))
        vec, load, q, _ = _pushforwards([fr] * 200, X, 0.02, STEP, 1e-6, V=V)
        for x, v, got, L, Q in zip(X, V, vec, load, q):
            w, want, integral = transport_reference(fr, x, 0.02, STEP, v=v)
            assert got.tobytes() == w.tobytes() and L == want and Q == integral

    @pytest.mark.parametrize("field", [None, "tilt"])
    def test_series_rows_bitwise_per_depth(self, phi_perturbed, tilt_E0, field, monkeypatch):
        E0 = tilt_E0 if field else None
        ks, t = [1, 2, 3], 0.004
        calls = counting_kernel(monkeypatch)
        ser = pushforward_convergence_series(pullback_frames(phi_perturbed, ks, E0), IN_SUPPORT, t, STEP)
        # the depths at h and at h/2 step as one stack: one kernel call per
        # backward RK4 stage of the h/2 rows (8 steps; the h rows take their
        # 4 in the first 16 stages) and one for Y at all the preimages
        assert len(calls) == 32 + 1
        for k, value, resolved in zip(ks, ser.values, ser.resolved):
            fr = PullbackFrame(phi_perturbed, k, E0=E0)
            w, load, _ = transport_reference(fr, IN_SUPPORT, t, STEP)
            w2, load2, _ = transport_reference(fr, IN_SUPPORT, t, STEP / 2)
            want = np.linalg.norm(w - fr.Y(IN_SUPPORT))
            want2 = np.linalg.norm(w2 - fr.Y(IN_SUPPORT))
            assert np.float64(value).tobytes() == want.tobytes()
            agree = abs(want - want2) <= max(0.25 * max(want, want2), 1e-9)
            assert resolved is bool(load < 0.5 and load2 < 0.5 and agree)
            vec, row_load, _, _ = _pushforwards([fr], IN_SUPPORT[None], t, STEP, 1e-6)
            assert vec[0].tobytes() == w.tobytes() and row_load[0] == load
        assert max(ser.values) > 0

    def test_mixed_steps_one_pass_rows_bitwise(self):
        # a curved analytic frame at steps h and h/2 in one stack: the h row
        # leaves the stencil calls once it has taken its 4 steps, and each
        # row's vector, load, q and m3 are bitwise its one-row pass at its step
        sizes = []
        curved = AnalyticFrame(lambda p: np.sin(2 * np.pi * p[0]) + p[1] * p[2] ** 2, lambda p: p[2])
        counted = AnalyticFrame(None, None)
        counted.coefficients = lambda P: sizes.append(len(P)) or curved.coefficients(P)
        X = np.array([[0.1, 0.4, 0.7], [0.1, 0.4, 0.7]])
        steps = np.array([STEP, STEP / 2])
        got = _pushforwards([counted] * 2, X, 0.004, steps, 1e-6)
        assert sizes == [14] * 16 + [7] * 16 + [2]
        for n, h in enumerate(steps):
            one = _pushforwards([curved], X[n : n + 1], 0.004, h, 1e-6)
            assert [a[n : n + 1].tobytes() for a in got] == [a.tobytes() for a in one]

    @pytest.mark.parametrize("field", [None, "tilt"])
    def test_series_identity_bitwise_norm_identity(self, phi_perturbed, tilt_E0, field):
        # each depth's identity entry is read off the series' step row, and
        # is bitwise pushforward_norm_identity of a fresh frame of that
        # depth: numbers inside the load budget, None and unresolved for the
        # depth-20 row that the pass stops
        E0 = tilt_E0 if field else None
        ks, t = [1, 2, 3, 20], 0.004
        ser = pushforward_convergence_series(pullback_frames(phi_perturbed, ks, E0), IN_SUPPORT, t, STEP)

        def bits(entry):
            return [None if v is None else np.float64(v).tobytes() for v in entry[:3]] + [entry[3]]

        want = [pushforward_norm_identity(PullbackFrame(phi_perturbed, k, E0=E0), IN_SUPPORT, t, STEP) for k in ks]
        assert [bits(e) for e in ser.growth_identity] == [bits(e) for e in want]
        assert [e[3] for e in want] == [True, True, True, False] and want[3][:3] == (None, None, None)

    @pytest.mark.parametrize("field", [None, "tilt"])
    def test_series_on_patch_frames_bitwise_fresh(self, phi_perturbed, tilt_E0, field, monkeypatch):
        # the surface command hands the series the frames its patches have
        # read: their cached values are the fresh frames' bits, so the series
        # is too, and it pulls back fewer rows
        E0 = tilt_E0 if field else None
        ks, t = [1, 2, 4], 0.004
        used = pullback_frames(phi_perturbed, ks, E0)
        _build_patches([fr for _, fr in used], [IN_SUPPORT] * 3, ["xy"] * 3, 0.02, 5, STEP)
        assert all(IN_SUPPORT.tobytes() in fr._cache for _, fr in used)
        calls = counting_kernel(monkeypatch)
        ser = pushforward_convergence_series(used, IN_SUPPORT, t, STEP)
        rows_used = sum(rows for rows, _ in calls)
        calls.clear()
        fresh = pushforward_convergence_series(pullback_frames(phi_perturbed, ks, E0), IN_SUPPORT, t, STEP)
        assert ser.ks == fresh.ks == tuple(ks)
        assert np.array(ser.values).tobytes() == np.array(fresh.values).tobytes()
        assert ser.resolved == fresh.resolved
        assert rows_used < sum(rows for rows, _ in calls)

    def test_series_stopped_row_is_none(self, phi_perturbed):
        # the depth-20 transport passes the load budget at the step: its
        # entry has no value and is unresolved, and the depth-2 entry is its
        # own one-depth series'
        ser = pushforward_convergence_series(pullback_frames(phi_perturbed, [2, 20]), IN_SUPPORT, 0.005, STEP)
        one = pushforward_convergence_series(pullback_frames(phi_perturbed, [2]), IN_SUPPORT, 0.005, STEP)
        assert ser.values[1] is None and ser.resolved[1] is False
        assert np.float64(ser.values[0]).tobytes() == np.float64(one.values[0]).tobytes()
        assert ser.resolved[0] is one.resolved[0] is True
        assert ser.resolved_values() == [(2, one.values[0])]

    def test_contact_pushforward_closed_form(self):
        # (X-flow_t)_* Y at x equals e2 + (x1 - t) e3 for the contact frame
        fr = contact_frame()
        x = np.array([0.4, 0.1, 0.2])
        t = 0.15
        vec = _pushforwards([fr], x[None], t, STEP, 1e-6)[0][0]
        assert np.allclose(vec, [0.0, 1.0, x[0] - t], atol=1e-10)
        assert np.linalg.norm(vec - fr.Y(x)) == pytest.approx(t, abs=1e-10)

    def test_series_zero_for_linear_involutive(self, phi_linear):
        frames = pullback_frames(phi_linear, [1, 3, 5, 8])
        ser = pushforward_convergence_series(frames, np.zeros(3), 0.05, STEP)
        assert all(ser.resolved)
        assert max(ser.values) < 1e-9

    def test_series_decays_for_tilt_initial(self, phi_linear, tilt_E0):
        ser = pushforward_convergence_series(
            pullback_frames(phi_linear, [1, 2, 3, 4], tilt_E0), np.zeros(3), 0.01, 2.5e-4,
            grad_h=1e-9,
        )
        vals = [v for (_, v) in ser.resolved_values()]
        assert len(vals) >= 3
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


class TestTangencySeries:
    def test_report_bitwise_per_node(self, phi_perturbed, tilt_E0):
        # every node's angles, tangent norms and dW/dt defect, one node at a time
        fr = PullbackFrame(phi_perturbed, 4, E0=tilt_E0)
        limit = PullbackFrame(phi_perturbed, 40, E0=tilt_E0)
        patch = build_patch(fr, IN_SUPPORT, 0.02, 7, STEP)
        rep = tangency_report(patch, fr, limit)
        P, d = patch.points, patch.grid_spacing()
        own, lim, norms, defects = [], [], [], []
        for i in range(1, 6):
            for j in range(1, 6):
                dt = (P[i + 1, j] - P[i - 1, j]) / (2 * d)
                ds = (P[i, j + 1] - P[i, j - 1]) / (2 * d)
                tangent = Plane2.spanned_by(dt, ds)
                own.append(principal_angle(tangent, graph_plane(fr, P[i, j])))
                lim.append(principal_angle(tangent, graph_plane(limit, P[i, j])))
                norms += [np.linalg.norm(dt), np.linalg.norm(ds)]
                defects.append(np.linalg.norm(dt - fr.X(P[i, j])))
        assert rep.angles.tobytes() == np.reshape(own, (5, 5)).tobytes()
        assert (rep.max_angle, rep.mean_angle) == (max(own), np.mean(own))
        assert (rep.max_angle_limit, rep.mean_angle_limit) == (max(lim), np.mean(lim))
        assert (rep.max_tangent_norm, rep.max_dWdt_defect) == (max(norms), max(defects))

    def test_degenerate_tangent_pair_raises(self):
        # nodes on a line: the FD tangents at every node are parallel
        ts = np.linspace(-0.05, 0.05, 5)
        points = (ts[:, None] + ts[None, :])[:, :, None] * np.array([1.0, 0.0, 0.0])
        patch = SurfacePatch(0.05, 5, ts, ts, points)
        frame = constant_frame(0.0, 0.0)
        with pytest.raises(DegeneratePlaneError, match="Gram determinant"):
            tangency_report(patch, frame, frame)

    def test_linear_patch_vs_true_eigenplane(self, slow_plane):
        from conftest import SLOW_PLANE_COEFFS

        fr = constant_frame(*SLOW_PLANE_COEFFS)
        patch = build_patch(fr, np.array([0.5, 0.5, 0.5]), 0.05, 9, STEP)
        eigen = constant_frame(*adapted_coefficients(slow_plane.basis[:, :, None])[0])
        rep = tangency_report(patch, fr, eigen)
        assert rep.max_angle_limit < 1e-8

    def test_perturbed_series_decreasing_towards_limit(self, phi_perturbed, tilt_E0):
        # tangency defect against the (deep-pullback) limit plane shrinks
        # with the frame depth; the convergence alternates in sign, so the
        # trend is asserted on window means, with no rate claimed
        limit = PullbackFrame(phi_perturbed, 60, E0=tilt_E0)
        maxima = []
        for k in range(1, 9):
            fr = PullbackFrame(phi_perturbed, k, E0=tilt_E0)
            patch = build_patch(fr, np.zeros(3), 0.02, 5, 1e-3)
            rep = tangency_report(patch, fr, limit)
            maxima.append(rep.max_angle_limit)
        assert np.mean(maxima[4:]) < np.mean(maxima[:4])
