import numpy as np
import pytest

from splitkit.errors import ChartExitError
from splitkit.frames import AdaptedFrame, AnalyticFrame, PullbackFrame, constant_frame, contact_frame
from splitkit.geometry import Plane2
from splitkit.uniqueness import hartman_slice_report, leaf_divergence
from conftest import counting_kernel

STEP = 1e-3


def pullback_slice_frames(phi, k_max, k_ref):
    """The (k, frame) pairs of the depth 1..k_max pullback frames of a map
    and its depth-k_ref reference frame, as the uniqueness command builds them."""
    return [(k, PullbackFrame(phi, k)) for k in range(1, k_max + 1)], PullbackFrame(phi, k_ref)


class TestHartmanSlice:
    def test_synthetic_sequence_closed_form(self):
        # a^(k) = a + (1/k) sin(2 pi x3) with constant a: the slice distance
        # is exactly 1/k and the transversal derivative sup is 2 pi / k
        limit = constant_frame(0.3, 0.0)
        frames = []
        for k in range(1, 9):
            frames.append(
                (
                    k,
                    AnalyticFrame(
                        lambda p, k=k: 0.3 + np.sin(2 * np.pi * p[2]) / k,
                        lambda p: 0.0,
                    ),
                )
            )
        rep = hartman_slice_report(frames, limit, slice_x2=0.25, grid_n=12, h=1e-6)
        for (k, _), dist, sup in zip(frames, rep.sup_distance, rep.sup_da_dx3):
            assert dist == pytest.approx(1.0 / k, abs=1e-9)
            assert sup == pytest.approx(2.0 * np.pi / k, abs=1e-6)
        assert rep.bounded
        assert rep.distances_decreasing

    def test_linear_map(self, phi_linear):
        rep = hartman_slice_report(*pullback_slice_frames(phi_linear, 8, 300), 0.0, grid_n=4, h=1e-5)
        assert rep.bounded
        assert max(rep.sup_da_dx3) < 1e-7  # constant coefficient fields
        assert rep.distances_decreasing
        assert rep.sup_distance[0] > rep.sup_distance[-1]

    def test_perturbed_map_recorded(self, phi_perturbed):
        rep = hartman_slice_report(*pullback_slice_frames(phi_perturbed, 6, 250), 0.0, grid_n=4, h=1e-5)
        assert rep.bounded
        assert np.isfinite(rep.max_sup)
        assert len(rep.sup_da_dx3) == 6


class TestLeafDivergence:
    def test_linear_frame(self):
        fr = constant_frame(0.2, -0.3)
        leaf = leaf_divergence(fr, np.array([0.5, 0.5, 0.5]), 0.05, 7, 1e-4, STEP)
        assert leaf.order_mismatch < 1e-9
        assert leaf.lipschitz == pytest.approx(1.0, abs=0.05)
        assert leaf.stability < 0.10

    def test_contact_frame_closed_forms(self):
        eps = 0.05
        fr = contact_frame()
        leaf = leaf_divergence(fr, np.zeros(3), eps, 9, 1e-4, STEP)
        # commutator defect of the flows is (0, 0, t*s): max norm eps^2
        assert leaf.order_mismatch == pytest.approx(eps * eps, abs=1e-8)
        # seeds differing along e1 shear the patch by delta * sqrt(1 + s^2)
        assert leaf.lipschitz == pytest.approx(np.sqrt(1.0 + eps * eps), abs=1e-6)
        assert leaf.stability < 0.10

    def test_order_mismatch_calibration(self):
        # measure K on the contact family (|c| = 1), then check a frame with
        # a known bracket coefficient against K * |c| * eps^2 + integrator slack
        eps = 0.04
        contact = leaf_divergence(contact_frame(), np.zeros(3), eps, 7, 1e-4, STEP)
        K = contact.order_mismatch / (1.0 * eps * eps)
        fr = AnalyticFrame(lambda p: 0.0, lambda p: 0.5 * p[0])  # c = 0.5
        leaf = leaf_divergence(fr, np.zeros(3), eps, 7, 1e-4, STEP)
        assert leaf.order_mismatch <= 1.1 * K * 0.5 * eps * eps + 1e-9

    def test_involutive_frame_no_mismatch(self):
        fr = AnalyticFrame(
            lambda p: 0.2 * np.cos(2 * np.pi * p[0]),
            lambda p: 0.3 * np.sin(2 * np.pi * p[1]),
        )
        leaf = leaf_divergence(fr, np.array([0.4, 0.6, 0.5]), 0.04, 7, 1e-4, STEP)
        assert leaf.order_mismatch < 1e-9

    def test_one_stack_of_four_seeds(self):
        shapes = []

        class Counting(AdaptedFrame):
            def coefficients(self, P):
                shapes.append(np.shape(P))
                if np.ndim(P) == 1:
                    return 0.2, -0.3
                return np.tile([0.2, -0.3], (len(P), 1))

        leaf_divergence(Counting(), np.zeros(3), 0.02, 5, 1e-4, 4e-3)
        # X at x0 gives the seed shift, one row; then (n - 1) / 2 gaps on each
        # side of 3 RK4 steps, 4 stages each: the four spines, then all 4 n
        # rows, both sides of a gap in one stack
        assert shapes == [(1, 3)] + [(8, 3)] * 24 + [(40, 3)] * 24

    def test_chart_exit_beyond_halfwidth(self):
        # a = b = 0: the xy spine moves along e2 at unit speed and leaves the
        # 0.45 box at time 0.45; the yx spine leaves at the same step, and
        # the error names the first patch of the stack
        step = 1e-2
        with pytest.raises(ChartExitError, match="patch xy left") as ei:
            leaf_divergence(constant_frame(0.0, 0.0), np.zeros(3), 0.5, 5, 1e-4, step)
        assert ei.value.exit_time == pytest.approx(0.45, abs=step)

    def test_chart_exit_names_shifted_patch(self):
        # the seed shift is along e1 here, so every spine stays inside and
        # the rows of the +delta patch leave first, at |t| = 0.45 - delta
        step = 1e-2
        fr = constant_frame(0.0, 0.0)
        a, b = fr.coefficients(np.zeros(3))
        plane = Plane2.spanned_by([1, 0, a], [0, 1, b])
        assert np.allclose(plane.orthonormal_basis()[:, 0], [1.0, 0.0, 0.0])
        with pytest.raises(ChartExitError, match="patch \\+delta left") as ei:
            leaf_divergence(fr, np.zeros(3), 0.4, 5, 0.1, step)
        assert abs(ei.value.exit_time) == pytest.approx(0.35, abs=step)


class TestStackedSlice:
    def test_pullback_report_one_kernel_call_bitwise(self, phi_perturbed, monkeypatch):
        # the limit frame on the grid is one kernel call and the slice frames
        # of every depth, with their x3 stencils, one more; each sup is
        # bitwise that of the frame read alone
        calls = counting_kernel(monkeypatch)
        frames, limit = pullback_slice_frames(phi_perturbed, 4, 30)
        rep = hartman_slice_report(frames, limit, 0.5, grid_n=3, h=1e-5)
        assert [depths for _, depths in calls] == [[30], [1, 2, 3, 4]]
        monkeypatch.undo()
        xs = np.linspace(0.0, 1.0, 3, endpoint=False)
        grid = np.array([[xv, 0.5, zv] for xv in xs for zv in xs])
        shift = np.array([0.0, 0.0, 1e-5])
        a_lim = PullbackFrame(phi_perturbed, 30).coefficients(grid)[:, 0]
        for (k, _), sup_d, dist in zip(frames, rep.sup_da_dx3, rep.sup_distance):
            frame = PullbackFrame(phi_perturbed, k)
            a_k, a_up, a_down = (frame.coefficients(p)[:, 0] for p in (grid, grid + shift, grid - shift))
            assert sup_d == float(np.max(np.abs((a_up - a_down) / 2e-5)))
            assert dist == float(np.max(np.abs(a_k - a_lim)))
