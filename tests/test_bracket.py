import numpy as np
import pytest

from splitkit import Diffeo, Plane2
from splitkit.bracket import DEFAULT_FD_STEP, bound_curves, bracket_samples
from splitkit.frames import AnalyticFrame, PullbackFrame, constant_frame, contact_frame
from conftest import RATE_VOL, SHEAR, counting_kernel


def curve_at(phi, x, *args, **kwargs):
    """The bound curve of one point: a one-row ``bound_curves`` call."""
    (bc,) = bound_curves(phi, np.asarray(x, dtype=float)[None], *args, **kwargs)
    return bc


def tilt_frame():
    return AnalyticFrame(
        lambda p: 0.0,
        lambda p: 0.1 * np.sin(2 * np.pi * p[0]),
    )


class TestBracketCoefficient:
    def test_constant_fields(self):
        bs = bracket_samples([constant_frame(0.7, -1.3)], [np.array([0.3, 0.3, 0.3])], [DEFAULT_FD_STEP])[0]
        assert abs(bs.c) < 1e-12
        assert not bs.resolved

    def test_contact_field(self):
        bs = bracket_samples([contact_frame()], [np.array([0.2, 0.5, 0.7])], [1e-4])[0]
        assert bs.c == pytest.approx(1.0, abs=1e-8)
        assert bs.resolved

    def test_mixed_linear_field(self):
        # a = x3, b = x1: c = X(b) - Y(a) = 1 - x1
        fr = AnalyticFrame(lambda p: p[2], lambda p: p[0])
        bs = bracket_samples([fr], [np.array([0.25, 0.4, 0.1])], [1e-4])[0]
        assert bs.c == pytest.approx(0.75, abs=1e-7)

    def test_tilt_field_closed_form(self):
        fr = tilt_frame()
        for x1 in (0.0, 0.15, 0.4, 0.8):
            bs = bracket_samples([fr], [np.array([x1, 0.3, 0.6])], [1e-4])[0]
            assert bs.c == pytest.approx(0.2 * np.pi * np.cos(2 * np.pi * x1), abs=1e-8)

    def test_second_order_signature(self):
        fr = AnalyticFrame(
            lambda p: 0.3 * np.sin(2 * np.pi * p[2]) * np.cos(2 * np.pi * p[0]),
            lambda p: 0.2 * np.cos(2 * np.pi * p[1]) + 0.1 * np.sin(2 * np.pi * p[2]),
        )
        bs = bracket_samples([fr], [np.array([0.12, 0.37, 0.81])], [2e-3])[0]
        assert bs.resolved
        assert 3.0 <= bs.order_ratio <= 5.0

    def test_halving_within_error_bar(self):
        fr = AnalyticFrame(
            lambda p: 0.3 * np.sin(2 * np.pi * p[2]) * np.cos(2 * np.pi * p[0]),
            lambda p: 0.2 * np.cos(2 * np.pi * p[1]),
        )
        x = np.array([0.21, 0.43, 0.65])
        coarse = bracket_samples([fr], [x], [2e-3])[0]
        fine = bracket_samples([fr], [x], [1e-3])[0]
        assert abs(coarse.c - fine.c) <= 4.0 * coarse.error + 1e-12

    def test_rounding_floor(self):
        # b = 1e-9 x1 + 1e-6 x1^3 at x1 = 0: c(s) = 1e-9 + 1e-6 s^2, so the
        # three levels agree at any step; at h = 1e-8 the value lies below
        # the rounding bound of differences of O(1) coefficients and is not
        # counted as a measurement
        fr = AnalyticFrame(lambda p: 0.0, lambda p: 1e-9 * p[0] + 1e-6 * p[0] ** 3)
        coarse = bracket_samples([fr], [np.zeros(3)], [1e-3])[0]
        assert coarse.resolved
        assert coarse.c == pytest.approx(1e-9, rel=1e-4)
        fine = bracket_samples([fr], [np.zeros(3)], [1e-8])[0]
        assert fine.c == pytest.approx(1e-9, rel=1e-4)
        assert not fine.resolved


class TestBoundCurve:
    def test_linear_involutive_initial(self, phi_linear):
        # the coordinate plane is involutive and pullbacks of involutive
        # fields stay involutive: the lhs is identically zero
        bc = curve_at(phi_linear, np.zeros(3), 10, k_plane=400, k_line=600)
        for e in bc.entries:
            assert e.norm < 1e-7
        assert bc.rate_rhs == pytest.approx(RATE_VOL, abs=1e-6)

    def test_linear_tilt_initial_bounded_quotient(self, phi_linear, tilt_E0):
        bc = curve_at(
            phi_linear, np.zeros(3), 20, h=3e-6, E0=tilt_E0, k_plane=500, k_line=800
        )
        resolved = bc.resolved_quotients()
        assert len(resolved) >= 3
        assert all(q < 20.0 for _, q in resolved)
        rm = bc.running_max()
        assert rm[19] <= rm[9] * 1.05 + 1e-12
        assert bc.rate_rhs == pytest.approx(RATE_VOL, abs=1e-4)

    def test_perturbed_tilt_initial(self, phi_perturbed, tilt_E0):
        bc = curve_at(
            phi_perturbed, np.zeros(3), 20, h=3e-6, E0=tilt_E0, k_plane=500, k_line=800
        )
        resolved = bc.resolved_quotients()
        assert len(resolved) >= 3
        assert all(np.isfinite(q) for _, q in resolved)
        rm = bc.running_max()
        assert abs(rm[19] - rm[9]) <= 0.05 * rm[9]

    def test_rhs_matches_domination_table(self, phi_linear, tilt_E0):
        # the sample converges, so the table is the same sweep, bit for bit
        from splitkit.splitting import domination_report

        bc = curve_at(phi_linear, np.zeros(3), 8, E0=tilt_E0, k_plane=400, k_line=600)
        rep = domination_report(phi_linear, [np.zeros(3)], 8, E0=tilt_E0, k_plane=400, k_line=600)
        (d,) = rep.samples
        assert list(bc.rhs) == [vol for _, _, vol, _ in d.table_rows()]
        assert bc.rate_rhs == d.rate_vol
        assert bc.invariance_residual == d.residual

    def test_one_depth_has_no_rate(self, phi_linear):
        with pytest.raises(ValueError, match="at least 2 depths"):
            curve_at(phi_linear, np.array([0.1, 0.2, 0.3]), 1, k_plane=500, k_line=800)

    def test_limit_bracket_within_measurement_floor(self, phi_perturbed, tilt_E0):
        # the converged plane field is involutive up to what FD can resolve
        bc = curve_at(
            phi_perturbed, np.zeros(3), 5, h=3e-6, E0=tilt_E0, k_plane=500, k_line=800
        )
        assert bc.limit_lhs <= 5.0 * max(bc.limit_lhs_error, 1e-11)

    def test_limit_two_ladders_smooth_field(self, tilt_E0):
        # the identity map pulls the tilt field back to itself, so the limit
        # frame is smooth with c = 0.2 pi cos(2 pi x1): both ladders resolve it
        x = np.array([0.1, 0.3, 0.7])
        bc = curve_at(Diffeo.identity(), x, 2, h=1e-3, E0=tilt_E0, k_plane=3, k_line=3)
        assert bc.limit_resolved
        assert bc.limit_lhs == pytest.approx(0.2 * np.pi * np.cos(0.2 * np.pi), rel=1e-6)

    def test_limit_two_ladders_reject_fd_artefact(self, phi_perturbed):
        # the sample (0, 0, 0) of configs/perturbed.json at depth 500: the
        # h = 1e-4 ladder alone passes its Richardson test, but the h/10
        # ladder does not, since the deep perturbed frame has no derivative
        from splitkit.frames import PullbackFrame

        x = np.zeros(3)
        assert bracket_samples([PullbackFrame(phi_perturbed, 500)], [x], [1e-4])[0].resolved
        bc = curve_at(phi_perturbed, x, 2, h=1e-4, k_plane=500, k_line=800)
        assert not bc.limit_resolved


def ladder_reference(frame, x, h):
    """c = X(b) - Y(a) at steps h, h/2 and h/4, each from the frame's own
    coefficients on the 7-point stencil, differenced one scalar at a time."""
    cs = []
    for s in (h, h / 2, h / 4):
        E = s * np.eye(3)
        vals = frame.coefficients(np.array([x, x + E[0], x - E[0], x + E[1], x - E[1], x + E[2], x - E[2]]))
        (a0, b0), (_, b1p), (_, b1m), (a2p, _), (a2m, _), (a3p, b3p), (a3m, b3m) = vals
        db_dx1 = (b1p - b1m) / (2 * s)
        db_dx3 = (b3p - b3m) / (2 * s)
        da_dx2 = (a2p - a2m) / (2 * s)
        da_dx3 = (a3p - a3m) / (2 * s)
        cs.append((db_dx1 + a0 * db_dx3) - (da_dx2 + b0 * da_dx3))
    return cs


class TestStackedLadders:
    @pytest.mark.parametrize("kind", ["contact", "constant", "curved", "pullback"])
    def test_bracket_coefficient_bitwise_ladder_reference(self, phi_perturbed, kind):
        def frame():
            if kind == "contact":
                return contact_frame()
            if kind == "constant":
                return constant_frame(0.7, -1.3)
            if kind == "curved":
                return AnalyticFrame(
                    lambda p: 0.2 * np.sin(2 * np.pi * p[1]) * p[2],
                    lambda p: 0.3 * np.cos(2 * np.pi * p[0]) + p[0] * p[2] ** 2,
                )
            return PullbackFrame(phi_perturbed, 6)

        x, h = np.array([0.3, 0.52, 0.45]), 1e-4
        bs = bracket_samples([frame()], [x], [h])[0]
        cs = ladder_reference(frame(), x, h)
        d01, d12 = abs(cs[0] - cs[1]), abs(cs[1] - cs[2])
        assert bs.c == cs[2] and bs.error == d12 / 3.0
        if max(d01, d12) > max(1e-11, 0.02 * abs(cs[2])):
            assert bs.order_ratio == d01 / max(d12, 1e-300)
        if kind in ("curved", "pullback"):
            assert bs.c != 0.0

    def test_bound_curve_one_kernel_call_bitwise_per_depth(self, phi_perturbed, tilt_E0, monkeypatch):
        # the ladders of every depth come from one kernel call (the limit
        # ladders ride the splitting pass), and each sample is bitwise its own
        # one-row bracket_samples call
        calls = counting_kernel(monkeypatch)
        x, h = np.array([0.3, 0.52, 0.45]), 1e-4
        bc = curve_at(phi_perturbed, x, 4, h=h, E0=tilt_E0, k_plane=30, k_line=60)
        assert [depths for _, depths in calls] == [[1, 2, 3, 4]]
        monkeypatch.undo()
        for k, (e, h_k) in enumerate(zip(bc.entries, bc.steps), 1):
            bs = bracket_samples([PullbackFrame(phi_perturbed, k, E0=tilt_E0)], [x], [h_k])[0]
            assert (bs.c, bs.norm, bs.resolved) == (e.c, e.norm, e.resolved)
        limit_frame = PullbackFrame(phi_perturbed, 30, E0=tilt_E0)
        limit = bracket_samples([limit_frame], [x], [h])[0]
        fine = bracket_samples([limit_frame], [x], [h / 10])[0]
        assert (bc.limit_lhs, bc.limit_lhs_error) == (limit.norm, limit.error)
        agree = abs(limit.c - fine.c) <= 4.0 * (limit.error + fine.error)
        assert bc.limit_resolved is (limit.resolved and fine.resolved and agree)

    def test_stacked_rows_bitwise_alone(self, phi_perturbed, tilt_E0, monkeypatch):
        # two fixed points off the support, a random point and one inside it:
        # one splitting pass of 2 x 4 fast lines and one ladder kernel call
        # give every row's curve bitwise as its own one-row call does
        import splitkit.splitting

        X = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.21, 0.82, 0.43], [0.3, 0.52, 0.45]])
        inside = np.hypot(X[:, 1] - SHEAR["center"][1], X[:, 2] - SHEAR["center"][2]) < SHEAR["radius"]
        assert inside.tolist() == [False, False, False, True]
        args = dict(h=1e-4, E0=tilt_E0, k_plane=30, k_line=60)
        lines = []
        fast_lines = splitkit.splitting._fast_lines

        def counting_lines(phi, P, L, k):
            lines.append(len(P))
            return fast_lines(phi, P, L, k)

        monkeypatch.setattr(splitkit.splitting, "_fast_lines", counting_lines)
        calls = counting_kernel(monkeypatch)
        curves = bound_curves(phi_perturbed, X, 4, **args)
        assert lines == [8]
        assert [depths for _, depths in calls] == [[1, 2, 3, 4]]
        monkeypatch.undo()
        for x, bc in zip(X, curves):
            alone = curve_at(phi_perturbed, x, 4, **args)
            assert bc.point.tobytes() == x.tobytes()
            assert repr(bc.rows()) == repr(alone.rows())
            limits = (bc.limit_lhs, bc.limit_lhs_error, bc.limit_resolved)
            assert limits == (alone.limit_lhs, alone.limit_lhs_error, alone.limit_resolved)
            assert (bc.rate_rhs, bc.invariance_residual) == (alone.rate_rhs, alone.invariance_residual)

    @pytest.mark.parametrize("field", [False, True], ids=["tilt", "field"])
    def test_depth_zero_limit_reads_e0_itself(self, phi_perturbed, tilt_E0, monkeypatch, field):
        # at k_plane 0 nothing rides the pass: the limit ladders convert E0's
        # stored basis in the ladder call, as a depth-0 frame alone does
        E0 = tilt_E0 if field else Plane2.spanned_by([1.0, 0.0, 0.3], [0.0, 1.0, -0.2])
        X = np.array([[0.3, 0.52, 0.45], [0.1, 0.2, 0.3]])
        calls = counting_kernel(monkeypatch)
        curves = bound_curves(phi_perturbed, X, 3, h=1e-4, E0=E0, k_plane=0, k_line=30)
        assert [depths for _, depths in calls] == [[0, 1, 2, 3]]
        monkeypatch.undo()
        frame = PullbackFrame(phi_perturbed, 0, E0=E0)
        for x, bc in zip(X, curves):
            limit, fine = bracket_samples([frame, frame], [x, x], [1e-4, 1e-5])
            assert (bc.limit_lhs, bc.limit_lhs_error) == (limit.norm, limit.error)
            agree = abs(limit.c - fine.c) <= 4.0 * (limit.error + fine.error)
            assert bc.limit_resolved is (limit.resolved and fine.resolved and agree)

    def test_one_pass_sweep_and_one_ladder_call(self, phi_perturbed, tilt_E0, monkeypatch):
        # bound_curves pulls back twice: the splitting pass's one sweep over
        # 3N columns (x deep, then x and phi(x)) plus the limit frame's 37
        # stencil points per row (6 ladders of 7 points sharing the centre),
        # and the ladders' one call, which sweeps in the kernel's module
        import splitkit.dynamics
        import splitkit.splitting

        sweeps = []
        sweep = splitkit.dynamics._pull_back

        def counting_sweep(phi, recs, Q, live=None):
            sweeps.append(Q.shape[-1])
            return sweep(phi, recs, Q, live)

        monkeypatch.setattr(splitkit.splitting, "_pull_back", counting_sweep)
        monkeypatch.setattr(splitkit.dynamics, "_pull_back", counting_sweep)
        calls = counting_kernel(monkeypatch)
        X = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.3, 0.52, 0.45]])
        bound_curves(phi_perturbed, X, 4, h=1e-4, E0=tilt_E0, k_plane=30, k_line=60)
        assert len(calls) == 1
        assert len(sweeps) == 2 and sweeps[0] == 3 * len(X) + 37 * len(X)
