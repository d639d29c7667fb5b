import numpy as np
import pytest

from splitkit import Diffeo, Line1
from splitkit.bracket import (
    bound_curve,
    bracket_coefficient,
    fd_stencil,
    invariance_identity_residual,
    vector_field_bracket,
)
from splitkit.frames import AnalyticFrame, PullbackFrame, constant_frame, contact_frame
from splitkit.geometry import project_along
from conftest import RATE_VOL, counting_kernel

E3_LINE = Line1(np.array([0.0, 0.0, 1.0]))


def tilt_frame():
    return AnalyticFrame(
        lambda p: 0.0,
        lambda p: 0.1 * np.sin(2 * np.pi * p[0]),
    )


class TestBracketCoefficient:
    def test_constant_fields(self):
        bs = bracket_coefficient(constant_frame(0.7, -1.3), np.array([0.3, 0.3, 0.3]))
        assert abs(bs.c) < 1e-12
        assert not bs.resolved

    def test_contact_field(self):
        bs = bracket_coefficient(contact_frame(), np.array([0.2, 0.5, 0.7]), h=1e-4)
        assert bs.c == pytest.approx(1.0, abs=1e-8)
        assert bs.resolved

    def test_mixed_linear_field(self):
        # a = x3, b = x1: c = X(b) - Y(a) = 1 - x1
        fr = AnalyticFrame(lambda p: p[2], lambda p: p[0])
        bs = bracket_coefficient(fr, np.array([0.25, 0.4, 0.1]), h=1e-4)
        assert bs.c == pytest.approx(0.75, abs=1e-7)

    def test_tilt_field_closed_form(self):
        fr = tilt_frame()
        for x1 in (0.0, 0.15, 0.4, 0.8):
            bs = bracket_coefficient(fr, np.array([x1, 0.3, 0.6]), h=1e-4)
            assert bs.c == pytest.approx(0.2 * np.pi * np.cos(2 * np.pi * x1), abs=1e-8)

    def test_second_order_signature(self):
        fr = AnalyticFrame(
            lambda p: 0.3 * np.sin(2 * np.pi * p[2]) * np.cos(2 * np.pi * p[0]),
            lambda p: 0.2 * np.cos(2 * np.pi * p[1]) + 0.1 * np.sin(2 * np.pi * p[2]),
        )
        bs = bracket_coefficient(fr, np.array([0.12, 0.37, 0.81]), h=2e-3)
        assert bs.resolved
        assert 3.0 <= bs.order_ratio <= 5.0

    def test_halving_within_error_bar(self):
        fr = AnalyticFrame(
            lambda p: 0.3 * np.sin(2 * np.pi * p[2]) * np.cos(2 * np.pi * p[0]),
            lambda p: 0.2 * np.cos(2 * np.pi * p[1]),
        )
        x = np.array([0.21, 0.43, 0.65])
        coarse = bracket_coefficient(fr, x, h=2e-3)
        fine = bracket_coefficient(fr, x, h=1e-3)
        assert abs(coarse.c - fine.c) <= 4.0 * coarse.error + 1e-12

    def test_rounding_floor(self):
        # b = 1e-9 x1 + 1e-6 x1^3 at x1 = 0: c(s) = 1e-9 + 1e-6 s^2, so the
        # three levels agree at any step; at h = 1e-8 the value lies below
        # the rounding bound of differences of O(1) coefficients and is not
        # counted as a measurement
        fr = AnalyticFrame(lambda p: 0.0, lambda p: 1e-9 * p[0] + 1e-6 * p[0] ** 3)
        coarse = bracket_coefficient(fr, np.zeros(3), h=1e-3)
        assert coarse.resolved
        assert coarse.c == pytest.approx(1e-9, rel=1e-4)
        fine = bracket_coefficient(fr, np.zeros(3), h=1e-8)
        assert fine.c == pytest.approx(1e-9, rel=1e-4)
        assert not fine.resolved


class TestFrameIndependence:
    def test_rotated_pair_same_projected_norm(self):
        # two different smooth orthonormal frames of the contact planes give
        # the same projected bracket norm (unimodular change of frame)
        fr = contact_frame()

        def gs_pair(p):
            Q = fr.plane(p).orthonormal_basis()
            return Q[:, 0], Q[:, 1]

        def rotated_pair(p):
            Q = fr.plane(p).orthonormal_basis()
            th = 0.4 * np.sin(2 * np.pi * p[0] + 0.3)
            Z = np.cos(th) * Q[:, 0] + np.sin(th) * Q[:, 1]
            W = -np.sin(th) * Q[:, 0] + np.cos(th) * Q[:, 1]
            return Z, W

        x = np.array([0.35, 0.2, 0.6])
        norms = []
        for pair in (gs_pair, rotated_pair):
            U, V = zip(*[pair(p) for p in fd_stencil(x, 1e-4)])
            br = vector_field_bracket(U, V, 1e-4)
            norms.append(np.linalg.norm(project_along(br, fr.plane(x), E3_LINE)))
        assert norms[0] == pytest.approx(norms[1], abs=1e-6)


class TestInvarianceIdentities:
    def test_linear_degenerate(self, phi_linear):
        res = invariance_identity_residual(phi_linear, np.zeros(3), 3, k_plane=400, k_line=600)
        assert res.degenerate
        assert res.residual == 0.0

    def test_contact_under_identity(self, tilt_E0):
        phi = Diffeo.identity()
        contact_field = lambda p: contact_frame().plane(p)
        res = invariance_identity_residual(
            phi, np.array([0.3, 0.4, 0.5]), 3, E0=contact_field, k_plane=2, k_line=2
        )
        assert not res.degenerate
        assert res.residual < 1e-12

    def test_perturbed_small_residual(self, phi_perturbed):
        res = invariance_identity_residual(
            phi_perturbed, np.zeros(3), 3, k_plane=500, k_line=800
        )
        assert not res.degenerate
        assert res.residual < 1e-3

    def test_depth_zero_is_identity(self, phi_perturbed):
        # D(phi^0) = I, so the identity holds exactly at phi^0(x) = x
        res = invariance_identity_residual(
            phi_perturbed, np.array([0.3, 0.52, 0.45]), 0, k_plane=100, k_line=300
        )
        assert not res.degenerate
        assert res.residual == 0.0


class TestBoundCurve:
    def test_linear_involutive_initial(self, phi_linear):
        # the coordinate plane is involutive and pullbacks of involutive
        # fields stay involutive: the lhs is identically zero
        bc = bound_curve(phi_linear, np.zeros(3), 10, k_plane=400, k_line=600)
        for e in bc.entries:
            assert e.lhs < 1e-7
        assert bc.rate_rhs == pytest.approx(RATE_VOL, abs=1e-6)

    def test_linear_tilt_initial_bounded_quotient(self, phi_linear, tilt_E0):
        bc = bound_curve(
            phi_linear, np.zeros(3), 20, h=3e-6, E0=tilt_E0, k_plane=500, k_line=800
        )
        resolved = bc.resolved_quotients()
        assert len(resolved) >= 3
        assert all(q < 20.0 for _, q in resolved)
        rm = bc.running_max()
        assert rm[19] <= rm[9] * 1.05 + 1e-12
        assert bc.rate_rhs == pytest.approx(RATE_VOL, abs=1e-4)

    def test_perturbed_tilt_initial(self, phi_perturbed, tilt_E0):
        bc = bound_curve(
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

        bc = bound_curve(phi_linear, np.zeros(3), 8, E0=tilt_E0, k_plane=400, k_line=600)
        rep = domination_report(phi_linear, [np.zeros(3)], 8, E0=tilt_E0, k_plane=400, k_line=600)
        (d,) = rep.samples
        assert [e.rhs for e in bc.entries] == [vol for _, _, vol, _ in d.table_rows()]
        assert bc.rate_rhs == d.rate_vol

    def test_limit_bracket_within_measurement_floor(self, phi_perturbed, tilt_E0):
        # the converged plane field is involutive up to what FD can resolve
        bc = bound_curve(
            phi_perturbed, np.zeros(3), 5, h=3e-6, E0=tilt_E0, k_plane=500, k_line=800
        )
        assert bc.limit_lhs <= 5.0 * max(bc.limit_lhs_error, 1e-11)

    def test_limit_two_ladders_smooth_field(self, tilt_E0):
        # the identity map pulls the tilt field back to itself, so the limit
        # frame is smooth with c = 0.2 pi cos(2 pi x1): both ladders resolve it
        x = np.array([0.1, 0.3, 0.7])
        bc = bound_curve(Diffeo.identity(), x, 2, h=1e-3, E0=tilt_E0, k_plane=3, k_line=3)
        assert bc.limit_resolved
        assert bc.limit_lhs == pytest.approx(0.2 * np.pi * np.cos(0.2 * np.pi), rel=1e-6)

    def test_limit_two_ladders_reject_fd_artefact(self, phi_perturbed):
        # the sample (0, 0, 0) of configs/perturbed.json at depth 500: the
        # h = 1e-4 ladder alone passes its Richardson test, but the h/10
        # ladder does not, since the deep perturbed frame has no derivative
        from splitkit.frames import PullbackFrame

        x = np.zeros(3)
        assert bracket_coefficient(PullbackFrame(phi_perturbed, 500), x, 1e-4).resolved
        bc = bound_curve(phi_perturbed, x, 2, h=1e-4, k_plane=500, k_line=800)
        assert not bc.limit_resolved


class TestFastLineOnce:
    def test_bracket_run_computes_each_line_once(self, tmp_path, monkeypatch):
        # (0, 0, 0) is a fixed point of phi^3 outside the shear support, so its
        # invariance check ends where it starts; (0.5, 0.75, 0.75) does not
        import splitkit.bracket
        import splitkit.splitting
        from splitkit.cli import main
        from splitkit.report import write_json

        calls = []
        original = splitkit.splitting.compute_fast_line

        def counting(phi, x, L0=None, k=40):
            calls.append((np.asarray(x, dtype=float).tobytes(), k))
            return original(phi, x, L0=L0, k=k)

        monkeypatch.setattr(splitkit.splitting, "compute_fast_line", counting)
        monkeypatch.setattr(splitkit.bracket, "compute_fast_line", counting)
        cfg = {
            "map": {
                "matrix": [[-3, 0, 2], [1, 2, -3], [0, -1, 1]],
                "shears": [
                    {"axis": 0, "center": [0.0, 0.5, 0.5], "radius": 0.2, "amplitude": 0.05}
                ],
            },
            "samples": [[0.0, 0.0, 0.0], [0.5, 0.75, 0.75]],
            "k_max": 4,
            "k_plane": 100,
            "k_line": 300,
        }
        path = tmp_path / "cfg.json"
        write_json(path, cfg)
        assert main(["bracket", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == len(set(calls)) == 3
        assert {k for _, k in calls} == {300}

    def test_shared_fast_line_same_residual(self, phi_perturbed):
        x = np.array([0.5, 0.75, 0.75])
        bc = bound_curve(phi_perturbed, x, 3, k_plane=100, k_line=300)
        shared = invariance_identity_residual(
            phi_perturbed, x, 3, k_plane=100, k_line=300, fast_line=bc.fast_line
        )
        alone = invariance_identity_residual(phi_perturbed, x, 3, k_plane=100, k_line=300)
        assert not shared.degenerate
        assert shared.residual == alone.residual


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
        bs = bracket_coefficient(frame(), x, h)
        cs = ladder_reference(frame(), x, h)
        d01, d12 = abs(cs[0] - cs[1]), abs(cs[1] - cs[2])
        assert bs.c == cs[2] and bs.error == d12 / 3.0
        if max(d01, d12) > max(1e-11, 0.02 * abs(cs[2])):
            assert bs.order_ratio == d01 / max(d12, 1e-300)
        if kind in ("curved", "pullback"):
            assert bs.c != 0.0

    def test_bound_curve_one_kernel_call_bitwise_per_depth(self, phi_perturbed, tilt_E0, monkeypatch):
        # the ladders of every depth and both limit ladders come from one
        # kernel call, and each sample is bitwise its own bracket_coefficient
        calls = counting_kernel(monkeypatch)
        x, h = np.array([0.3, 0.52, 0.45]), 1e-4
        bc = bound_curve(phi_perturbed, x, 4, h=h, E0=tilt_E0, k_plane=30, k_line=60)
        assert [depths for _, depths in calls] == [[1, 2, 3, 4, 30]]
        monkeypatch.undo()
        for e in bc.entries:
            bs = bracket_coefficient(PullbackFrame(phi_perturbed, e.k, E0=tilt_E0), x, e.h)
            assert (bs.c, bs.norm, bs.resolved) == (e.c, e.lhs, e.resolved)
        limit_frame = PullbackFrame(phi_perturbed, 30, E0=tilt_E0)
        limit = bracket_coefficient(limit_frame, x, h)
        fine = bracket_coefficient(limit_frame, x, h / 10)
        assert (bc.limit_lhs, bc.limit_lhs_error) == (limit.norm, limit.error)
        agree = abs(limit.c - fine.c) <= 4.0 * (limit.error + fine.error)
        assert bc.limit_resolved is (limit.resolved and fine.resolved and agree)
