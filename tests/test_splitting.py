import time
import tracemalloc

import numpy as np
import pytest

from splitkit import PAPER_MATRIX, DegeneratePlaneError, Diffeo, Line1, Plane2, dynamics, splitting
from splitkit.bracket import bound_curves
from splitkit.dynamics import (
    ShearPerturbation,
    _field_bases,
    _forward,
    _pull_back,
    _pullback_bases,
    orbit,
    orbit_support_report,
)
from splitkit.splitting import (
    DEFAULT_L0,
    _splitting_pass,
    domination_report,
    eventual_k0,
    fitted_rate,
)
from splitkit.errors import ChartUnsuitableError
from splitkit.frames import PullbackFrame, _coefficients, adapted_coefficients
from splitkit.geometry import line_angles, principal_angle, wrap_point
from conftest import (
    FIXED_EXACT,
    FLAT_BUNCH_1,
    FLAT_DYN_1,
    FLAT_VOL_1,
    RATE_BUNCH,
    RATE_DYN,
    RATE_VOL,
    counting_kernel,
)

COORD_PLANE = Plane2.spanned_by([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


def line_angle(L, M):
    return line_angles(L.direction[None], M.direction[None])[0]


def fast_line_at(phi, x, L0=DEFAULT_L0, k=40):
    """L0 pushed forward along the depth-k backward orbit of one point x."""
    return Line1(splitting._fast_lines(phi, np.asarray(x, dtype=float)[None], L0.direction[None], k)[0])


def pullback_planes(phi, x, E0, k):
    """The pullback planes of E0 at one point x at depths 0..k, from one
    per-row-depth kernel call."""
    X = np.repeat(np.asarray(x, dtype=float)[None], k + 1, axis=0)
    B = _pullback_bases(phi, X, E0, np.arange(k + 1))
    return [Plane2(B[:, :, j]) for j in range(k + 1)]


class TestPullback:
    def test_identity_map_fixes_plane(self):
        phi = Diffeo.identity()
        for plane in pullback_planes(phi, [0.2, 0.3, 0.4], None, 10):
            assert principal_angle(plane, COORD_PLANE) < 1e-12

    def test_eigenplane_exactly_invariant(self, phi_linear, slow_plane):
        planes = pullback_planes(phi_linear, [0.1, 0.2, 0.3], slow_plane, 30)
        assert max(principal_angle(P, slow_plane) for P in planes) < 1e-10

    def test_decay_rate_from_coordinate_plane(self, phi_linear, slow_plane):
        # log-angle slope over k in [20, 60] tracks the eigenvalue ratio
        start = time.perf_counter()
        planes = pullback_planes(phi_linear, np.zeros(3), None, 60)
        angles = np.array([principal_angle(P, slow_plane) for P in planes])
        elapsed = time.perf_counter() - start
        ks = np.arange(20, 61)
        slope = np.polyfit(ks, np.log(angles[20:61]), 1)[0]
        assert abs(slope / np.log(0.969) - 1.0) < 0.10
        assert elapsed < 5.0

    def test_angle_steps_recorded(self, phi_linear):
        planes = pullback_planes(phi_linear, np.zeros(3), None, 15)
        steps = [principal_angle(e, prev) for prev, e in zip(planes[1:], planes[2:])]
        # geometric decay once the transient has passed
        assert steps[-1] < steps[0]


class TestPerRowDepth:
    @pytest.mark.parametrize("field", [None, "tilt"])
    def test_rows_bitwise_per_depth(self, phi_perturbed, tilt_E0, field):
        # a mixed stack, depths out of order with repeats and depth-0 rows,
        # two rows outside [0, 1)^3 and one in the shear support: each row
        # equals one call per depth and the orbit-then-sweep of its point alone
        E0 = tilt_E0 if field else None
        rng = np.random.default_rng(11)
        X = np.vstack([rng.random((9, 3)), [[0.3, 0.52, 0.45]], rng.uniform(-0.5, 1.5, (2, 3))])
        ks = [3, 0, 7, 1, 3, 12, 0, 7, 1, 5, 0, 2]
        got = _pullback_bases(phi_perturbed, X, E0, ks)
        for depth in set(ks):
            rows = [n for n, k in enumerate(ks) if k == depth]
            alone = _pullback_bases(phi_perturbed, X[rows], E0, depth)
            assert got[:, :, rows].tobytes() == alone.tobytes()
        for n, (x, k) in enumerate(zip(X, ks)):
            if k == 0:  # the basis E0 stores, at the point as given
                want = _field_bases(E0, x[None], orthonormal=False)
            else:
                Y, recs = _forward(phi_perturbed, wrap_point(x[None]), [1] * k)
                *_, want = _pull_back(phi_perturbed, recs, _field_bases(E0, Y))
            assert got[:, :, n : n + 1].tobytes() == want.tobytes()

    def test_one_backward_sweep(self, phi_perturbed, monkeypatch):
        # depths 1..10 and a depth-200 group: one _pull_back call of 200
        # steps, step i moving the rows deeper than i, and each row as if alone
        calls = []
        sweep = dynamics._pull_back

        def counting_sweep(phi, recs, Q, live=None):
            calls.append((len(recs), Q.shape[-1], live))
            return sweep(phi, recs, Q, live)

        monkeypatch.setattr(dynamics, "_pull_back", counting_sweep)
        ks = [*range(1, 11), 200, 200, 200]
        X = np.random.default_rng(12).random((len(ks), 3))
        got = _pullback_bases(phi_perturbed, X, None, ks)
        assert calls == [(200, 13, [13 - i for i in range(10)] + [3] * 190)]
        for n, k in enumerate(ks[:11]):
            assert got[:, :, n].tobytes() == _pullback_bases(phi_perturbed, X[n], None, k).tobytes()

    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_one_row(self, phi_perturbed, tilt_E0, k):
        x = np.array([[0.3, 0.52, 0.45]])
        for E0 in (None, tilt_E0):
            one = _pullback_bases(phi_perturbed, x, E0, [k])
            assert one.shape == (3, 2, 1)
            assert one.tobytes() == _pullback_bases(phi_perturbed, x, E0, k).tobytes()

    def test_negative_depth_rejected(self, phi_perturbed):
        with pytest.raises(ValueError, match="depth"):
            _pullback_bases(phi_perturbed, np.zeros((2, 3)), None, [2, -1])


def swept_alone(phi, x, E0, k):
    """The (3, 2, 1) basis of one point at depth k >= 1 from its own
    ``_forward`` pass and ``_pull_back`` sweep."""
    Y, recs = _forward(phi, wrap_point(np.asarray(x, dtype=float)[None]), [1] * k)
    *_, Q = _pull_back(phi, recs, _field_bases(E0, Y))
    return Q


def support_rows(phi, depths):
    """Per depth d, a point whose first d orbit points avoid every shear
    support and one whose first d points do not, from one seeded pool."""
    pool = np.random.default_rng(7).random((600, 3))
    hits = [r["steps_in_support"] for r in orbit_support_report(phi, pool, max(depths))]
    avoiding = [pool[next(n for n, h in enumerate(hits) if not h or h[0] >= d)] for d in depths]
    crossing = [pool[next(n for n, h in enumerate(hits) if h and h[0] < d)] for d in depths]
    return np.array(avoiding), np.array(crossing)


class TestDepthTable:
    """A constant E0 on rows whose orbits meet no shear support: the rows
    read the map's memoised depth table instead of a sweep."""

    DEPTHS = list(range(1, 21))

    @staticmethod
    def counting_sweeps(monkeypatch):
        calls = []  # the columns of every _pull_back call
        sweep = dynamics._pull_back

        def counting(phi, recs, Q, live=None):
            calls.append(Q.shape[2])
            return sweep(phi, recs, Q, live)

        monkeypatch.setattr(dynamics, "_pull_back", counting)
        return calls

    @pytest.mark.parametrize("E0", [None, Plane2.spanned_by([1.0, 0.0, 0.3], [0.2, 1.0, 0.0])])
    def test_rows_bitwise_alone(self, phi_perturbed, E0):
        # support-avoiding and support-crossing rows at depths 1..20, alone,
        # in a record-free stack and in a mixed stack: each row is bitwise
        # its own forward pass and sweep
        avoiding, crossing = support_rows(phi_perturbed, self.DEPTHS)
        for X, ks in ((avoiding, self.DEPTHS), (np.vstack([crossing, avoiding]), self.DEPTHS * 2)):
            got = _pullback_bases(phi_perturbed, X, E0, ks)
            for n, (x, k) in enumerate(zip(X, ks)):
                want = swept_alone(phi_perturbed, x, E0, k)
                assert got[:, :, n : n + 1].tobytes() == want.tobytes()
                assert _pullback_bases(phi_perturbed, x, E0, k).tobytes() == want.tobytes()

    def test_record_free_stack_skips_the_sweep(self, phi_perturbed, monkeypatch):
        # no _pull_back call as wide as the stack's swept rows, and the bases
        # (depth-0 rows included) are bitwise those of a forced sweep: a field
        # E0 that returns the constant plane at every point
        avoiding, _ = support_rows(phi_perturbed, self.DEPTHS)
        X = np.vstack([avoiding, avoiding[:3]])
        ks = self.DEPTHS + [0, 0, 0]
        calls = self.counting_sweeps(monkeypatch)
        got = _pullback_bases(phi_perturbed, X, None, ks)
        assert len(self.DEPTHS) not in calls and set(calls) <= {1}
        forced = _pullback_bases(phi_perturbed, X, lambda p: dynamics.DEFAULT_E0, ks)
        assert calls[-1] == len(self.DEPTHS)
        assert got.tobytes() == forced.tobytes()

    def test_shear_free_map_makes_no_forward_pass(self, phi_linear, monkeypatch):
        def no_forward(*args):
            raise AssertionError("a shear-free map with a constant E0 needs no forward pass")

        monkeypatch.setattr(dynamics, "_forward", no_forward)
        X = np.random.default_rng(8).random((6, 3))
        got = _pullback_bases(phi_linear, X, None, [0, 1, 5, 5, 30, 2])
        for n, (x, k) in enumerate(zip(X, [0, 1, 5, 5, 30, 2])):
            if k:
                assert got[:, :, n : n + 1].tobytes() == swept_alone(phi_linear, x, None, k).tobytes()

    def test_field_e0_still_sweeps(self, phi_perturbed, tilt_E0, monkeypatch):
        avoiding, _ = support_rows(phi_perturbed, self.DEPTHS)
        calls = self.counting_sweeps(monkeypatch)
        got = _pullback_bases(phi_perturbed, avoiding, tilt_E0, self.DEPTHS)
        assert calls == [len(self.DEPTHS)]
        for n, (x, k) in enumerate(zip(avoiding, self.DEPTHS)):
            assert got[:, :, n : n + 1].tobytes() == swept_alone(phi_perturbed, x, tilt_E0, k).tobytes()

    def test_table_grows_from_its_deepest_column(self, phi_perturbed):
        grown, fresh = (Diffeo(phi_perturbed.stages) for _ in range(2))
        for depth in (3, 1, 12):
            dynamics._depth_table(grown, None, depth)
        want = dynamics._depth_table(fresh, None, 12)
        assert dynamics._depth_table(grown, None, 12).tobytes() == want.tobytes()
        assert len(grown._depth_tables) == 1

    def test_negative_zero_gradients_sweep(self, monkeypatch):
        # a shear of amplitude 0.0 writes -0.0 gradients in its support,
        # which are false as truth values; against the basis column
        # (-0.0, 1, 0) they give +0.0 where +0.0 records keep -0.0, so only
        # a bitwise record check keeps the stack bitwise its sweep
        phi = Diffeo((ShearPerturbation(0, (0.0, 0.5, 0.5), 0.2, 0.0),))
        E0 = Plane2.spanned_by([-0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        X = np.array([[0.1, 0.55, 0.6], [0.2, 0.6, 0.52]])
        _, recs = _forward(phi, wrap_point(X.copy()), [2, 2, 2])
        assert all(not r.any() and np.signbit(r).all() for (r,) in recs)
        sweep = swept_alone(phi, X[0], E0, 3)
        assert dynamics._depth_table(phi, E0, 3)[:, :, 3:].tobytes() != sweep.tobytes()
        calls = self.counting_sweeps(monkeypatch)
        got = _pullback_bases(phi, X, E0, 3)
        assert calls == [len(X)]
        assert got[:, :, :1].tobytes() == sweep.tobytes()
        assert got[:, :, 1:].tobytes() == swept_alone(phi, X[1], E0, 3).tobytes()


class TestTableRows:
    """Frames convert a kernel call's bases: a record-free stack of a
    constant E0 reads them from the map's depth table, in row order."""

    DEPTHS = [0, 1, 2, 20]

    @staticmethod
    def counting_tables(monkeypatch):
        calls = []  # the depth of every _depth_table call
        table = dynamics._depth_table

        def counting(phi, E0, depth):
            calls.append(depth)
            return table(phi, E0, depth)

        monkeypatch.setattr(dynamics, "_depth_table", counting)
        return calls

    @pytest.mark.parametrize("E0", [None, Plane2.spanned_by([1.0, 0.0, 0.3], [0.2, 1.0, 0.0])])
    def test_rows_bitwise_converted_bases(self, phi_perturbed, E0, monkeypatch):
        # depths 0, 1, 2 and 20, in a record-free stack, which reads the
        # table, and in a stack with support-crossing rows, which sweeps:
        # each row's pair is bitwise the conversion of its own forward pass
        # and sweep (of E0's stored basis at depth 0)
        avoiding, crossing = support_rows(phi_perturbed, self.DEPTHS[1:])
        avoiding = np.vstack([avoiding[:1], avoiding])  # its first row at depth 0
        calls = self.counting_tables(monkeypatch)
        for X, ks, reads in (
            (avoiding, self.DEPTHS, [20]),
            (np.vstack([crossing, avoiding]), self.DEPTHS[1:] + self.DEPTHS, []),
        ):
            got = adapted_coefficients(_pullback_bases(phi_perturbed, X, E0, ks))
            assert calls == reads
            calls.clear()
            stored = (dynamics.DEFAULT_E0 if E0 is None else E0).basis[:, :, None]
            for n, (x, k) in enumerate(zip(X, ks)):
                alone = swept_alone(phi_perturbed, x, E0, k) if k else stored
                assert got[n].tobytes() == adapted_coefficients(alone).tobytes()

    def test_table_read_is_a_kernel_call(self, phi_perturbed, monkeypatch):
        avoiding, _ = support_rows(phi_perturbed, [4])
        kernel = counting_kernel(monkeypatch)
        calls = self.counting_tables(monkeypatch)
        frame = PullbackFrame(phi_perturbed, 4)
        got = frame.coefficients(avoiding)
        assert kernel == [(1, [4])] and calls == [4]
        assert got.tobytes() == adapted_coefficients(swept_alone(phi_perturbed, avoiding[0], None, 4)).tobytes()

    def test_chart_test_only_on_rows_read(self, phi_linear):
        # E0 = span(A e1, A e3) pulls back to the vertical plane span(e1, e3)
        # at depth 1, which fails the chart test; rows at depths 0, 2 and 3
        # grow the table past column 1, and frames convert only their rows
        A = PAPER_MATRIX.astype(float)
        E0 = Plane2.spanned_by(A[:, 0], A[:, 2])
        phi = Diffeo(phi_linear.stages)
        X = np.random.default_rng(3).random((4, 3))
        with pytest.raises(ChartUnsuitableError):
            PullbackFrame(phi, 1, E0).coefficients(X[0])
        frames = [PullbackFrame(phi, k, E0) for k in (0, 2, 3)]
        got = _coefficients(frames, X[:3])
        assert phi._depth_tables and next(iter(phi._depth_tables.values())).shape[2] == 4
        with pytest.raises(ChartUnsuitableError):
            _coefficients([*frames, PullbackFrame(phi, 1, E0)], X)
        for frame, x, row in zip(frames, X, got):
            assert PullbackFrame(phi, frame.k, E0).coefficients(x) == tuple(row.tolist())

    def test_signed_zero_points_are_distinct_keys(self, phi_perturbed):
        P = np.array([[0.0, 0.3, 0.4], [-0.0, 0.3, 0.4], [0.0, -0.0, 0.4]])
        frame = PullbackFrame(phi_perturbed, 3)
        got = frame.coefficients(P)
        assert set(frame._cache) == {p.tobytes() for p in P} and len(frame._cache) == 3
        for p, row in zip(P, got):
            assert PullbackFrame(phi_perturbed, 3).coefficients(p) == tuple(row.tolist())


class TestFastLine:
    def test_identity_map(self):
        L0 = Line1(np.array([0.3, -0.2, 0.9]))
        got = fast_line_at(Diffeo.identity(), [0.5, 0.5, 0.5], L0=L0, k=7)
        assert line_angle(got, L0) < 1e-15

    def test_eigendirection_invariant(self, phi_linear, fast_line):
        got = fast_line_at(phi_linear, [0.3, 0.7, 0.1], L0=fast_line, k=25)
        assert line_angle(got, fast_line) < 1e-12

    def test_power_iteration_rate(self, phi_linear, fast_line):
        # the spectral gap of this matrix is ~3%, so convergence is slow:
        # the per-step angle contraction should track |r2/r3|
        angles = []
        for k in (40, 80, 120):
            got = fast_line_at(phi_linear, np.zeros(3), k=k)
            angles.append(line_angle(got, fast_line))
        r1 = (angles[1] / angles[0]) ** (1.0 / 40)
        r2 = (angles[2] / angles[1]) ** (1.0 / 40)
        assert abs(r1 - RATE_DYN) < 0.01
        assert abs(r2 - RATE_DYN) < 0.01

    def test_deep_iteration_tightens(self, phi_linear, fast_line):
        got = fast_line_at(phi_linear, np.zeros(3), k=600)
        assert line_angle(got, fast_line) < 1e-6

    def test_blocked_sweep_bitwise_and_bounded(self, phi_perturbed, monkeypatch):
        # 512 rows at depth 800 take 13 blocks of differentials; one block of
        # all 409,600 peaks near 94 MB
        X = np.random.default_rng(8).uniform(0, 1, (512, 3))
        L = np.broadcast_to(DEFAULT_L0.direction, X.shape)
        tracemalloc.start()
        try:
            got = splitting._fast_lines(phi_perturbed, X, L, 800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(splitting, "FAST_LINE_ROWS", 512 * 800)
        assert got.tobytes() == splitting._fast_lines(phi_perturbed, X, L, 800).tobytes()
        assert peak < 32e6

    def test_peak_bounded_in_depth(self, phi_perturbed, monkeypatch):
        # 32 steps of 64 rows per block: the backward orbit keeps one point
        # stack per block, not one per step, so four times the depth barely
        # moves the peak
        monkeypatch.setattr(splitting, "FAST_LINE_ROWS", 64 * 32)
        X = np.random.default_rng(9).uniform(0, 1, (64, 3))
        L = np.broadcast_to(DEFAULT_L0.direction, X.shape)
        peaks = []
        for k in (800, 3200):
            tracemalloc.start()
            try:
                splitting._fast_lines(phi_perturbed, X, L, k)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.3 * peaks[0]


def exact_growth(phi, x, k_max, slow_plane, burn_in=1):
    """Swept growth seeded with the exact (invariant) slow plane, so a short
    burn-in suffices, and a fast line iterated to the rounding floor
    (1200 steps at the gap 0.969 of the example map)."""
    return _splitting_pass(phi, np.asarray(x, dtype=float)[None], k_max, slow_plane, burn_in, 1200)[1][0]


def capture_growth_inputs(monkeypatch):
    """Record the (diffs, planes) of every ``_accumulate_growth`` call."""
    seen = []
    accumulate = splitting._accumulate_growth

    def capture(diffs, planes, F):
        seen.append((diffs, planes))
        return accumulate(diffs, planes, F)

    monkeypatch.setattr(splitting, "_accumulate_growth", capture)
    return seen


class TestRestrictedGrowth:
    def test_flat_k1_ratios_on_true_splitting(self, phi_linear, slow_plane):
        # the k = 1 column of the shortest table the pass makes
        g = exact_growth(phi_linear, [0.2, 0.4, 0.8], 2, slow_plane)
        assert np.exp(g.log_dyn()[0]) == pytest.approx(FLAT_DYN_1, abs=1e-9)
        assert np.exp(g.log_vol()[0]) == pytest.approx(FLAT_VOL_1, abs=1e-9)
        assert np.exp(g.log_bunch()[0]) == pytest.approx(FLAT_BUNCH_1, abs=1e-9)

    def test_zero_burn_in(self, phi_linear, slow_plane):
        # the plane at the orbit end is the seed itself, pulled back zero steps
        g = exact_growth(phi_linear, [0.2, 0.4, 0.8], 2, slow_plane, burn_in=0)
        assert np.exp(g.log_dyn()[0]) == pytest.approx(FLAT_DYN_1, abs=1e-9)
        assert np.exp(g.log_vol()[0]) == pytest.approx(FLAT_VOL_1, abs=1e-9)
        assert np.exp(g.log_bunch()[0]) == pytest.approx(FLAT_BUNCH_1, abs=1e-9)

    def test_per_step_rates(self, phi_linear, slow_plane):
        g = exact_growth(phi_linear, [0.2, 0.4, 0.8], 80, slow_plane)
        assert fitted_rate(g.log_dyn()) == pytest.approx(RATE_DYN, abs=1e-8)
        assert fitted_rate(g.log_vol()) == pytest.approx(RATE_VOL, abs=1e-8)
        assert fitted_rate(g.log_bunch()) == pytest.approx(RATE_BUNCH, abs=1e-8)

    def test_volume_identity(self, phi_linear, slow_plane):
        g = exact_growth(phi_linear, [0.7, 0.1, 0.6], 60, slow_plane)
        assert g.volume_identity_max_abs() < 1e-6

    def test_swept_matches_exact_fields(self, phi_linear, slow_plane):
        x = np.array([0.3, 0.4, 0.5])
        g1 = exact_growth(phi_linear, x, 30, slow_plane)
        (g2,) = _splitting_pass(phi_linear, x[None], 30, None, 500, 800)[1]
        assert np.max(np.abs(g1.log_dyn() - g2.log_dyn())) < 1e-6
        assert np.max(np.abs(g1.log_vol() - g2.log_vol())) < 1e-6

    def test_growth_planes_one_chain_on_an_excluded_sample(self, phi_perturbed, monkeypatch):
        # the growth planes are one backward sweep, D_i Q_i = Q_(i+1) R_i, so
        # every D_i Q_i lies in span Q_(i+1) to rounding, also on the
        # support-crossing sample whose splitting fails the residual test
        seen = capture_growth_inputs(monkeypatch)
        residual, _ = _splitting_pass(phi_perturbed, np.array([[0.3, 0.55, 0.42]]), 20, None, 500, 800)
        assert residual[0] > splitting.RESIDUAL_TOL
        ((diffs, planes),) = seen
        img = diffs @ planes[:-1]
        off = img - planes[1:] @ (planes[1:].swapaxes(-1, -2) @ img)
        rel = np.linalg.norm(off, axis=(-2, -1)) / np.linalg.norm(img, axis=(-2, -1))
        assert rel.max() < 1e-13

    def test_one_forward_pass(self, phi_perturbed, monkeypatch):
        # phi(x), then the power iteration's differentials in one call, then
        # one pass: k_plane steps of 3N rows (x deep, x and phi(x)) and k_max
        # steps of the deep rows. There is no second pass for the
        # differentials, D(x) included: they are read off the pass's records
        import splitkit.dynamics as dynamics

        calls = []
        advance = dynamics._advance

        def counting_advance(phi, Y):
            calls.append(len(Y))
            return advance(phi, Y)

        monkeypatch.setattr(dynamics, "_advance", counting_advance)
        X = np.random.default_rng(13).random((5, 3))
        _splitting_pass(phi_perturbed, X, 7, None, 30, 4)
        assert calls == [5, 2 * 5 * 4] + [15] * 30 + [5] * 7

    def test_submultiplicativity_of_volume_ratio(self, phi_perturbed):
        # per-step log vol ratios multiply exactly along the orbit, so the
        # k-step ratio is bounded by the worst per-step ratio power
        (g,) = _splitting_pass(phi_perturbed, np.zeros((1, 3)), 20, None, 400, 600)[1]
        lv = g.log_vol()
        steps = np.diff(np.concatenate([[0.0], lv]))
        worst = steps.max()
        for k in range(5, 20):
            assert lv[k] <= lv[4] + worst * (k - 4) + 1e-9


class TestSplittingPass:
    @pytest.mark.parametrize("field", [None, "tilt"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_growth_planes_and_differential_bitwise(self, phi_perturbed, tilt_E0, monkeypatch, field, n):
        # the shared sweep's growth plane at orbit point j is the depth
        # k_max + k_plane - j pullback of phi^j(x) alone, and its D(x) is
        # phi.differential(x); the first row's orbit enters the shear support
        E0 = tilt_E0 if field else None
        X = np.array([[0.3, 0.52, 0.45], [0.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.21, 0.82, 0.43]])[:n]
        k_max, k_plane = 6, 20
        assert not orbit_support_report(phi_perturbed, X[0], k_max)["orbit_avoids_support"]
        seen = capture_growth_inputs(monkeypatch)
        _splitting_pass(phi_perturbed, X, k_max, E0, k_plane, 30)
        ((diffs, planes),) = seen
        assert diffs[0].tobytes() == phi_perturbed.differential(X).tobytes()
        assert len(planes) == k_max + 1
        for j, P in enumerate(orbit(phi_perturbed, X, k_max)):
            want = _pullback_bases(phi_perturbed, P, E0, k_max + k_plane - j).transpose(2, 0, 1)
            assert planes[j].tobytes() == np.ascontiguousarray(want).tobytes()


class TestSplittingSample:
    def test_linear_converges(self, phi_linear):
        rep = domination_report(phi_linear, [[0.3, 0.4, 0.5]], 4, k_plane=500, k_line=800)
        (d,) = rep.samples
        assert not rep.excluded
        assert d.residual < 1e-6
        with pytest.raises(AttributeError):
            d.residual = 0.0

    def test_one_depth_has_no_rate(self, phi_linear):
        # a rate is the slope of a line, and one depth fits no line
        with pytest.raises(ValueError, match="at least 2 depths"):
            domination_report(phi_linear, [[0.1, 0.2, 0.3]], 1, k_plane=500, k_line=800)

    @pytest.mark.parametrize("run", [domination_report, bound_curves])
    def test_one_depth_refused_before_the_pass(self, monkeypatch, run):
        # at these depths the sample fails the residual test, so a pass at
        # k_max 1 would return an empty report; no map step is taken
        def no_step(*args):
            raise AssertionError("the pass ran")

        monkeypatch.setattr(splitting, "_fast_lines", no_step)
        monkeypatch.setattr(splitting, "_forward", no_step)
        with pytest.raises(ValueError, match="at least 2 depths"):
            run(Diffeo.from_matrix(PAPER_MATRIX), [[0.1, 0.2, 0.3]], 1, k_plane=20, k_line=30)

    def test_shallow_depth_flagged(self, phi_linear):
        rep = domination_report(phi_linear, [[0.3, 0.4, 0.5]], 4, k_plane=20, k_line=30)
        assert len(rep.samples) == 0 and len(rep.excluded) == 1


class TestEventualK0:
    def test_all_below(self):
        assert eventual_k0(np.array([-0.1, -0.2, -0.3])) == 1

    def test_transient(self):
        assert eventual_k0(np.array([0.5, 0.1, -0.2, -0.4])) == 3

    def test_never(self):
        assert eventual_k0(np.array([-0.5, 0.1])) is None


def sample_bytes(d):
    """Every number of one converged sample's report, as bytes."""
    g = d.growth
    arrays = (d.point, g.log_s1, g.log_s2, g.log_f)
    scalars = (d.residual, d.volume_identity_max_abs)
    scalars += (d.rate_dyn, d.rate_vol, d.rate_bunch)
    return (
        tuple(np.asarray(a, dtype=float).tobytes() for a in arrays),
        np.array(scalars).tobytes(),
        (d.k0_dyn, d.k0_vol, d.k0_bunch),
    )


class TestStackedReport:
    # two support-avoiding fixed points, one support-crossing (excluded) sample
    # and a generic point whose orbit enters the support
    POINTS = [np.zeros(3), [0.3, 0.55, 0.42], [0.5, 0.0, 0.5], [0.21, 0.82, 0.43]]

    def test_stack_equals_one_sample_reports(self, phi_perturbed):
        kw = dict(k_plane=500, k_line=800)
        rep = domination_report(phi_perturbed, self.POINTS, 20, **kw)
        singles = [domination_report(phi_perturbed, [p], 20, **kw) for p in self.POINTS]
        assert len(rep.samples) == 2 and len(rep.excluded) == 2
        assert [sample_bytes(d) for d in rep.samples] == [
            sample_bytes(d) for r in singles for d in r.samples
        ]
        assert [(p.tobytes(), r) for p, r in rep.excluded] == [
            (p.tobytes(), r) for s in singles for p, r in s.excluded
        ]

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_pullback_for_the_samples_and_one_for_the_sweep(self, phi_linear, monkeypatch, n):
        # the sample planes and the growth planes come from one forward pass
        # and one sweep over 3n rows (x deep, then x and phi(x)), and from no
        # _pullback_bases call: the counters stand in for the kernel's names
        # in dynamics and for the ones splitting binds (or would bind)
        calls = []
        planes, forward, sweep = dynamics._pullback_bases, dynamics._forward, dynamics._pull_back

        def counting_planes(phi, P, E0, k):
            calls.append(("planes", len(P)))
            return planes(phi, P, E0, k)

        def counting_forward(phi, Y, live):
            calls.append(("forward", len(Y)))
            return forward(phi, Y, live)

        def counting_sweep(phi, recs, Q, live=None):
            calls.append(("sweep", Q.shape[-1]))
            return sweep(phi, recs, Q, live)

        for module in (dynamics, splitting):
            monkeypatch.setattr(module, "_pullback_bases", counting_planes, raising=module is dynamics)
            monkeypatch.setattr(module, "_forward", counting_forward)
            monkeypatch.setattr(module, "_pull_back", counting_sweep)
        pts = [np.zeros(3), np.array([0.5, 0.0, 0.5]), np.array([0.3, 0.4, 0.5])][:n]
        rep = domination_report(phi_linear, pts, 5, k_plane=500, k_line=800)
        assert len(rep.samples) == n
        assert calls == [("forward", 3 * n), ("sweep", 3 * n)]


class TestDominationReport:
    def test_identity_map_all_false(self):
        phi = Diffeo.identity()
        rep = domination_report(
            phi, [np.array([0.2, 0.3, 0.4])], 10, k_plane=5, k_line=5
        )
        assert len(rep.samples) == 1
        d = rep.samples[0]
        assert np.allclose(np.exp(d.growth.log_dyn()), 1.0, atol=1e-12)
        assert np.allclose(np.exp(d.growth.log_vol()), 1.0, atol=1e-12)
        assert d.k0_dyn is None and d.k0_vol is None
        assert not rep.verdict_dyn and not rep.verdict_vol

    def test_linear_map_verdicts(self, phi_linear):
        rep = domination_report(
            phi_linear, [np.array([0.3, 0.4, 0.5])], 40, k_plane=500, k_line=800
        )
        assert rep.verdict_dyn and rep.verdict_vol and rep.verdict_bunch_fails
        d = rep.samples[0]
        assert d.k0_dyn == 1 and d.k0_vol == 1 and d.k0_bunch is None
        assert d.volume_identity_max_abs < 1e-6

    def test_perturbed_on_support_avoiding_orbits(self, phi_perturbed):
        rep = domination_report(
            phi_perturbed, list(FIXED_EXACT), 20, k_plane=500, k_line=800
        )
        assert len(rep.samples) == 2
        assert rep.verdict_dyn and rep.verdict_vol and rep.verdict_bunch_fails
        for d in rep.samples:
            assert d.rate_vol == pytest.approx(RATE_VOL, abs=1e-6)
            assert d.rate_bunch > 1.0

    def test_unconverged_excluded_with_record(self, phi_perturbed):
        # a support-crossing orbit: marginal domination, honestly excluded
        rep = domination_report(
            phi_perturbed, [np.array([0.3, 0.55, 0.42])], 10, k_plane=400, k_line=600
        )
        assert len(rep.samples) == 0
        assert len(rep.excluded) == 1
        assert rep.excluded[0][1] > 1e-6  # the failing residual is reported


class TestTransversalityPrecheck:
    def test_plane_containing_fast_direction_flagged(self, phi_linear, eigen_oracle):
        # E0 = [E^uu, e1] pulls back to the invariant plane span(E^s, E^uu),
        # which contains the fast line and passes the residual test, so the
        # splitting pass refuses it before any growth is accumulated
        _, V = eigen_oracle
        bad = Plane2.spanned_by(V[:, 2], [1.0, 0.0, 0.0])
        X = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.5]]
        with pytest.raises(DegeneratePlaneError, match="e0.basis"):
            domination_report(phi_linear, X, 20, E0=bad, k_plane=400, k_line=600)
        with pytest.raises(DegeneratePlaneError, match="e0.basis"):
            bound_curves(phi_linear, X, 20, E0=bad, k_plane=400, k_line=600)

    def test_coordinate_plane_not_flagged(self, phi_linear):
        rep = domination_report(phi_linear, [[0.0, 0.0, 0.0]], 10, k_plane=400, k_line=600)
        assert len(rep.samples) == 1
