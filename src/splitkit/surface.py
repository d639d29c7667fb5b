"""Approximate integral surfaces by composed coordinate-frame flows.

Patches are built as W(t, s) = (X-flow for time t) of (Y-flow for time s) of
a base point, on a fixed (t, s) grid, with a classical fixed-step 4th-order
integrator that steps all rows of a patch together as one stack.  Flows run
in lifted (unwrapped) chart coordinates inside the box of half-width
``CHART_HALFWIDTH`` around a patch stack's first seed; leaving the box is a
hard error, never a silent clamp.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ChartExitError
from .frames import AdaptedFrame, _coefficients, _graph_field_of, _graph_vectors, _jacobians
from .geometry import _record, _row_norms, check_spans, plane_angles

DEFAULT_STEP = 1e-3
DEFAULT_GRAD_H = 1e-6  # FD step of the coefficient gradient in the variational equation
MAX_STEP_LOAD = 0.5  # largest |grad(a)| dt at which the explicit transport counts as resolved
CHART_HALFWIDTH = 0.45  # of the lifted-coordinate box a patch's flows must stay in


def _rk4_steps(t, step, n):
    """Each of n rows' RK4 step count and step, as ``flow`` takes them."""
    if not np.all(np.isfinite(step) & (np.asarray(step, dtype=float) > 0)):
        raise ValueError(f"step must be finite and positive, not {step!r}")
    T = np.broadcast_to(np.asarray(t, dtype=float), n)
    bad = ~np.isfinite(T)
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(f"flow time of row {row} is not finite: {float(T[row])}")
    steps = np.where(T == 0.0, 0.0, np.maximum(1.0, np.ceil(np.abs(T) / step)))
    return steps, T / np.maximum(steps, 1.0)


def flow(field, y0, t, step, center=None):
    """Endpoint of the time-t flow of y' = field(y) (t of either sign) in fixed RK4 steps.

    ``y0`` is one state of shape (d,) or a stack of N states of shape (N, d);
    ``field`` maps an (N, d) stack to an (N, d) stack.  ``t`` and ``step``
    are each one for all rows or one per row: row n takes
    ceil(|t_n| / step_n) steps of t_n over that count (none at t_n = 0) with
    elementwise arithmetic, so its endpoint is bitwise the same whatever
    else is in the stack.  A row that has taken its steps keeps its endpoint
    while the others go on; the field still sees it there.  With a chart
    ``center``, the first three coordinates of every row must stay within
    ``CHART_HALFWIDTH`` of it after each step.
    """
    y = np.array(y0, dtype=float)
    Y = y.reshape(-1, y.shape[-1])
    steps, dt = _rk4_steps(t, step, len(Y))
    for i in range(int(steps.max(initial=0.0))):
        live = i < steps
        h = np.where(live, dt, 0.0)[:, None]
        k1 = field(Y)
        k2 = field(Y + 0.5 * h * k1)
        k3 = field(Y + 0.5 * h * k2)
        k4 = field(Y + h * k3)
        Y = np.where(live[:, None], Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), Y)
        if center is not None:
            outside = ~np.all(np.abs(Y[:, :3] - center) <= CHART_HALFWIDTH, axis=1)
            if outside.any():
                row = int(outside.argmax())
                raise ChartExitError(
                    f"trajectory left the chart at time {(i + 1) * dt[row]:.6g}",
                    exit_time=(i + 1) * dt[row],
                    row=row,
                )
    return Y.reshape(y.shape)


@_record
class SurfacePatch:
    epsilon: float
    n: int
    ts: np.ndarray
    ss: np.ndarray
    points: np.ndarray  # shape (n, n, 3), index [i_t, j_s]

    def grid_spacing(self):
        return 2.0 * self.epsilon / (self.n - 1)


def _sweep(frames, which, starts, grid, i0, step, center, names):
    """Flow every row of an (N, 3) stack of starts to each time of ``grid``.

    Node [m, i] is the flow of ``starts[m]`` for time ``grid[i]`` along the
    field X (``which`` 0) or Y (1) of ``frames[m]``, reached gap by gap
    outward from ``grid[i0]`` = 0 on a grid with as many gaps on each side.
    Both sides of a gap step as one 2N-row stack, each row with its own time,
    so each RK4 stage is one field evaluation. A row that leaves the chart
    around ``center`` raises ``ChartExitError`` naming its patch, ``names[m]``,
    with the signed flow time from ``grid[i0]`` of the step outside.
    """
    N = len(starts)
    field = _graph_field_of(list(frames) * 2, np.tile(which, 2))
    out = np.empty((N, len(grid), 3))
    out[:, i0] = starts
    q = np.concatenate([starts, starts])
    for g in range(1, i0 + 1):
        ahead, behind = i0 + g, i0 - g
        t = np.repeat([grid[ahead] - grid[ahead - 1], grid[behind] - grid[behind + 1]], N)
        try:
            q = flow(field, q, t, step, center)
        except ChartExitError as exc:
            prev = ahead - 1 if exc.row < N else behind + 1
            t = grid[prev] - grid[i0] + exc.exit_time
            raise ChartExitError(
                f"patch {names[exc.row % N]} left the chart at flow time {t:.6g}; "
                "reduce epsilon",
                exit_time=t,
            ) from None
        out[:, ahead], out[:, behind] = q[:N], q[N:]
    return out


def _build_patches(frames, seeds, orders, epsilon, n, step, names=None):
    """Patches at several seeds, each of its own frame and in its own flow
    order, integrated as one stack.

    The spines of all seeds flow together first (one row per seed and
    side), then all n rows of every patch (n per seed and side), so each RK4
    stage is one ``_coefficients`` call, and one kernel call for the
    pullback frames of all depths. Rows of a stack are bitwise independent, so each patch
    equals the one built from its seed and frame alone. Every flow must stay
    in the chart around the first seed; ``names`` label the patches in a
    chart-exit error (default: their orders).
    """
    if n < 3:
        raise ValueError("grid needs n >= 3 for interior finite differences")
    if n % 2 == 0:
        raise ValueError("grid needs odd n: rows are integrated outward from t = 0")
    seeds = np.asarray(seeds, dtype=float)
    names = list(orders if names is None else names)
    ts = ss = np.linspace(-epsilon, epsilon, n)
    i0 = n // 2  # the grid is symmetric, so its middle node is t = 0

    # a spine follows the first field through its seed, then the patch's n
    # rows follow the second field from its spine; node [m, i] is at time
    # grid[m] of the first field, so xy patches are transposed to [t, s]
    xy = np.array([order == "xy" for order in orders])
    first = xy.astype(int)  # xy: the Y-flow (column 1) first; yx: the X-flow
    second = np.repeat(1 - first, n)
    spines = _sweep(frames, first, seeds, ss, i0, step, seeds[0], names)
    rows = _sweep(
        [frame for frame in frames for _ in range(n)], second,
        spines.reshape(-1, 3), ts, i0, step, seeds[0], [name for name in names for _ in range(n)],
    )
    points = rows.reshape(len(seeds), n, n, 3)
    points[xy] = points[xy].swapaxes(1, 2)
    return [SurfacePatch(epsilon=epsilon, n=n, ts=ts, ss=ss, points=P) for P in points]


def build_patch(
    frame: AdaptedFrame,
    x0,
    epsilon: float,
    n: int,
    step=DEFAULT_STEP,
    order: str = "xy",
) -> SurfacePatch:
    """Grid of W(t, s) = X-flow_t . Y-flow_s (x0) over (-eps, eps)^2.

    ``order="yx"`` composes the flows the other way round; it exists for the
    commutator-defect diagnostic only.  One seed of ``_build_patches``.
    """
    return _build_patches([frame], [x0], (order,), epsilon, n, step)[0]


@_record
class TangencyReport:
    max_angle: float
    mean_angle: float
    max_angle_limit: float  # against a second (limit) plane field
    mean_angle_limit: float
    max_tangent_norm: float  # uniform C^1 bound ingredient
    max_dWdt_defect: float  # || FD dW/dt - X(W) || over interior nodes
    angles: np.ndarray  # (n-2, n-2): angle to the own plane at interior node [i-1, j-1]


def tangency_report(patch: SurfacePatch, frame: AdaptedFrame, limit: AdaptedFrame) -> TangencyReport:
    """Angles between the FD tangent planes of a patch and the planes of
    ``frame`` and of a second, limit frame at its interior nodes.

    The central-difference tangent pairs are slices of the node grid, the
    coefficients of both frames are read in one call over the interior-node
    stack, and the angles come from one ``plane_angles`` call per frame.
    """
    W = patch.points
    d2 = 2 * patch.grid_spacing()
    dt = ((W[2:, 1:-1] - W[:-2, 1:-1]) / d2).reshape(-1, 3)
    ds = ((W[1:-1, 2:] - W[1:-1, :-2]) / d2).reshape(-1, 3)
    tangents = np.stack([dt, ds], axis=2)
    check_spans(tangents)
    P = W[1:-1, 1:-1].reshape(-1, 3)
    C = _coefficients([frame] * len(P) + [limit] * len(P), np.tile(P, (2, 1)))
    # bases [X | Y], (N, 3, 2), of both frames
    bases = np.stack([_graph_vectors(C, 0), _graph_vectors(C, 1)], axis=2)
    own = bases[: len(P)]
    angles = plane_angles(tangents, own)
    angles_limit = plane_angles(tangents, bases[len(P) :])
    return TangencyReport(
        max_angle=float(np.max(angles)),
        mean_angle=float(np.mean(angles)),
        max_angle_limit=float(np.max(angles_limit)),
        mean_angle_limit=float(np.mean(angles_limit)),
        max_tangent_norm=float(max(_row_norms(dt).max(), _row_norms(ds).max())),
        max_dWdt_defect=float(_row_norms(dt - own[:, :, 0]).max()),
        angles=angles.reshape(patch.n - 2, patch.n - 2),
    )


def planarity_defect(patch: SurfacePatch) -> float:
    """Max node distance to the least-squares plane through the patch."""
    pts = patch.points.reshape(-1, 3)
    c = pts.mean(axis=0)
    _, _, Vt = np.linalg.svd(pts - c)
    normal = Vt[2]
    return float(np.max(np.abs((pts - c) @ normal)))


def _pushforwards(frames, X, t, step, grad_h, V=None):
    """Variational transports by the time-t X-flows of ``frames``, one frame
    and one ``step`` per row, in one backward RK4 pass of the stack:
    the vectors V (N,3) at the time -t preimages of the rows of X (N,3), by
    default the frames' Y there, are pushed forward to X. Returns them, each
    row's largest step load |grad(a)| |dt|, and its final q and m3 (below).
    A row whose load reaches ``MAX_STEP_LOAD`` leaves the pass at that
    stage: its state freezes, no kernel row is spent on it after that stage,
    and its vector, q and m3 are NaN.

    Row n's state (p, q, m) starts at (x, 0, e3): p' = -X(p) flows to the
    preimage y, q' = da/dx3, and m' = -(a_1, a_2, 0) - a_3 m, with a_j =
    da/dx_j at p. As J = e3 grad(a)^T for a graph frame, D(X-flow_-t)(x) has
    rows e1, e2 and m, so v at y is pushed to (v1, v2, (v3 - m1 v1 - m2 v2)
    / m3) with no forward pass. One ``_jacobians`` call per RK4 stage gives
    the pairs and grad(a) of the rows inside the budget with steps left, and
    every operation is by row, so each row's bits do not depend on the
    stack. An explicit fixed-step scheme resolves the transport only while
    the load stays well below 1 (``MAX_STEP_LOAD``).
    """
    N = len(X)
    steps, dt = _rk4_steps(t, step, N)
    load = np.zeros(N)
    live = np.ones(N, dtype=bool)  # the rows still inside the load budget
    stages = itertools.count()  # flow calls g once per RK4 stage, four per step

    def g(S):
        dS = np.zeros_like(S)
        rows = np.flatnonzero(live & (next(stages) // 4 < steps))
        if len(rows):
            C, J = _jacobians([frames[n] for n in rows], S[rows, :3], grad_h)
            G = J[:, 0]
            load[rows] = np.fmax(load[rows], _row_norms(G) * np.abs(dt[rows]))
            live[rows] = load[rows] < MAX_STEP_LOAD
            dm = -(G[:, 2:] * S[rows, 4:])
            dm[:, :2] -= G[:, :2]
            dS[rows] = np.concatenate([-_graph_vectors(C, 0), G[:, 2:], dm], axis=1)
        return dS

    start = np.zeros((N, 7))
    start[:, :3], start[:, 6] = X, 1.0
    S = flow(g, start, t, step)[live]
    m = S[:, 4:]
    if V is None:
        V = _graph_vectors(_coefficients([frames[n] for n in np.flatnonzero(live)], S[:, :3]), 1)
    else:
        V = np.asarray(V, dtype=float)[live]
    vec = np.full((N, 3), np.nan)
    vec[live] = V
    vec[live, 2] = (V[:, 2] - m[:, 0] * V[:, 0] - m[:, 1] * V[:, 1]) / m[:, 2]
    q, m3 = np.full((2, N), np.nan)
    q[live], m3[live] = S[:, 3], m[:, 2]
    return vec, load, q, m3


def _growth_identities(q, m3, load):
    """(lhs, rhs, relative error, resolved) of the vertical-growth identity
    per ``_pushforwards`` row: lhs = ||(X-flow_t)_* e3|| = 1/|m3| and rhs =
    exp(q), or None numbers, unresolved, where the pass stopped the row."""
    rows = zip(np.abs(1.0 / m3).tolist(), np.exp(q).tolist(), load < MAX_STEP_LOAD)
    return tuple(
        (lhs, rhs, abs(lhs - rhs) / max(abs(rhs), 1e-300), True) if inside else (None, None, None, False)
        for lhs, rhs, inside in rows
    )


def pushforward_norm_identity(frame: AdaptedFrame, x, t, step):
    """Both sides of the growth formula for the vertical direction under the X-flow.

    lhs: norm of the pushforward of e3 by the time-t X-flow at x.
    rhs: exp of the integral of da/dx3 along the backward X-trajectory of x.
    Returns (lhs, rhs, relative error, resolved) of one ``_pushforwards``
    row (``_growth_identities``); V = e3, so no Y is read.

    The identity holds for every C^1 graph frame, integrable or not: along
    the one trajectory the pass integrates m3' = -a3 m3 and q' = a3, so
    lhs = 1/|m3| = exp(q) = rhs. It checks the transport, not the field.
    """
    X = np.asarray(x, dtype=float)[None]
    _, load, q, m3 = _pushforwards([frame], X, t, step, DEFAULT_GRAD_H, V=np.array([[0.0, 0.0, 1.0]]))
    return _growth_identities(q, m3, load)[0]


@_record
class PushforwardSeries:
    ks: tuple
    values: tuple  # || (X^(k)-flow_t)_* Y^(k) - Y^(k) || at x0; None where the transport was stopped
    resolved: tuple  # per-k integrator-load flags
    growth_identity: tuple  # per-k (lhs, rhs, rel_err, resolved) of the identity, from the step rows

    def resolved_values(self):
        return [(k, v) for k, v, r in zip(self.ks, self.values, self.resolved) if r]


def pushforward_convergence_series(
    frames, x0, t, step, grad_h=DEFAULT_GRAD_H
) -> PushforwardSeries:
    """Pushforward defect of a family of frames at x0, one entry per frame.

    ``frames`` is a sequence of (k, AdaptedFrame). Deep pullback frames
    oscillate at the cocycle's compression scale, so entries are flagged
    unresolved once the variational load exceeds the explicit-step budget;
    asserting trends on unresolved entries would test the integrator, not
    the frames. An entry whose transport at the step passes the budget is
    stopped there, and its value is None. The transports of all frames at
    the step and at half of it are one stack of 2N rows, one step per row,
    each bitwise the frame's own one-row pass; the step rows also give each
    frame's vertical-growth identity (``_growth_identities``).
    """
    x0 = np.asarray(x0, dtype=float)
    ks = tuple(k for k, _ in frames)
    frames = [frame for _, frame in frames]
    N = len(frames)
    halving = np.repeat([step, step / 2], N)  # N rows at the step, N at half
    vec, load, q, m3 = _pushforwards(frames * 2, np.tile(x0, (2 * N, 1)), t, halving, grad_h)
    # each frame's Y at x0, read once for both of its rows; a cache hit for a
    # pullback frame: its backward pass started there
    Y = np.tile([frame.Y(x0) for frame in frames], (2, 1))
    vals, halved = np.split(_row_norms(vec - Y), 2)
    agree = np.abs(vals - halved) <= np.maximum(0.25 * np.maximum(vals, halved), 1e-9)
    inside, halved_inside = np.split(load < MAX_STEP_LOAD, 2)  # the rows the pass did not stop
    flags = inside & halved_inside & agree
    values = tuple(float(v) if i else None for v, i in zip(vals, inside))
    identity = _growth_identities(q[:N], m3[:N], load[:N])
    return PushforwardSeries(ks=ks, values=values, resolved=tuple(flags.tolist()), growth_identity=identity)
