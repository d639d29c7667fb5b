"""Approximate integral surfaces by composed coordinate-frame flows.

Patches are built as W(t, s) = (X-flow for time t) of (Y-flow for time s) of
a base point, on a fixed (t, s) grid, with a classical fixed-step 4th-order
integrator that steps all rows of a patch together as one stack.  Flows run
in lifted (unwrapped) chart coordinates inside an explicit chart box; leaving
the box is a hard error, never a silent clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Diffeo
from .errors import ChartExitError
from .frames import AdaptedFrame, PullbackFrame
from .geometry import Plane2, principal_angle

DEFAULT_STEP = 1e-3
DEFAULT_EPSILON = 0.05
DEFAULT_GRID_N = 21
DEFAULT_GRAD_H = 1e-6  # FD step of the coefficient gradient in the variational equation


@dataclass(frozen=True)
class FlowSpec:
    """Fixed-step explicit integrator parameters (classical 4th order)."""

    step: float = DEFAULT_STEP

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class ChartBox:
    """Axis-aligned box of lifted coordinates around a center point."""

    center: np.ndarray
    halfwidth: float = 0.45

    def contains(self, p):
        """Whether a point is in the box; for an (N, 3) stack, one flag per row."""
        return np.all(np.abs(np.asarray(p) - self.center) <= self.halfwidth, axis=-1)


def flow(field, y0, t, spec: FlowSpec = FlowSpec(), chart: ChartBox | None = None):
    """Endpoint of the time-t flow of y' = field(y) (t of either sign) in fixed RK4 steps.

    ``y0`` is one state of shape (d,) or a stack of N states of shape (N, d);
    ``field`` maps an (N, d) stack to an (N, d) stack.  All rows take the same
    steps with elementwise arithmetic, so a row's endpoint is bitwise the same
    whatever else is in the stack.  With a chart, the first three coordinates
    of every row are checked after each step.
    """
    y = np.array(y0, dtype=float)
    if t == 0.0:
        return y
    n = max(1, math.ceil(abs(t) / spec.step))
    dt = t / n
    Y = y.reshape(-1, y.shape[-1])
    for i in range(n):
        k1 = field(Y)
        k2 = field(Y + 0.5 * dt * k1)
        k3 = field(Y + 0.5 * dt * k2)
        k4 = field(Y + dt * k3)
        Y = Y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if chart is not None and not np.all(chart.contains(Y[:, :3])):
            raise ChartExitError(
                f"trajectory left the chart at time {(i + 1) * dt:.6g}",
                exit_time=(i + 1) * dt,
            )
    return Y.reshape(y.shape)


@dataclass(frozen=True)
class SurfacePatch:
    x0: np.ndarray
    epsilon: float
    n: int
    ts: np.ndarray
    ss: np.ndarray
    points: np.ndarray  # shape (n, n, 3), index [i_t, j_s]
    k: int | None
    spec: FlowSpec

    def grid_spacing(self):
        return 2.0 * self.epsilon / (self.n - 1)

    def fd_tangents(self, i, j):
        """Central-difference tangent pair at an interior node."""
        d = self.grid_spacing()
        dt = (self.points[i + 1, j] - self.points[i - 1, j]) / (2 * d)
        ds = (self.points[i, j + 1] - self.points[i, j - 1]) / (2 * d)
        return dt, ds

    def interior(self):
        for i in range(1, self.n - 1):
            for j in range(1, self.n - 1):
                yield i, j


def _sweep(field, starts, grid, i0, spec, chart):
    """Flow every row of an (N, 3) stack of starts to each time of ``grid``.

    Node [m, i] is the ``field``-flow of ``starts[m]`` for time ``grid[i]``,
    reached step by step outward from ``grid[i0]`` = 0; all rows step together.
    """
    out = np.empty((len(starts), len(grid), 3))
    out[:, i0] = starts
    for side in (range(i0 + 1, len(grid)), range(i0 - 1, -1, -1)):
        q, prev = starts, i0
        for i in side:
            q = flow(field, q, grid[i] - grid[prev], spec, chart)
            out[:, i] = q
            prev = i
    return out


def build_patch(
    frame: AdaptedFrame,
    x0,
    epsilon: float = DEFAULT_EPSILON,
    n: int = DEFAULT_GRID_N,
    spec: FlowSpec = FlowSpec(),
    chart: ChartBox | None = None,
    k: int | None = None,
    order: str = "xy",
) -> SurfacePatch:
    """Grid of W(t, s) = X-flow_t . Y-flow_s (x0) over (-eps, eps)^2.

    ``order="yx"`` composes the flows the other way round; it exists for the
    commutator-defect diagnostic only.
    """
    if n < 3:
        raise ValueError("grid needs n >= 3 for interior finite differences")
    if n % 2 == 0:
        raise ValueError("grid needs odd n: rows are integrated outward from t = 0")
    x0 = np.asarray(x0, dtype=float)
    if chart is None:
        chart = ChartBox(center=x0.copy(), halfwidth=0.45)
    ts = ss = np.linspace(-epsilon, epsilon, n)
    i0 = n // 2  # the grid is symmetric, so its middle node is t = 0

    # the spine follows the first field through x0, then all n rows follow
    # the second field from the spine together; node [m, i] is at time grid[m]
    # of the first field, so the xy order is transposed to the [t, s] layout
    first, second = (frame.Y, frame.X) if order == "xy" else (frame.X, frame.Y)
    spine = _sweep(first, x0[None], ss, i0, spec, chart)[0]
    points = _sweep(second, spine, ts, i0, spec, chart)
    if order == "xy":
        points = np.ascontiguousarray(points.swapaxes(0, 1))
    return SurfacePatch(x0=x0, epsilon=epsilon, n=n, ts=ts, ss=ss, points=points, k=k, spec=spec)


@dataclass(frozen=True)
class TangencyReport:
    k: int | None
    max_angle: float
    mean_angle: float
    max_angle_limit: float | None  # against a second (limit) plane field
    mean_angle_limit: float | None
    max_tangent_norm: float  # uniform C^1 bound ingredient
    max_dWdt_defect: float  # || FD dW/dt - X(W) || over interior nodes
    angles: np.ndarray  # (n-2, n-2): angle to the own plane at interior node [i-1, j-1]


def tangency_report(
    patch: SurfacePatch, frame: AdaptedFrame, plane_field, limit_field=None
) -> TangencyReport:
    """Angles between FD tangent planes of a patch and reference plane fields.

    A plane field maps the (M,3) stack of interior nodes to their M planes
    (``AdaptedFrame.planes``), so each field is evaluated in one call.
    """
    nodes = list(patch.interior())
    P = np.array([patch.points[i, j] for i, j in nodes])
    a = frame.coefficients(P)[:, 0]
    own = plane_field(P)
    limit = limit_field(P) if limit_field is not None else None
    angles = []
    angles_limit = []
    max_norm = 0.0
    max_defect = 0.0
    for m, (i, j) in enumerate(nodes):
        dt, ds = patch.fd_tangents(i, j)
        tangent = Plane2.spanned_by(dt, ds)
        angles.append(principal_angle(tangent, own[m]))
        if limit is not None:
            angles_limit.append(principal_angle(tangent, limit[m]))
        max_norm = max(max_norm, float(np.linalg.norm(dt)), float(np.linalg.norm(ds)))
        max_defect = max(max_defect, float(np.linalg.norm(dt - np.array([1.0, 0.0, a[m]]))))
    return TangencyReport(
        k=patch.k,
        max_angle=float(np.max(angles)),
        mean_angle=float(np.mean(angles)),
        max_angle_limit=float(np.max(angles_limit)) if angles_limit else None,
        mean_angle_limit=float(np.mean(angles_limit)) if angles_limit else None,
        max_tangent_norm=max_norm,
        max_dWdt_defect=max_defect,
        angles=np.reshape(angles, (patch.n - 2, patch.n - 2)),
    )


def planarity_defect(patch: SurfacePatch) -> float:
    """Max node distance to the least-squares plane through the patch."""
    pts = patch.points.reshape(-1, 3)
    c = pts.mean(axis=0)
    _, _, Vt = np.linalg.svd(pts - c)
    normal = Vt[2]
    return float(np.max(np.abs((pts - c) @ normal)))


@dataclass(frozen=True)
class TransportResult:
    """Variationally transported vector plus an explicit-integrator load check.

    ``max_step_load`` is the largest ||J|| * dt seen along the trajectory; a
    fixed-step explicit scheme only resolves the transport while this stays
    well below 1, so results with load >= ~0.5 are flagged unresolved instead
    of being reported as measurements.
    """

    vector: np.ndarray
    max_step_load: float

    @property
    def resolved(self):
        return self.max_step_load < 0.5


def pushforward_vector(
    frame: AdaptedFrame, x, t, spec: FlowSpec = FlowSpec(), v=None, grad_h=DEFAULT_GRAD_H
) -> TransportResult:
    """Transport of a vector (default Y at the pulled-back base) by the X-flow.

    Returns the pushforward of Y (or of v given at the time ``-t`` preimage)
    evaluated at x: the preimage is found by flowing backward, then the
    variational equation is integrated forward along the X-flow.
    """
    x = np.asarray(x, dtype=float)
    y = flow(frame.X, x, -t, spec)
    v0 = np.asarray(frame.Y(y) if v is None else v, dtype=float)

    n = max(1, math.ceil(abs(t) / spec.step))
    dt = t / n
    load = [0.0]

    def g(S):
        # the state (p, w) is a one-row stack; J(p) = e3 grad(a)(p)^T
        J = np.zeros((3, 3))
        J[2, :] = frame.gradient_a(S[0, :3], h=grad_h)
        load[0] = max(load[0], float(np.linalg.norm(J) * abs(dt)))
        return np.concatenate([frame.X(S[:, :3]), (J @ S[0, 3:])[None]], axis=1)

    out = flow(g, np.concatenate([y, v0]), t, spec)
    return TransportResult(vector=out[3:], max_step_load=load[0])


def pushforward_norm_identity(frame: AdaptedFrame, x, t, spec: FlowSpec = FlowSpec()):
    """Both sides of the growth formula for the vertical direction under the X-flow.

    lhs: norm of the variational transport of e3 by the time-t X-flow at x.
    rhs: exp of the integral of da/dx3 along the backward X-trajectory of x.
    Returns (lhs, rhs, relative error, resolved), where ``resolved`` is the
    integrator-load flag of the transport behind lhs (``TransportResult``).
    """
    x = np.asarray(x, dtype=float)
    res = pushforward_vector(frame, x, t, spec=spec, v=np.array([0.0, 0.0, 1.0]))
    lhs = float(np.linalg.norm(res.vector))

    # quadrature of da/dx3 along tau -> X-flow_{-tau}(x), via an augmented ODE
    def g(S):
        da_dx3 = frame.gradient_a(S[0, :3], h=DEFAULT_GRAD_H)[2]
        return np.concatenate([-frame.X(S[:, :3]), [[da_dx3]]], axis=1)

    out = flow(g, np.concatenate([x, [0.0]]), t, spec)
    rhs = float(np.exp(out[3]))
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return lhs, rhs, rel, res.resolved


@dataclass(frozen=True)
class PushforwardSeries:
    ks: tuple
    values: np.ndarray  # || (X^(k)-flow_t)_* Y^(k) - Y^(k) || at x0
    resolved: tuple  # per-k integrator-load flags

    def resolved_values(self):
        return [(k, float(v)) for k, v, r in zip(self.ks, self.values, self.resolved) if r]


def pushforward_convergence_series(
    phi: Diffeo,
    x0,
    k_list,
    t,
    spec: FlowSpec = FlowSpec(),
    E0=None,
    grad_h=DEFAULT_GRAD_H,
) -> PushforwardSeries:
    """Pushforward defect of the depth-k frames at x0, one entry per depth.

    Deep frames oscillate at the cocycle's compression scale, so entries are
    flagged unresolved once the variational load exceeds the explicit-step
    budget; asserting trends on unresolved entries would test the integrator,
    not the frames.
    """
    x0 = np.asarray(x0, dtype=float)
    half = FlowSpec(step=spec.step / 2)
    vals = []
    flags = []
    for k in k_list:
        frame = PullbackFrame(phi, k, E0=E0)
        res = pushforward_vector(frame, x0, t, spec=spec, grad_h=grad_h)
        chk = pushforward_vector(frame, x0, t, spec=half, grad_h=grad_h)
        v = float(np.linalg.norm(res.vector - frame.Y(x0)))
        v2 = float(np.linalg.norm(chk.vector - frame.Y(x0)))
        agree = abs(v - v2) <= max(0.25 * max(v, v2), 1e-9)
        vals.append(v)
        flags.append(bool(res.resolved and chk.resolved and agree))
    return PushforwardSeries(ks=tuple(k_list), values=np.array(vals), resolved=tuple(flags))
