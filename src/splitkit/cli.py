"""Command-line front end: experiment orchestration and report files.

Subcommands mirror the library modules; each writes CSV series and a JSON
summary (byte-identical across runs of the same config) plus a timing
sidecar.  A subcommand imports the layers above ``dynamics`` that it runs
(``splitting``, ``frames``, ``bracket``, ``surface``, ``uniqueness``) when
it is called, so a process loads only its own.  Exit codes: 0 success, 2
configuration/validation error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, canonical_json_bytes
from .dynamics import PAPER_MATRIX, Diffeo, orbit_support_report
from .errors import ConfigError, ConvergenceError, SplitkitError
from .report import RunTimer, run_report, write_csv, write_json

# Two-decimal eigenvalue tuple quoted alongside the built-in example matrix.
# The computed spectrum of PAPER_MATRIX is (-0.1001, -3.1110, +3.2111); the
# reports carry both so the discrepancy is visible, not silently corrected.
QUOTED_EIGENVALUES = (-0.11, 3.11, -3.21)

# Largest node count per side of the leaf-patch grid (`uniqueness`) and of
# the `coefficients.csv` grid (`surface`); the reports record the count used.
GRID_CAP = 9


def _slow_plane_normal(matrix):
    """Unit normal of the automorphism's slow plane: the real left
    eigenvector of its eigenvalue of largest modulus, which annihilates the
    other two eigenvectors. That eigenvalue must be real and simple in
    modulus, or the matrix has no slow plane to guard."""
    w, V = np.linalg.eig(np.asarray(matrix, dtype=float).T)
    mod = np.abs(w)
    top = mod.argmax()
    if w[top].imag != 0.0 or np.sort(mod)[-2] >= (1.0 - 1e-9) * mod[top]:
        raise ConfigError(
            "the automorphism's eigenvalue of largest modulus is not real and simple in "
            "modulus, so there is no slow plane for the shear-amplitude guard"
        )
    n = V[:, top].real
    return n / np.linalg.norm(n)


def _amplitude_guard(phi: Diffeo, cfg: ExperimentConfig):
    """Refuse shear amplitudes that break one-step plane-cone invariance.

    The linear slow plane E (normal n, from ``_slow_plane_normal``) must
    stay within a cone under one pullback step. As A^-1 E = E, a shear pulls
    E back to (I - e_axis grad(g)^T) E, of normal n + n_axis grad(g), with
    grad(g) in the disc of radius |amplitude| (2 pi / R) 3 sqrt(3) / 16
    (cos^3 z sin z is largest at z = pi/6). The angle from n grows along
    each ray of the disc and is 1-Lipschitz in grad(g): its supremum is at
    most its maximum on a rim grid plus the grid's half spacing. Several
    shears give a product bound: each tilt is distorted by at most sigma_1^3
    of every shear before it.
    """
    shears = phi.shear_stages()
    if not shears:
        return
    n = _slow_plane_normal(cfg.map_spec["matrix"])
    aperture = 0.5  # radians; generous cone half-width around the linear plane
    nodes = 16384  # gradient directions on the rim of each disc
    rim = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    bound, distortion = 0.0, 1.0
    for shear in shears:
        G = abs(shear.amplitude) * (2.0 * np.pi / shear.radius) * 3.0 * np.sqrt(3.0) / 16.0
        m = np.tile(n, (nodes, 1))
        m[:, shear.plane_axes] += n[shear.axis] * G * np.column_stack([np.cos(rim), np.sin(rim)])
        angles = np.arctan2(np.linalg.norm(np.cross(n, m), axis=1), m @ n)
        tilt = min(angles.max() + G * np.pi / nodes, np.pi / 2)
        bound += np.arcsin(min(1.0, distortion * np.sin(tilt)))
        distortion *= ((G + np.sqrt(G * G + 4.0)) / 2.0) ** 3
    bound = min(bound, np.pi / 2)
    if bound > aperture:
        raise ConfigError(
            f"shear amplitude too large: one-step pullback tilts the reference plane by up to "
            f"{bound:.3f} rad (an upper bound; the cone is {aperture} rad); reduce the amplitude"
        )


def _require_converged(rep):
    """Raise ConvergenceError when a domination report kept no sample."""
    if not rep.samples:
        raise ConvergenceError(
            "no sample reached the invariance residual tolerance; "
            "increase k_plane/k_line or choose samples on support-avoiding orbits"
        )


def _verdicts(rep) -> dict:
    """A domination report's verdicts, under their report keys."""
    return {
        "dynamically_dominated": rep.verdict_dyn,
        "volume_dominated": rep.verdict_vol,
        "bunching_fails": rep.verdict_bunch_fails,
    }


def cmd_paper_example(out_dir: Path | None) -> dict:
    """One-shot report on the built-in example matrix: the splitting pass at
    x = 0, with its k = 1 ratios, fitted rates and verdicts."""
    from .splitting import domination_report

    A = PAPER_MATRIX
    phi = Diffeo.from_matrix(A)
    eig = np.linalg.eigvals(A.astype(float)).real
    eig_by_mag = eig[np.argsort(np.abs(eig))]

    rep = domination_report(phi, [[0.0, 0.0, 0.0]], 80, k_plane=500, k_line=800)
    _require_converged(rep)
    (d,) = rep.samples
    _, *ratios_1 = d.table_rows()[0]
    verdicts = _verdicts(rep)
    quoted_match = [
        bool(np.min(np.abs(eig_by_mag - q)) <= 0.005) for q in QUOTED_EIGENVALUES
    ]
    results = {
        "matrix": A.tolist(),
        "det": phi.stages[0].det,
        "trace": int(np.trace(A)),
        "eigenvalues_by_magnitude": [float(v) for v in eig_by_mag],
        "quoted_eigenvalues": list(QUOTED_EIGENVALUES),
        "quoted_eigenvalues_match": quoted_match,
        "flat_metric_k1": dict(zip(("dyn_ratio_1", "vol_ratio_1", "bunch_ratio_1"), ratios_1)),
        "per_step_rates": {"dyn": d.rate_dyn, "vol": d.rate_vol, "bunch": d.rate_bunch},
        "verdicts": verdicts,
        "volume_dominated_but_not_bunched": bool(
            verdicts["volume_dominated"] and verdicts["bunching_fails"]
        ),
    }
    rep = run_report("paper-example", None, results)
    if out_dir is not None:
        write_json(out_dir / "paper_example.json", rep)
    return rep


def cmd_splitting(cfg: ExperimentConfig, phi: Diffeo, out_dir: Path, timer: RunTimer) -> dict:
    from .splitting import domination_report

    pts = cfg.sample_points()
    with timer.time("splitting"):
        rep = domination_report(
            phi,
            pts,
            cfg.k_max,
            E0=cfg.initial_plane(),
            k_plane=cfg.k_plane,
            k_line=cfg.k_line,
        )
    _require_converged(rep)
    rows = []
    for d in rep.samples:
        x1, x2, x3 = (float(c) for c in d.point)
        for k, dyn, vol, bunch in d.table_rows():
            rows.append((x1, x2, x3, k, dyn, vol, bunch, d.residual))
    write_csv(
        out_dir / "splitting.csv",
        ["x1", "x2", "x3", "k", "dyn_ratio", "vol_ratio", "bunch_ratio", "angle_residual"],
        rows,
    )
    return {
        "verdicts": _verdicts(rep),
        "samples": [
            {
                "point": list(d.point),
                "k_used": cfg.k_plane,
                "residual": d.residual,
                "k0_dyn": d.k0_dyn,
                "k0_vol": d.k0_vol,
                "k0_bunch": d.k0_bunch,
                "rate_dyn": d.rate_dyn,
                "rate_vol": d.rate_vol,
                "rate_bunch": d.rate_bunch,
                "volume_identity_max_abs": d.volume_identity_max_abs,
            }
            for d in rep.samples
        ],
        "excluded": [{"point": list(p), "residual": r} for p, r in rep.excluded],
        "orbit_support": orbit_support_report(phi, np.array(pts).reshape(-1, 3), cfg.k_max),
    }


def cmd_bracket(cfg: ExperimentConfig, phi: Diffeo, out_dir: Path, timer: RunTimer) -> dict:
    from .bracket import bound_curves, bracket_samples

    pts = cfg.sample_points()
    rows = []
    summaries = []
    synthetic = cfg.build_synthetic_frame()
    if synthetic is not None:
        X = np.array(pts, dtype=float)
        for x, bs in zip(X, bracket_samples([synthetic] * len(X), X, [cfg.h] * len(X))):
            rows.append((*x.tolist(), 0, cfg.h, bs.c, bs.norm, "", ""))
    with timer.time("bracket"):
        curves = bound_curves(
            phi,
            pts,
            cfg.k_max,
            h=cfg.h,
            E0=cfg.initial_plane(),
            k_plane=cfg.k_plane,
            k_line=cfg.k_line,
        )
        for curve in curves:
            x1, x2, x3 = (float(c) for c in curve.point)
            for k, h, c, lhs, rhs, quot in curve.rows():
                rows.append((x1, x2, x3, k, h, c, lhs, rhs, quot))
            rm = curve.running_max()
            summaries.append(
                {
                    "point": list(curve.point),
                    "limit_bracket_norm": curve.limit_lhs,
                    "limit_bracket_error": curve.limit_lhs_error,
                    "limit_bracket_resolved": curve.limit_resolved,
                    "rate_rhs": curve.rate_rhs,
                    "resolved_depths": [k for k, _ in curve.resolved_quotients()],
                    "quotient_running_max": rm[-1] if rm else 0.0,
                    "invariance_residual": curve.invariance_residual,
                }
            )
    write_csv(
        out_dir / "bracket.csv",
        ["x1", "x2", "x3", "k", "h", "c", "lhs", "rhs", "quotient"],
        rows,
    )
    return {"samples": summaries}


def cmd_surface(cfg: ExperimentConfig, phi: Diffeo, out_dir: Path, timer: RunTimer) -> dict:
    from .frames import PullbackFrame, coefficient_grid_rows
    from .surface import build_patches, pushforward_convergence_series, tangency_report

    x0 = cfg.sample_points()[0]
    E0 = cfg.initial_plane()
    limit_frame = PullbackFrame(phi, cfg.k_plane, E0=E0)

    frames = [(k, PullbackFrame(phi, k, E0=E0)) for k in cfg.k_list]
    per_k = []
    with timer.time("surface"):
        # the patches of all depths, as one stack
        patches = build_patches(
            [frame for _, frame in frames],
            [x0] * len(frames),
            ["xy"] * len(frames),
            cfg.epsilon,
            cfg.n,
            cfg.step,
            names=[f"k={k}" for k in cfg.k_list],
        )
        for (k, frame), patch in zip(frames, patches):
            rep = tangency_report(patch, frame, limit_frame)
            per_k.append(
                {
                    "k": k,
                    "max_angle_to_own_plane": rep.max_angle,
                    "mean_angle_to_own_plane": rep.mean_angle,
                    "max_angle_to_limit": rep.max_angle_limit,
                    "mean_angle_to_limit": rep.mean_angle_limit,
                    "max_dWdt_defect": rep.max_dWdt_defect,
                    "max_tangent_norm": rep.max_tangent_norm,
                }
            )
        series = pushforward_convergence_series(frames, x0, cfg.t, cfg.step)
    # the last depth's patch, with its tangency angles (0 on the border)
    angles = np.pad(rep.angles, 1)
    rows = [
        (float(patch.ts[i]), float(patch.ss[j]), *patch.points[i, j].tolist(), float(angles[i, j]))
        for i in range(patch.n)
        for j in range(patch.n)
    ]
    write_csv(out_dir / "surface.csv", ["t", "s", "x1", "x2", "x3", "defect_angle"], rows)
    grid_n = min(cfg.n, GRID_CAP)
    grid_rows = coefficient_grid_rows(
        frames, x0 - cfg.epsilon, x0 + cfg.epsilon, grid_n, x3=float(x0[2])
    )
    write_csv(out_dir / "coefficients.csv", ["x1", "x2", "x3", "k", "a", "b"], grid_rows)
    return {
        "coefficient_grid_n": grid_n,
        "tangency_per_k": per_k,
        "pushforward_identity": [
            {"k": int(k), "lhs": lhs, "rhs": rhs, "rel_err": rel, "resolved": r}
            for k, (lhs, rhs, rel, r) in zip(series.ks, series.growth_identity)
        ],
        "pushforward_series": [
            {"k": int(k), "value": v, "resolved": bool(r)}
            for k, v, r in zip(series.ks, series.values, series.resolved)
        ],
    }


def cmd_uniqueness(cfg: ExperimentConfig, phi: Diffeo, out_dir: Path, timer: RunTimer) -> dict:
    from .frames import PullbackFrame
    from .uniqueness import hartman_slice_report, leaf_divergence

    x0 = cfg.sample_points()[0]
    E0 = cfg.initial_plane()
    leaf_n = min(cfg.n, GRID_CAP)
    with timer.time("uniqueness"):
        # the slow plane converges at the (possibly mild) domination gap, so
        # the reference frame must sit far beyond the reported depths
        frames = [PullbackFrame(phi, k, E0=E0) for k in range(1, cfg.k_max + 1)]
        limit = PullbackFrame(phi, max(200, 2 * cfg.k_max), E0=E0)
        hart = hartman_slice_report(frames, limit, cfg.slice_x2, grid_n=cfg.grid_n, h=cfg.h)
        frame = PullbackFrame(phi, cfg.k_leaf, E0=E0)
        leaf = leaf_divergence(frame, x0, cfg.epsilon, leaf_n, cfg.delta, cfg.step)
    return {
        "hartman": {
            "bounded": hart.bounded,
            "sup_series": list(hart.sup_da_dx3),
            "distances": list(hart.sup_distance),
            "distances_decreasing": hart.distances_decreasing,
            "slice_x2": hart.slice_x2,
        },
        "leaf": {
            "n": leaf_n,
            "order_mismatch": leaf.order_mismatch,
            "lipschitz": leaf.lipschitz,
            "lipschitz_refined": leaf.lipschitz_refined,
            "stability": leaf.stability,
        },
    }


def _commands() -> dict:
    """The subcommands that run a config, by name.

    Each takes (cfg, phi, out_dir, timer), writes its CSV files and returns
    its results; ``main`` builds and guards the map and writes the report.
    The table is built when called, so that a rebound ``cmd_*`` (perfbench's
    tracer wraps them) is the one that runs.
    """
    return {
        "splitting": cmd_splitting,
        "bracket": cmd_bracket,
        "surface": cmd_surface,
        "uniqueness": cmd_uniqueness,
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splitkit",
        description="dominated-splitting and integrability diagnostics on the 3-torus",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("paper-example", help="report on the built-in example matrix")
    pe.add_argument("--out", type=Path, default=None, help="directory for the JSON report")

    for name in _commands():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, required=True)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return ap


def main(argv=None) -> int:
    gc.freeze()  # what import made lives as long as the process: no collection scans it
    args = build_parser().parse_args(argv)
    try:
        if args.command == "paper-example":
            sys.stdout.write(_dump_json(cmd_paper_example(args.out)))
            return 0

        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg = ExperimentConfig.from_dict({**cfg.raw, "seed": args.seed})
        phi = cfg.build_diffeo()
        _amplitude_guard(phi, cfg)
        timer = RunTimer()
        results = _commands()[args.command](cfg, phi, args.out, timer)
        rep = run_report(args.command, cfg.config_hash(), results)
        write_json(args.out / f"{args.command}.json", rep)
        timer.write_sidecar(args.out / "timings.txt")
        sys.stdout.write(_dump_json(rep))
        return 0
    except ConvergenceError as exc:
        print(f"splitkit: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, SplitkitError, OSError) as exc:
        print(f"splitkit: {exc}", file=sys.stderr)
        return 2


def _dump_json(obj) -> str:
    return canonical_json_bytes(obj).decode("utf-8")


if __name__ == "__main__":
    sys.exit(main())
