"""Seeded workload configs for the splitkit benchmark, and their output checks.

Each workload runs one CLI subcommand on a config generated from the
workload seed.  The config is derived from a shipped config in ``configs/``
(its map and parameters), with seeded sample points and, where a single run
would not fit the benchmark's run length, smaller depths.  The program only
ever sees the generated config file.

Checks compare the deliverables with oracles that come from the matrix's own
eigenvalues, not from earlier runs of the program.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LATTICE = 8  # sample points of the perturbed map are binary-exact x = v / 8
RATE_RTOL = 1e-3


def canonical_json_bytes(obj) -> bytes:
    """The config encoding splitkit documents: sorted keys, indent 2, newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def eigen_rates(matrix):
    """Per-step (dyn, vol, bunch) ratios of the linear cocycle.

    With |l_s| < |l_c| < |l_u| the moduli of the eigenvalues, the slow plane
    is E = (s, c) and the fast line F = u, so the three domination ratios are
    c/u, s*c/u and c^2/u.
    """
    s, c, u = sorted(abs(np.linalg.eigvals(np.asarray(matrix, dtype=float))))
    return {"dyn": c / u, "vol": s * c / u, "bunch": c * c / u}


def _in_shear_support(x, shear):
    axes = [i for i in range(3) if i != shear["axis"]]
    d = [((x[i] - shear["center"][i] + 0.5) % 1.0) - 0.5 for i in axes]
    return math.hypot(d[0], d[1]) < shear["radius"]


def support_avoiding_periodic_points(map_spec):
    """Points of the 1/8-lattice whose whole automorphism cycle avoids every shear.

    The automorphism permutes the lattice, so every lattice point is periodic
    under it; on a cycle that never enters a shear's support the perturbed map
    equals the automorphism, so the point is periodic for the perturbed map
    too and its orbit is exact in binary floating point.
    """
    A = map_spec["matrix"]
    shears = map_spec.get("shears", [])

    def step(v):
        return tuple(sum(A[i][j] * v[j] for j in range(3)) % LATTICE for i in range(3))

    pool = []
    for v in itertools.product(range(LATTICE), repeat=3):
        cycle = [v]
        w = step(v)
        while w != v:
            cycle.append(w)
            w = step(w)
        if not any(
            _in_shear_support([c / LATTICE for c in p], s) for p in cycle for s in shears
        ):
            pool.append([c / LATTICE for c in v])
    return pool


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # splitkit subcommand
    base: str  # shipped config the parameters come from
    overrides: dict  # parameters changed from the shipped config
    n_samples: int

    def config(self, root: Path, seed: int) -> dict:
        """The config of this workload for one seed."""
        with open(root / "configs" / self.base, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg.update(self.overrides)
        rng = random.Random(seed)
        if "shears" in cfg["map"]:
            pool = support_avoiding_periodic_points(cfg["map"])
            cfg["samples"] = rng.sample(pool, self.n_samples)
        else:
            cfg["samples"] = [[rng.random() for _ in range(3)] for _ in range(self.n_samples)]
        if self.command == "uniqueness":
            cfg["slice_x2"] = rng.randrange(LATTICE) / LATTICE
        cfg["seed"] = seed
        return cfg

    def deliverables(self):
        return DELIVERABLES[self.command]

    def check(self, out: Path, cfg: dict, config_hash: str) -> list:
        """Problems found in one run's deliverables; empty when correct."""
        problems = []
        missing = [f for f in self.deliverables() if not (out / f).is_file()]
        if missing:
            return [f"missing deliverables: {missing}"]
        try:
            report = json.loads((out / f"{self.command}.json").read_text(encoding="utf-8"))
            tables = {
                f: _read_csv(out / f) for f in self.deliverables() if f.endswith(".csv")
            }
        except (ValueError, OSError) as exc:
            return [f"deliverable does not parse: {exc}"]
        if not isinstance(report, dict):
            return [f"{self.command}.json is not an object"]
        if report.get("config_hash") != config_hash:
            problems.append("report config_hash differs from the config file's hash")
        if report.get("command") != self.command:
            problems.append(f"report command is {report.get('command')!r}")
        results = report.get("results", {})
        problems += CHECKS[self.command](results, tables, cfg)
        return problems


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    header, body = rows[0], rows[1:]
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"{path.name}: row width {len(row)} != header {len(header)}")
    return header, body


def _close(value, expected, rtol=RATE_RTOL):
    return isinstance(value, (int, float)) and abs(value - expected) <= rtol * abs(expected)


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def _rows(problems, tables, name, expected):
    n = len(tables[name][1])
    if n != expected:
        problems.append(f"{name}: {n} rows, config implies {expected}")


def _check_splitting(results, tables, cfg):
    problems = []
    samples = results.get("samples", [])
    if len(samples) != len(cfg["samples"]) or results.get("excluded"):
        problems.append(f"{len(samples)} of {len(cfg['samples'])} samples converged")
    _rows(problems, tables, "splitting.csv", len(cfg["samples"]) * cfg["k_max"])
    verdicts = results.get("verdicts", {})
    expected = {
        "dynamically_dominated": True,
        "volume_dominated": True,
        "bunching_fails": True,
    }
    if verdicts != expected:
        problems.append(f"verdicts {verdicts} != {expected}")
    rates = eigen_rates(cfg["map"]["matrix"])
    for d in samples:
        for key, want in rates.items():
            if not _close(d.get(f"rate_{key}"), want):
                problems.append(f"sample {d.get('point')}: rate_{key} {d.get(f'rate_{key}')} != {want:.5f}")
    return problems


def _check_bracket(results, tables, cfg):
    problems = []
    samples = results.get("samples", [])
    if len(samples) != len(cfg["samples"]):
        problems.append(f"{len(samples)} bracket summaries for {len(cfg['samples'])} samples")
    _rows(problems, tables, "bracket.csv", len(cfg["samples"]) * cfg["k_max"])
    vol = eigen_rates(cfg["map"]["matrix"])["vol"]
    for s in samples:
        if not _close(s.get("rate_rhs"), vol):
            problems.append(f"sample {s.get('point')}: rate_rhs {s.get('rate_rhs')} != {vol:.5f}")
        for key in ("limit_bracket_norm", "invariance_residual"):
            if not _finite(s.get(key)):
                problems.append(f"sample {s.get('point')}: {key} is {s.get(key)!r}")
    return problems


def _check_surface(results, tables, cfg):
    problems = []
    n = cfg["n"]
    _rows(problems, tables, "surface.csv", n * n)
    _rows(problems, tables, "coefficients.csv", len(cfg["k_list"]) * min(n, 9) ** 2)
    # Central-difference tangents of the patch are exact up to roundoff where
    # the frame is constant (neighbourhoods whose first k images avoid the
    # shear) and second order in the grid spacing elsewhere: that is the bound.
    spacing = 2 * cfg["epsilon"] / (n - 1)
    per_k = results.get("tangency_per_k", [])
    if [e.get("k") for e in per_k] != cfg["k_list"]:
        problems.append(f"tangency depths {[e.get('k') for e in per_k]} != {cfg['k_list']}")
    for e in per_k:
        angle = e.get("max_angle_to_own_plane")
        if not (_finite(angle) and angle <= spacing**2):
            problems.append(f"k={e.get('k')}: max_angle_to_own_plane {angle!r} above {spacing**2:.3g}")
    # pushforward_identity and pushforward_series values are not validated by
    # the program itself yet, so only their presence is checked here
    if len(results.get("pushforward_series", [])) != len(cfg["k_list"]):
        problems.append("pushforward_series length differs from k_list")
    if "pushforward_identity" not in results:
        problems.append("pushforward_identity missing")
    return problems


def _check_uniqueness(results, tables, cfg):
    problems = []
    hart = results.get("hartman", {})
    if hart.get("bounded") is not True:
        problems.append(f"hartman.bounded is {hart.get('bounded')!r}")
    if len(hart.get("distances", [])) != cfg["k_max"]:
        problems.append("hartman distances length differs from k_max")
    leaf = results.get("leaf", {})
    for key in ("order_mismatch", "lipschitz", "lipschitz_refined", "stability"):
        if not _finite(leaf.get(key)):
            problems.append(f"leaf.{key} is {leaf.get(key)!r}")
    return problems


DELIVERABLES = {
    "splitting": ("splitting.csv", "splitting.json"),
    "bracket": ("bracket.csv", "bracket.json"),
    "surface": ("surface.csv", "coefficients.csv", "surface.json"),
    "uniqueness": ("uniqueness.json",),
}

CHECKS = {
    "splitting": _check_splitting,
    "bracket": _check_bracket,
    "surface": _check_surface,
    "uniqueness": _check_uniqueness,
}


def deliverable_digest(out: Path, names) -> str:
    """One hash over the deliverables' bytes (timings.txt is not a deliverable)."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return h.hexdigest()


# Sizes are chosen so one CLI call takes one to two seconds and a run of the
# benchmark holds many calls; every other parameter is the shipped one.
WORKLOADS = {
    w.name: w
    for w in (
        # cocycle sweeps on the cheapest map: no frames cache, no finite
        # differences, no flows
        Workload("splitting-linear", "splitting", "linear.json", {}, 4),
        # finite-difference stencils of deep pullback frames; the frames
        # cache nearly always misses
        Workload("bracket-deep", "bracket", "perturbed.json", {"k_plane": 200, "k_line": 300, "k_max": 10}, 1),
        # flows and variational transport; the frames cache is reused, the
        # opposite of bracket-deep
        Workload(
            "surface-transport",
            "surface",
            "perturbed.json",
            {"k_plane": 20, "t": 0.005, "k_list": [1, 2], "n": 5, "epsilon": 0.015},
            1,
        ),
        # patch integration for the leaf comparison plus the Hartman slice grid
        Workload(
            "uniqueness-leaf",
            "uniqueness",
            "perturbed.json",
            {"k_leaf": 4, "n": 5, "epsilon": 0.015, "k_max": 6, "grid_n": 4},
            1,
        ),
    )
}
