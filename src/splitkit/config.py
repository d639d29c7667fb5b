"""Experiment configuration files.

A config is JSON with a canonical byte encoding (sorted keys, two-space
indent, trailing newline): loading a canonical file and re-serializing it
reproduces the bytes exactly, and the config hash is the SHA-256 of those
bytes.  Its ``map`` entry is the only map format.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import Diffeo, ShearPerturbation, ToralAutomorphism
from .errors import ConfigError
from .frames import constant_frame, contact_frame
from .geometry import Plane2


def canonical_json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _number_rows(value, key, width):
    """A list of lists of ``width`` numbers, as a tuple of float tuples."""
    try:
        rows = tuple(tuple(float(c) for c in v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} must be a list of {width}-number lists") from exc
    if any(len(r) != width for r in rows):
        raise ConfigError(f"each entry of config key {key!r} must have {width} coordinates")
    return rows


def write_canonical_json(path, obj):
    with open(path, "wb") as fh:
        fh.write(canonical_json_bytes(obj))


# the scalar fields: each config key is converted by the type of its field
# (annotations are strings under ``from __future__ import annotations``)
_SCALAR_TYPES = {"int": int, "float": float}


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment a config file describes; this class is its schema.

    Each field but ``raw`` is read from the config key named by its ``key``
    metadata, or else by the field's own name; ``raw`` is the loaded dict,
    whose canonical bytes the config hash covers.
    """

    map_spec: dict = field(metadata={"key": "map"})
    samples: tuple = ()
    random_samples: int = 0
    e0_basis: tuple | None = field(default=None, metadata={"key": "e0"})  # None = span(e1, e2)
    k_max: int = 20
    k_plane: int = 400
    k_line: int = 600
    epsilon: float = 0.05
    n: int = 21
    h: float = 1e-4
    step: float = 1e-3
    t: float = 0.05
    k_list: tuple = (2, 4, 6)
    slice_x2: float = 0.0
    grid_n: int = 8
    delta: float = 1e-4
    k_leaf: int = 12
    seed: int = 0
    synthetic_field: dict | None = None
    raw: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("a config must be a JSON object")
        schema = {f.metadata.get("key", f.name): f for f in fields(cls) if f.name != "raw"}
        unknown = set(d) - set(schema)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        m = d.get("map")
        if not isinstance(m, dict) or "matrix" not in m:
            raise ConfigError("config requires a 'map' object with at least a 'matrix'")
        kwargs = {}
        for key, f in schema.items():
            typ = _SCALAR_TYPES.get(f.type)
            if typ is not None and key in d:
                try:
                    kwargs[f.name] = typ(d[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"config key {key!r} must be a {typ.__name__}") from exc
        if "samples" in d:
            kwargs["samples"] = _number_rows(d["samples"], "samples", 3)
        if "k_list" in d:
            try:
                kwargs["k_list"] = tuple(int(k) for k in d["k_list"])
            except (TypeError, ValueError) as exc:
                raise ConfigError("config key 'k_list' must be a list of integers") from exc
        if "synthetic_field" in d and d["synthetic_field"] is not None:
            sf = d["synthetic_field"]
            if not isinstance(sf, dict) or sf.get("kind") not in ("contact", "constant"):
                raise ConfigError("synthetic_field.kind must be 'contact' or 'constant'")
            try:
                for c in ("a", "b"):
                    float(sf.get(c, 0.0))
            except (TypeError, ValueError) as exc:
                raise ConfigError("synthetic_field 'a' and 'b' must be numbers") from exc
            kwargs["synthetic_field"] = sf
        if "e0" in d and d["e0"] is not None:
            basis = d["e0"].get("basis") if isinstance(d["e0"], dict) else None
            if basis is None:
                raise ConfigError("e0 must be {'basis': [[...], [...]]} or omitted")
            kwargs["e0_basis"] = _number_rows(basis, "e0.basis", 3)
            if len(kwargs["e0_basis"]) != 2:
                raise ConfigError("e0.basis must hold exactly 2 vectors")
        cfg = cls(map_spec=m, raw=d, **kwargs)
        cfg.build_diffeo()  # validate the map spec eagerly
        if not cfg.samples and cfg.random_samples <= 0:
            raise ConfigError("config needs 'samples' or a positive 'random_samples'")
        for name in ("epsilon", "h", "step", "t", "delta"):
            if getattr(cfg, name) <= 0:
                raise ConfigError(f"config key {name!r} must be positive")
        for name in ("k_plane", "k_line", "k_leaf", "grid_n"):
            if getattr(cfg, name) < 1:
                raise ConfigError(f"config key {name!r} must be >= 1")
        if cfg.k_max < 2:
            raise ConfigError("config key 'k_max' must be >= 2: rates are fitted over depths")
        if cfg.n < 3 or cfg.n % 2 == 0:
            raise ConfigError("config key 'n' must be an odd integer >= 3 (grids are centered)")
        if not cfg.k_list:
            raise ConfigError("config key 'k_list' must list at least one depth")
        if any(k < 0 for k in cfg.k_list):
            raise ConfigError("config key 'k_list' entries must be >= 0")
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            d = json.loads(data.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(d)

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.raw)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def build_diffeo(self) -> Diffeo:
        specs = self.map_spec.get("shears", [])
        if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
            raise ConfigError("map 'shears' must be a list of shear objects")
        shears = []
        for s in specs:
            missing = {"axis", "center", "radius", "amplitude"} - set(s)
            if missing:
                raise ConfigError(f"shear spec missing keys: {sorted(missing)}")
            try:
                center = [float(c) for c in s["center"]]
                radius, amplitude = float(s["radius"]), float(s["amplitude"])
            except (TypeError, ValueError) as exc:
                raise ConfigError("shear center, radius and amplitude must be numbers") from exc
            if len(center) != 3:
                raise ConfigError("shear center must be a list of 3 numbers")
            shears.append(ShearPerturbation(s["axis"], center, radius, amplitude))
        try:
            auto = ToralAutomorphism(np.asarray(self.map_spec["matrix"]))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad map matrix: {exc}") from exc
        return Diffeo(tuple(shears) + (auto,))

    def build_synthetic_frame(self):
        if self.synthetic_field is None:
            return None
        if self.synthetic_field["kind"] == "contact":
            return contact_frame()
        return constant_frame(
            float(self.synthetic_field.get("a", 0.0)),
            float(self.synthetic_field.get("b", 0.0)),
        )

    def initial_plane(self):
        if self.e0_basis is None:
            return None
        return Plane2.spanned_by(np.array(self.e0_basis[0]), np.array(self.e0_basis[1]))

    def sample_points(self):
        pts = [np.array(p) for p in self.samples]
        if self.random_samples > 0:
            rng = np.random.default_rng(self.seed)
            pts.extend(rng.uniform(0.0, 1.0, size=(self.random_samples, 3)))
        return pts


def hash_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
