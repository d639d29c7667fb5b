"""Experiment configuration files.

A config is JSON with a canonical byte encoding (sorted keys, two-space
indent, trailing newline): loading a canonical file and re-serializing it
reproduces the bytes exactly, and the config hash is the SHA-256 of those
bytes.  Its ``map`` entry is the only map format.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .dynamics import Diffeo, ShearPerturbation, ToralAutomorphism
from .errors import ConfigError, DegeneratePlaneError
from .geometry import Plane2, _record

try:  # CPython's builtin digest: ``hashlib`` loads OpenSSL, about 2.5 ms per process
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256


def canonical_json_bytes(obj) -> bytes:
    """Canonical bytes of a JSON value; NaN and infinities raise ValueError,
    as they have no JSON form."""
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def _is_number(value):
    """A JSON number: an int or a float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_rows(value, key, width):
    """A list of lists of ``width`` numbers, as a tuple of float tuples; the
    numbers follow ``_number``'s type rule."""
    try:
        if not all(_is_number(c) for v in value for c in v):
            raise TypeError
        rows = tuple(tuple(float(c) for c in v) for v in value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} must be a list of {width}-number lists") from exc
    if any(len(r) != width for r in rows):
        raise ConfigError(f"each entry of config key {key!r} must have {width} coordinates")
    if not all(math.isfinite(c) for r in rows for c in r):
        raise ConfigError(f"config key {key!r} must hold finite numbers, got {value!r}")
    return rows


def _number(value, key, typ):
    """A config number of type ``typ``: any finite JSON number but a boolean
    (``json`` reads NaN, Infinity and integers beyond the float range), and
    for an int one with no fractional part (20.0 reads as 20)."""
    if not _is_number(value):
        raise ConfigError(f"config key {key!r} must be a {typ.__name__}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    if typ is int and not float(value).is_integer():
        raise ConfigError(f"config key {key!r} must be a int, got {value!r}")
    return typ(value)


def _known_keys(obj, name, keys):
    """Reject the keys of a nested config object that ``keys`` does not list."""
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in config object {name!r}: {sorted(unknown)}")


_SHEAR_KEYS = ("axis", "center", "radius", "amplitude")


# the scalar fields: each config key is read as a number of its field's type
# (annotations are strings under ``from __future__ import annotations``)
_SCALAR_TYPES = {"int": int, "float": float}


@_record
class ExperimentConfig:
    """The experiment a config file describes; this class is its schema.

    Each field but ``raw`` is read from the config key that ``_KEYS`` names
    for it, or else by the field's own name; ``raw`` is the loaded dict,
    whose canonical bytes the config hash covers.
    """

    _KEYS = {"map_spec": "map", "e0_basis": "e0"}
    map_spec: dict
    samples: tuple = ()
    random_samples: int = 0
    e0_basis: tuple | None = None  # None = span(e1, e2)
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
    raw: dict

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("a config must be a JSON object")
        schema = {cls._KEYS.get(n, n): (n, typ) for n, typ in cls.__annotations__.items() if n != "raw"}
        unknown = set(d) - set(schema)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        m = d.get("map")
        if not isinstance(m, dict) or "matrix" not in m:
            raise ConfigError("config requires a 'map' object with at least a 'matrix'")
        _known_keys(m, "map", ("matrix", "shears"))
        kwargs = {}
        for key, (name, typ) in schema.items():
            if typ in _SCALAR_TYPES and key in d:
                kwargs[name] = _number(d[key], key, _SCALAR_TYPES[typ])
        if "samples" in d:
            kwargs["samples"] = _number_rows(d["samples"], "samples", 3)
        if "k_list" in d:
            if not isinstance(d["k_list"], list):
                raise ConfigError("config key 'k_list' must be a list of integers")
            kwargs["k_list"] = tuple(_number(k, "k_list", int) for k in d["k_list"])
        if "synthetic_field" in d and d["synthetic_field"] is not None:
            sf = d["synthetic_field"]
            if not isinstance(sf, dict) or sf.get("kind") not in ("contact", "constant"):
                raise ConfigError("synthetic_field.kind must be 'contact' or 'constant'")
            _known_keys(sf, "synthetic_field", ("kind", "a", "b"))
            for c in ("a", "b"):
                _number(sf.get(c, 0.0), f"synthetic_field.{c}", float)
            kwargs["synthetic_field"] = sf
        if "e0" in d and d["e0"] is not None:
            basis = d["e0"].get("basis") if isinstance(d["e0"], dict) else None
            if basis is None:
                raise ConfigError("e0 must be {'basis': [[...], [...]]} or omitted")
            _known_keys(d["e0"], "e0", ("basis",))
            kwargs["e0_basis"] = _number_rows(basis, "e0.basis", 3)
            if len(kwargs["e0_basis"]) != 2:
                raise ConfigError("e0.basis must hold exactly 2 vectors")
        cfg = cls(map_spec=m, raw=d, **kwargs)
        cfg.build_diffeo()  # validate the map spec eagerly
        try:
            cfg.initial_plane()  # the span of e0.basis, by Plane2's Gram rule
        except DegeneratePlaneError as exc:
            raise ConfigError(f"config key 'e0.basis' must span a plane: {exc}") from exc
        if cfg.random_samples < 0:
            raise ConfigError("config key 'random_samples' must be >= 0")
        if cfg.random_samples > 0 and cfg.seed < 0:
            raise ConfigError("config key 'seed' must be >= 0 to draw 'random_samples'")
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
        return sha256(self.canonical_bytes()).hexdigest()

    def build_diffeo(self) -> Diffeo:
        specs = self.map_spec.get("shears", [])
        if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
            raise ConfigError("map 'shears' must be a list of shear objects")
        shears = []
        for i, s in enumerate(specs):
            name = f"map.shears[{i}]"
            _known_keys(s, name, _SHEAR_KEYS)
            missing = set(_SHEAR_KEYS) - set(s)
            if missing:
                raise ConfigError(f"shear spec missing keys: {sorted(missing)}")
            axis = _number(s["axis"], f"{name}.axis", int)
            (center,) = _number_rows([s["center"]], f"{name}.center", 3)
            radius, amplitude = (_number(s[key], f"{name}.{key}", float) for key in ("radius", "amplitude"))
            shears.append(ShearPerturbation(axis, center, radius, amplitude))
        matrix = _number_rows(self.map_spec["matrix"], "map.matrix", 3)
        try:
            auto = ToralAutomorphism(np.asarray(matrix))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad map matrix: {exc}") from exc
        return Diffeo(tuple(shears) + (auto,))

    def build_synthetic_frame(self):
        from .frames import constant_frame, contact_frame

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
        return sha256(fh.read()).hexdigest()
