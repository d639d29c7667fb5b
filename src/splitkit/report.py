"""Deterministic CSV/JSON writers and run-report assembly.

Floats are rendered with repr (shortest round-trip form), reductions are
performed in input order, and wall-clock timings go to a plain-text sidecar
so the CSV/JSON deliverables are byte-identical across runs of the same
config.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import canonical_json_bytes


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows):
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_json(path, obj):
    Path(path).write_bytes(canonical_json_bytes(obj))


def jsonable(v):
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


class RunTimer:
    """Collects wall time per named block; written to a text sidecar only."""

    def __init__(self):
        self.blocks = []

    @contextmanager
    def time(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.blocks.append((name, time.perf_counter() - start))

    def write_sidecar(self, path):
        lines = [f"{name}\t{seconds:.6f}s" for name, seconds in self.blocks]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_report(command: str, config_hash: str | None, results: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "config_hash": config_hash,
        "results": jsonable(results),
    }
