"""Deterministic CSV/JSON writers and run-report assembly.

Floats are rendered with repr (shortest round-trip form), reductions are
performed in input order, and wall-clock timings go to a plain-text sidecar
so the CSV/JSON deliverables are byte-identical across runs of the same
config. A report nests a command's results as it returns them, plain JSON
values (a numpy float64 is a float), with no coercion pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .config import canonical_json_bytes


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write(path, data: bytes):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(format_cell(v) for v in row) for row in rows]
    _write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_json(path, obj):
    _write(path, canonical_json_bytes(obj))


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
        _write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def run_report(command: str, config_hash: str | None, results: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "config_hash": config_hash,
        "results": results,
    }
