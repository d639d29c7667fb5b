"""splitkit: dominated splittings, bracket decay, and integral-surface
diagnostics for diffeomorphisms of the 3-torus."""

__version__ = "0.1.0"

from .dynamics import PAPER_MATRIX, Diffeo, ShearPerturbation, ToralAutomorphism
from .errors import (
    ChartExitError,
    ChartUnsuitableError,
    ConfigError,
    ConvergenceError,
    DegeneratePlaneError,
    SplitkitError,
)
from .geometry import (
    Line1,
    Plane2,
    exterior_square,
    principal_angle,
    wrap_point,
)

__all__ = [
    "__version__",
    "PAPER_MATRIX",
    "Diffeo",
    "ShearPerturbation",
    "ToralAutomorphism",
    "ChartExitError",
    "ChartUnsuitableError",
    "ConfigError",
    "ConvergenceError",
    "DegeneratePlaneError",
    "SplitkitError",
    "Line1",
    "Plane2",
    "exterior_square",
    "principal_angle",
    "wrap_point",
    "DominationReport",
    "domination_report",
]


def __getattr__(name):  # the report names load ``splitting`` on first use, not with the package
    if name not in ("DominationReport", "domination_report"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import splitting
    return getattr(splitting, name)
