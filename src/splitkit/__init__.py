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
from .splitting import DominationReport, domination_report

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
