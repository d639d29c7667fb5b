"""Exception types shared across the package."""


class SplitkitError(Exception):
    """Base class for all library errors."""


class DegeneratePlaneError(SplitkitError):
    """Spanning pair is (numerically) linearly dependent."""


class ChartUnsuitableError(SplitkitError):
    """The plane is too close to containing the third coordinate axis.

    Raised when the graph coefficients (a, b) would blow up; permuting the
    chart coordinates is the standard remedy.
    """


class ChartExitError(SplitkitError):
    """A flow trajectory or patch left the local chart box.

    ``exit_time`` is the flow time of the first step that ended outside;
    ``row`` is the first row of a stacked flow that was outside then.
    """

    def __init__(self, message, exit_time=None, row=None):
        super().__init__(message)
        self.exit_time = exit_time
        self.row = row


class ConvergenceError(SplitkitError):
    """An iterative computation did not reach its tolerance."""


class ConfigError(SplitkitError):
    """Invalid experiment configuration or map specification."""
