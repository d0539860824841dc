"""Exception types shared across the toolkit.

Every failure raised by this package derives from ToolkitError, so callers
can distinguish our diagnostics from genuine bugs. The command line layer
maps these onto process exit codes.
"""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class ConfigError(ToolkitError):
    """Malformed experiment configuration.

    The message always names the offending field using dotted-path notation,
    for example ``simulation.x0``.
    """


class NumericalError(ToolkitError):
    """A numerical routine could not complete reliably."""


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted is singular to working precision."""


class RankDeficiencyError(NumericalError):
    """An input matrix does not have full column rank."""


class RiccatiConvergenceError(NumericalError):
    """The Riccati doubling iteration diverged or failed to converge.

    iterations is the doubling step at which it stopped; last_step is the
    last change of the iterate relative to its largest entry, when known.
    """

    def __init__(self, message, iterations=None, last_step=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_step = last_step


class FeasibilityError(ToolkitError):
    """A design-window precondition does not hold for the given inputs."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class TriggerUndefinedError(ToolkitError):
    """The event-trigger coefficient is undefined for this synthesis.

    report is the feasibility report of the synthesis that raised it, or
    None when the coefficient was asked for without one.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
