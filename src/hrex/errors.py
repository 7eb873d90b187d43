"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for errors raised by hrex."""


class InvalidDeltaSpec(ToolkitError):
    """The coefficient spec is malformed or internally inconsistent.

    Raised for schema violations (wrong ranges, zero at positive lag) and
    for coefficient sets whose induced Gaussian covariance is not positive
    semidefinite.
    """


class DegenerateDelta(ToolkitError):
    """A zero dependence coefficient appeared where a positive one is required."""


class NotPositiveSemidefinite(ToolkitError):
    """A covariance matrix failed the Cholesky test even after jitter.

    Signals an invalid correlation model rather than a numerical hiccup.
    """
