"""Exception types shared across the toolkit, and its one integer check."""

import numpy as np


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
    """A covariance matrix failed the Cholesky test even after jitter, or a
    lag-0 block has a materially negative eigenvalue.

    Signals an invalid correlation model rather than a numerical hiccup.
    """


def check_integer(value, name: str) -> None:
    # a bool or a float would pass range checks and be cut to an int
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
