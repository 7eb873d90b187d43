"""Simulation and verification toolkit for extreme-value limits of
stationary multivariate Gaussian triangular arrays.

The package covers the pipeline end to end: Gumbel norming constants,
correlation models parametrised by log-scaled dependence coefficients,
exact Gaussian path samplers, Monte Carlo estimation of the extremal
coefficients that shape the limit law, and experiment drivers that
compare empirical maxima against the limit CDF.  Each name is imported
from the module that defines it; the package root holds only __version__.
"""

__version__ = "0.1.0"
