"""Nonlocal diffusion flows with merely-measurable elliptic kernels.

Periodic-torus discretizations of the linear flow w_t = L_K w and its
variational (nonlinear) cousin, plus the diagnostic machinery used to probe
their regularity numerically: truncated-energy ladders, level-set measure
dichotomies, difference-quotient linearization, and oscillation-decay fits.
"""

# the one version string: `nlflow --version` and every report read it
__version__ = "0.1.0"

__all__ = ["__version__"]
