"""Nonlocal diffusion flows with merely-measurable elliptic kernels.

Periodic-torus discretizations of the linear flow w_t = L_K w and its
variational (nonlinear) cousin, plus the diagnostic machinery used to probe
their regularity numerically: truncated-energy ladders, level-set measure
dichotomies, difference-quotient linearization, and oscillation-decay fits.
"""

# the one version string: `nlflow --version` and every report read it
__version__ = "0.1.0"

from .calibrate import CalibrationConstants, calibrate_constants, \
    default_calibration, load_calibration, save_calibration
from .config import ExperimentConfig, parse_config
from .degiorgi import BarrierFamily, barrier_on_grid, check_recurrence, \
    chebyshev_chain, eval_barrier, level_set_measures, truncated_energies, \
    verify_corollary1, verify_corollary2, verify_lemma1, verify_lemma2
from .errors import NlflowError
from .fieldio import load_field, save_field
from .fields import make_initial
from .flow import FlowProblem, Trajectory, linear_energy, nonlinear_energy, \
    run_flow, stable_dt
from .grid import DiscreteOperator, Field, Grid
from .kernels import Kernel, KernelSpec, make_kernel, validate_kernel
from .oscillation import DerivedKernel, difference_quotient, \
    oscillation_decay, parabolic_rescale, rescaling_sequence, \
    scan_derived_envelope, verify_lemma3, verify_linearization
from .potentials import Potential, PotentialSpec, make_potential, \
    validate_potential

__all__ = [
    "BarrierFamily", "CalibrationConstants", "DerivedKernel",
    "DiscreteOperator", "ExperimentConfig", "Field", "FlowProblem", "Grid",
    "Kernel", "KernelSpec", "NlflowError", "Potential", "PotentialSpec",
    "Trajectory", "barrier_on_grid", "calibrate_constants",
    "check_recurrence", "chebyshev_chain", "default_calibration",
    "difference_quotient", "eval_barrier", "level_set_measures",
    "linear_energy", "load_calibration", "load_field", "make_initial",
    "make_kernel", "make_potential", "nonlinear_energy",
    "oscillation_decay", "parabolic_rescale", "parse_config",
    "rescaling_sequence", "run_flow", "save_calibration", "save_field",
    "scan_derived_envelope", "stable_dt",
    "truncated_energies", "validate_kernel", "validate_potential",
    "verify_corollary1", "verify_corollary2", "verify_lemma1",
    "verify_lemma2", "verify_lemma3", "verify_linearization",
    "__version__",
]
