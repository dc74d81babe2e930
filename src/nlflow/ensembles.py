"""Seeded run recipes of the ensembles `diagnose` and `calibrate` read.

Each recipe maps one integer seed to one deterministic trajectory.  The seed
draws the rough-kernel realization and, where a recipe ramps an amplitude or
a radius, the run's place on that ramp, so runs with distinct seeds are
independent draws while reruns with the same seed are bitwise identical.
The flows of a config, which `nlflow run` integrates, come from
`ExperimentConfig.flow_problem`.
"""

from __future__ import annotations

import math

from .fields import make_initial
from .flow import FlowProblem, Trajectory, run_flow
from .grid import Grid
from .kernels import KernelSpec, make_kernel
from .oscillation import MIN_CYLINDER

__all__ = [
    "ORDER", "DIMENSION", "MAX_K", "LEVELS", "SCALE",
    "default_grid", "rough_kernel",
    "lemma_ensemble_run", "level_ensemble_run",
    "recurrence_run", "oscillation_run",
]


# the kernel order and dimension of every recipe; the detectors read the
# order from the trajectory, and the CLI refuses any other (config.py)
ORDER = 1.0
DIMENSION = 1
# the grid of every recipe, and the sample gaps (each dt_max) of the runs
# diagnose reads the ladder and the cylinders from.  The CLI refuses
# settings they do not resolve: truncated_energies needs gaps <= 2^-k_max/4,
# and oscillation_decay's innermost cylinder MIN_CYLINDER nodes and samples,
# so a radius above MIN_CYLINDER // 2 spacings and a depth above
# MIN_CYLINDER - 1 gaps
SIDE_LENGTH, POINTS = 16.0, 256
RECURRENCE_GAP, OSCILLATION_GAP = 2.0 ** -8, 0.004
MAX_K = int(-math.log2(4.0 * RECURRENCE_GAP))
MIN_RADIUS = MIN_CYLINDER // 2 * SIDE_LENGTH / POINTS
MIN_DEPTH = (MIN_CYLINDER - 1) * OSCILLATION_GAP
# the settings diagnose (by default) and calibrate read the runs with: MAX_K
# ladder rungs, and LEVELS nested cylinders shrinking by SCALE
LEVELS, SCALE = 4, 0.65


def default_grid(dimension: int = DIMENSION) -> Grid:
    return Grid(dimension=dimension, side_length=SIDE_LENGTH,
                points_per_axis=POINTS)


def rough_kernel(seed: int):
    return make_kernel(KernelSpec(dimension=DIMENSION, order=ORDER,
                                  family="rough-static", seed=seed))


def _ramp(seed: int, n_seeds: int) -> float:
    """Deterministic position in [0, 1] for amplitude/radius ramps."""
    return ((seed - 1) % n_seeds) / (n_seeds - 1)


def lemma_ensemble_run(seed: int) -> Trajectory:
    """Shifted bumps under rough kernels on [-2, 0].

    Amplitudes ramp across the ensemble so the detectors see the whole verdict
    range: small bumps satisfy hypothesis and conclusion, mid bumps overflow
    the truncated-mass budget, and the strongest ones still exceed 1/2 near
    the origin at late times.  The -0.3 shift keeps the data partly negative.
    """
    grid = default_grid()
    amplitude = 0.25 + 2.55 * _ramp(seed, 50)
    initial = make_initial(grid, kind="bump", amplitude=amplitude,
                           sigma=1.2, shift=-0.3)
    problem = FlowProblem(kind="linear", grid=grid,
                          kernel=rough_kernel(seed), initial=initial,
                          t_start=-2.0, t_end=0.0, dt_max=2.0 ** -7)
    return run_flow(problem, sample_every=1)


def level_ensemble_run(seed: int) -> Trajectory:
    """Step data (-1 inside a ramped ball, +1 outside) on [-3, 0]."""
    grid = default_grid()
    radius = 1.2 + 1.6 * _ramp(seed, 50)
    initial = make_initial(grid, kind="step", amplitude=-1.0, radius=radius)
    problem = FlowProblem(kind="linear", grid=grid,
                          kernel=rough_kernel(seed), initial=initial,
                          t_start=-3.0, t_end=0.0)
    return run_flow(problem, sample_every=2)


def recurrence_run(seed: int) -> Trajectory:
    """Dense-cadence runs for the truncated-energy ladder (MAX_K rungs)."""
    grid = default_grid()
    amplitude = 1.2 + 0.6 * _ramp(seed, 20)
    initial = make_initial(grid, kind="bump", amplitude=amplitude, sigma=1.0)
    problem = FlowProblem(kind="linear", grid=grid,
                          kernel=rough_kernel(seed), initial=initial,
                          t_start=-2.0, t_end=0.0, dt_max=RECURRENCE_GAP)
    return run_flow(problem, sample_every=1)


def oscillation_run(seed: int) -> Trajectory:
    """Step edge under a rough kernel on [-1.2, 0]; dense samples so four
    nested cylinders at scale 0.65 stay resolved."""
    grid = default_grid()
    initial = make_initial(grid, kind="step", amplitude=0.5, radius=1.5)
    problem = FlowProblem(kind="linear", grid=grid,
                          kernel=rough_kernel(seed), initial=initial,
                          t_start=-1.2, t_end=0.0, dt_max=OSCILLATION_GAP)
    return run_flow(problem, sample_every=1)
