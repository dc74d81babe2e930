"""Seeded run recipes of the ensembles `diagnose` and `calibrate` read.

Each recipe maps one integer seed to one deterministic trajectory.  The seed
draws the rough-kernel realization and, where a recipe ramps an amplitude or
a radius, the run's place on that ramp, so runs with distinct seeds are
independent draws while reruns with the same seed are bitwise identical.
The flows of a config, which `nlflow run` integrates, come from
`ExperimentConfig.flow_problem`.
"""

from __future__ import annotations

from .errors import violations
from .fields import make_initial
from .flow import FlowProblem, Trajectory, run_flow
from .grid import Grid
from .kernels import KernelSpec, make_kernel

__all__ = [
    "ORDER", "DIMENSION", "MAX_K", "LEVELS", "SCALE",
    "recipe_errors", "default_grid", "rough_kernel",
    "lemma_ensemble_run", "level_ensemble_run",
    "recurrence_run", "oscillation_run",
]


# the kernel order and dimension of every recipe (`recipe_errors`); the
# detectors read the order from the trajectory
ORDER = 1.0
DIMENSION = 1
# the grid of every recipe, and the sample gaps (each dt_max) of the runs
# diagnose reads the ladder and the cylinders from
SIDE_LENGTH, POINTS = 16.0, 256
RECURRENCE_GAP, OSCILLATION_GAP = 2.0 ** -8, 0.004
# the settings diagnose (by default) and calibrate read the runs with: the
# MAX_K rungs RECURRENCE_GAP resolves, and LEVELS cylinders shrinking by SCALE
MAX_K, LEVELS, SCALE = 6, 4, 0.65


def recipe_errors(dimension: int, order: float) -> list:
    """(field, error) pairs of the rules a dimension and a kernel order
    break in the recipes: each is DIMENSION-d of order ORDER."""
    pinned = f"as in the {DIMENSION}-d order-{ORDER:g} ensembles"
    return violations(
        ("dimension", dimension == DIMENSION,
         f"must be {DIMENSION}, {pinned}"),
        ("order", order == ORDER, f"must be {ORDER:g}, {pinned}"))


def default_grid() -> Grid:
    return Grid(dimension=DIMENSION, side_length=SIDE_LENGTH,
                points_per_axis=POINTS)


def rough_kernel(seed: int):
    return make_kernel(KernelSpec(dimension=DIMENSION, order=ORDER,
                                  family="rough-static", seed=seed))


def _ramp(seed: int, n_seeds: int) -> float:
    """Deterministic position in [0, 1] for amplitude/radius ramps."""
    return ((seed - 1) % n_seeds) / (n_seeds - 1)


def _recipe_run(seed: int, t_start: float, dt_max: float | None = None,
                sample_every: int = 1, **initial) -> Trajectory:
    """The seed's rough-kernel linear flow of `initial` data to t = 0."""
    grid = default_grid()
    return run_flow(FlowProblem(
        kind="linear", grid=grid, kernel=rough_kernel(seed),
        initial=make_initial(grid, **initial), t_start=t_start, t_end=0.0,
        dt_max=dt_max), sample_every=sample_every)


def lemma_ensemble_run(seed: int) -> Trajectory:
    """Shifted bumps under rough kernels on [-2, 0].

    Amplitudes ramp across the ensemble so the detectors see the whole verdict
    range: small bumps satisfy hypothesis and conclusion, mid bumps overflow
    the truncated-mass budget, and the strongest ones still exceed 1/2 near
    the origin at late times.  The -0.3 shift keeps the data partly negative.
    """
    return _recipe_run(seed, -2.0, 2.0 ** -7, kind="bump", sigma=1.2,
                       shift=-0.3, amplitude=0.25 + 2.55 * _ramp(seed, 50))


def level_ensemble_run(seed: int) -> Trajectory:
    """Step data (-1 inside a ramped ball, +1 outside) on [-3, 0]."""
    return _recipe_run(seed, -3.0, sample_every=2, kind="step",
                       amplitude=-1.0, radius=1.2 + 1.6 * _ramp(seed, 50))


def recurrence_run(seed: int) -> Trajectory:
    """Dense-cadence runs for the truncated-energy ladder (MAX_K rungs)."""
    return _recipe_run(seed, -2.0, RECURRENCE_GAP, kind="bump",
                       amplitude=1.2 + 0.6 * _ramp(seed, 20), sigma=1.0)


def oscillation_run(seed: int) -> Trajectory:
    """Step edge under a rough kernel on [-1.2, 0]; dense samples so four
    nested cylinders at scale 0.65 stay resolved."""
    return _recipe_run(seed, -1.2, OSCILLATION_GAP, kind="step",
                       amplitude=0.5, radius=1.5)
