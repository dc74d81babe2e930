"""Shared fixtures and builders for the test suite.

Ensemble trajectories are deterministic in their seed, so they are cached
for the whole session -- the detector, recurrence, and acceptance tests all
probe the same runs and re-integrating them per test would dominate runtime.
"""

import functools

import numpy as np
import pytest

from nlflow.calibrate import default_calibration
from nlflow.config import parse_config
from nlflow.degiorgi import barrier, lambda_support
from nlflow.ensembles import (
    default_grid,
    lemma_ensemble_run,
    level_ensemble_run,
    oscillation_run,
    recurrence_run,
)
from nlflow.flow import Trajectory, run_flow
from nlflow.grid import DiscreteOperator, Grid

cached_lemma_run = functools.lru_cache(maxsize=None)(lemma_ensemble_run)
cached_level_run = functools.lru_cache(maxsize=None)(level_ensemble_run)
cached_recurrence_run = functools.lru_cache(maxsize=None)(recurrence_run)
cached_oscillation_run = functools.lru_cache(maxsize=None)(oscillation_run)

# the dissipation gate: 50 rough-kernel linear runs and 20 smoothed-huber
# runs from random data on [0, 0.3], built as `nlflow run` builds them
DISSIPATION_SEEDS = {"linear": range(1, 51), "nonlinear": range(1, 21)}


def dissipation_sets(kind: str, seed: int) -> list[str]:
    """The --set overrides of one gate run.  A nonlinear run's power-law
    multiplier is Lambda^(u/2) for u uniform in [-0.9, 0.9], inside the
    tight band [Lambda^-1/2, Lambda^1/2] the config accepts."""
    sets = ["initial.kind=random", "flow.end=0.3", "flow.sample_every=4"]
    if kind == "linear":
        return sets + ["kernel.family=rough-static"]
    u = np.random.default_rng(seed).uniform(-0.9, 0.9)
    return sets + ["flow.kind=nonlinear",
                   f"kernel.multiplier={4.0 ** (0.5 * u)!r}"]


@functools.lru_cache(maxsize=None)
def cached_dissipation_run(kind: str, seed: int) -> Trajectory:
    cfg = parse_config(overrides=dissipation_sets(kind, seed))
    return run_flow(cfg.flow_problem(seed),
                    sample_every=cfg.get("flow.sample_every"))


def cached_calibration_runs(seeds) -> dict:
    """calibrate_constants arguments: each recipe's cached (seed, run) pairs
    for the seeds `seeds[recipe]`."""
    recipes = {"lemma": cached_lemma_run, "level": cached_level_run,
               "recurrence": cached_recurrence_run,
               "oscillation": cached_oscillation_run}
    return {name: [(seed, run(seed)) for seed in seeds[name]]
            for name, run in recipes.items()}


@pytest.fixture(scope="session")
def calibration():
    return default_calibration()


@pytest.fixture(scope="session")
def grid1():
    return default_grid()


def constant_trajectory(grid: Grid, value: float, t_lo: float = -3.0,
                        t_hi: float = 0.0, n: int = 25,
                        order: float = 1.0) -> Trajectory:
    """A w == const fake trajectory covering [t_lo, t_hi]."""
    times = np.linspace(t_lo, t_hi, n)
    fields = np.full((n, grid.n_nodes), float(value))
    return Trajectory.from_fields(grid, times, fields, order=order)


def synthetic_trajectory(grid: Grid, times, fields,
                         order: float = 1.0) -> Trajectory:
    return Trajectory.from_fields(grid, times, np.asarray(fields),
                                  order=order)


def cosine_mode_eigenvalue(points, kernel, mode=3, strategy="banded"):
    """-<Lw, w>/<w, w> for w = cos(2 pi mode x / L) on a 1-d grid, L = 16."""
    g = Grid(dimension=1, side_length=16.0, points_per_axis=points)
    w = np.cos(2.0 * np.pi * mode * g.node_coords()[:, 0] / g.side_length)
    out = DiscreteOperator(g, kernel, strategy=strategy).apply(w)
    lam = -float(np.dot(out, w) / np.dot(w, w))
    # cosines are exact eigenfunctions of the periodic convolution, so the
    # residual after projecting out the mode is numerical noise
    residual = out + lam * w
    assert np.max(np.abs(residual)) <= 1e-10 * abs(lam)
    return lam

# --------------------------------------------------------------------------
# injected counterexample fields (detector soundness probes)

def lemma1_counterexample(grid: Grid, order: float = 1.0) -> Trajectory:
    """Tiny truncated mass but a sup breach late: a sparse spike at 0.8.

    The origin node sits where psi vanishes, so 0.8 > 1/2 + psi there; its
    truncated-energy contribution is (0.8)^2 * h * 2 ~ 0.08, far below any
    eps0 budget, so the hypothesis holds and the conclusion must be flagged.
    """
    times = np.linspace(-2.0, 0.0, 21)
    fields = np.zeros((times.size, grid.n_nodes))
    fields[:, 0] = 0.8
    return Trajectory.from_fields(grid, times, fields, order=order)


def corollary2_counterexample(grid: Grid, order: float = 1.0) -> Trajectory:
    """Mostly <= 0 on [-2,-1] (tiny positivity measure) yet w > 1/2 late."""
    times = np.linspace(-2.0, 0.0, 21)
    fields = np.full((times.size, grid.n_nodes), -0.5)
    late = np.where(times > -1.0 + 1e-12)[0]
    fields[np.ix_(late, grid.ball(0.3))] = 0.9
    return Trajectory.from_fields(grid, times, fields, order=order)


def lemma2_counterexample(grid: Grid, lam: float,
                          order: float = 1.0) -> Trajectory:
    """Below phi0 early (hypothesis holds), hugging 1 + psi_lambda late.

    The late block makes |{w > phi2}| large while the intermediate set stays
    empty, so both conclusion branches break at once.
    """
    psi_lam = barrier(grid.origin_distance(), 0.25 * order,
                      lambda_support(lam, order))
    times = np.linspace(-3.0, 0.0, 31)
    fields = np.empty((times.size, grid.n_nodes))
    early = times <= -2.0 + 1e-12
    fields[early] = -0.5
    fields[~early] = 1.0 + psi_lam[None, :]
    return Trajectory.from_fields(grid, times, fields, order=order)


def lemma3_counterexample(grid: Grid, eps: float, lam: float,
                          order: float = 1.0) -> Trajectory:
    """Alternating +-(1 + psi_{eps,lam}): inside the envelope, osc = 2."""
    env = 1.0 + barrier(grid.origin_distance(), eps,
                        lambda_support(lam, order))
    times = np.linspace(-3.0, 0.0, 31)
    signs = np.where(np.arange(times.size) % 2 == 0, 1.0, -1.0)
    fields = signs[:, None] * env[None, :]
    return Trajectory.from_fields(grid, times, fields, order=order)


def corollary1_counterexample(grid: Grid, order: float = 1.0) -> Trajectory:
    """Small initial mass, then a late sup far above the decay bound."""
    times = np.linspace(0.0, 1.0, 21)
    fields = np.zeros((times.size, grid.n_nodes))
    fields[0, grid.n_nodes // 2] = 0.01
    fields[times >= 0.5 - 1e-12] = 5.0
    return Trajectory.from_fields(grid, times, fields, order=order)
