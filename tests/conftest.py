"""Shared fixtures and builders for the test suite.

Ensemble trajectories are deterministic in their seed, so they are cached
for the whole session -- the detector, recurrence, and acceptance tests all
probe the same runs and re-integrating them per test would dominate runtime.
"""

import functools
import math

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
from nlflow.grid import DiscreteOperator, Grid, _lattice_length, \
    _signed_steps

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


# --------------------------------------------------------------------------
# operator oracles: the dense double sum and the pair-sum form

def dense_matrix(grid: Grid, kernel, t: float = 0.0) -> np.ndarray:
    """Dense operator matrix A with A[i, j] = K(t, x_i, x_j) h^N, zero
    diagonal: the double-sum oracle (8 n^2 bytes, 128 MiB at 64 x 64)."""
    coords, index = grid.node_coords(), grid.node_indices()
    n, h_n = grid.n_nodes, grid.spacing ** grid.dimension
    radius, A = kernel.spec.truncation_radius, np.zeros((n, n))
    # 2^16 pairs a block keeps its temporaries small: blocks of 2^22
    # built the 2-d M=45..64 matrices 1.4-5x slower
    step = 2 ** 16 // n + 1
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        # K is symmetric bit for bit (`Kernel.evaluate` averages both
        # cell orders), so a row block evaluates its columns beyond it,
        # its diagonal square above the diagonal, and mirrors the rest
        A[rows, :start] = A[:start, rows].T
        for cols, square in ((rows, True), (slice(rows.stop, n), False)):
            # pair lengths from integer offsets, as offsets_within
            # measures them, so the kernel's truncation test is
            # symmetric at any spacing; beyond a finite radius the
            # kernel is the zero A holds
            dist = _lattice_length(grid, _signed_steps(
                grid, index[None, cols] - index[rows, None]))
            pairs = dist.shape + (grid.dimension,)
            within = np.triu(dist <= radius, 1) if square else \
                dist <= radius if math.isfinite(radius) else Ellipsis
            A[rows, cols][within] = kernel.evaluate(
                t, np.broadcast_to(coords[rows, None], pairs)[within],
                np.broadcast_to(coords[None, cols], pairs)[within],
                dist=dist[within]) * h_n
        block = A[rows, rows]
        below = np.tril_indices(block.shape[0], -1)
        block[below] = block.T[below]
    return A


def dense_apply(grid: Grid, kernel, values: np.ndarray,
                t: float = 0.0) -> np.ndarray:
    """(L w) at every node of flat `values` from `dense_matrix`."""
    # the oracle weighs differences, so a constant cancels exactly, as on
    # the stencil: A w - rowsums w rounds at the scale of |w| and broke a
    # flow's bracket from |w| = 1e4
    A, out = dense_matrix(grid, kernel, t), np.empty(values.size)
    step = max(1, 2 ** 22 // values.size)
    for start in range(0, values.size, step):
        rows = slice(start, start + step)
        out[rows] = np.einsum("ij,ij->i", A[rows], values - values[rows, None])
    return out


def banded_apply(op, values: np.ndarray, t: float = 0.0) -> np.ndarray:
    """(L w) at every node of flat `values` on `op`'s stencil, the sum every
    flow step takes."""
    return op.offset_rhs(values.reshape(op.grid.shape), t).ravel()


def bilinear_form(kernel, u, v, t: float = 0.0) -> float:
    """B[u, v] = sum_x sum_{y != x} K [u(x)-u(y)] [v(x)-v(y)] h^(2N) for
    fields on one grid, the direct pair sum over the banded operator's kept
    offsets (twice each): <L u, v> h^N = -B[u, v] / 2 up to roundoff."""
    op = DiscreteOperator(u.grid, kernel)
    pair = np.stack([u.values, v.values]).reshape((2,) + u.grid.shape)
    table = op.offset_values(t)
    total = sum(op.stencil.pair_total(rows, table, diffs[0] * diffs[1])
                for rows, diffs in op.stencil.blocks(pair))
    return total * u.grid.spacing ** (2 * u.grid.dimension)


def cosine_mode_eigenvalue(points, kernel, mode=3, dense=False):
    """-<Lw, w>/<w, w> for w = cos(2 pi mode x / L) on a 1-d grid, L = 16,
    from the banded operator or, with `dense`, the dense double sum."""
    g = Grid(dimension=1, side_length=16.0, points_per_axis=points)
    w = np.cos(2.0 * np.pi * mode * g.node_coords()[:, 0] / g.side_length)
    out = dense_apply(g, kernel, w) if dense else \
        banded_apply(DiscreteOperator(g, kernel), w)
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
