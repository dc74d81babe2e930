"""Initial-data families: each kind builds the field its docstring states."""

import math

import numpy as np
import pytest

from nlflow.fields import INITIAL_KINDS, make_initial
from nlflow.grid import Grid

AMPLITUDE, SIGMA, RADIUS, MODE, SEED = -0.75, 1.3, 1.1, 2, 17


def _distance(grid: Grid) -> np.ndarray:
    """Periodic distance of every node to the origin, from node indices."""
    m = grid.points_per_axis
    steps = np.indices(grid.shape).reshape(grid.dimension, -1).T
    return np.sqrt(np.sum(np.minimum(steps, m - steps) ** 2, axis=1)) \
        * grid.spacing


# the field each kind documents, built without `make_initial`
EXPECTED = {
    "random": lambda g: np.random.default_rng(SEED).uniform(
        -abs(AMPLITUDE), abs(AMPLITUDE), g.n_nodes),
    "bump": lambda g: AMPLITUDE * np.exp(-_distance(g) ** 2
                                         / (2.0 * SIGMA ** 2)),
    "step": lambda g: np.where(_distance(g) < RADIUS, AMPLITUDE, -AMPLITUDE),
    "cosine": lambda g: AMPLITUDE * np.cos(
        2.0 * math.pi * MODE * g.node_coords()[:, 0] / g.side_length),
    "spike": lambda g: np.eye(1, g.n_nodes)[0] * AMPLITUDE,
    "constant": lambda g: np.full(g.n_nodes, AMPLITUDE),
}


def test_every_initial_kind_has_a_check():
    assert set(EXPECTED) == set(INITIAL_KINDS)


@pytest.mark.parametrize("shift", [0.0, 0.5])
@pytest.mark.parametrize("dimension, points", [(1, 45), (2, 16)])
@pytest.mark.parametrize("kind", INITIAL_KINDS)
def test_each_initial_kind_builds_its_documented_field(kind, dimension,
                                                       points, shift):
    grid = Grid(dimension=dimension, side_length=16.0, points_per_axis=points)
    field = make_initial(grid, kind, amplitude=AMPLITUDE, seed=SEED,
                         sigma=SIGMA, radius=RADIUS, mode=MODE, shift=shift)
    want = EXPECTED[kind](grid) + shift
    assert field.values.shape == (grid.n_nodes,)
    np.testing.assert_allclose(field.values, want, rtol=1e-14, atol=0.0)
    # a rerun is bitwise the same field
    again = make_initial(grid, kind, amplitude=AMPLITUDE, seed=SEED,
                         sigma=SIGMA, radius=RADIUS, mode=MODE, shift=shift)
    assert field.values.tobytes() == again.values.tobytes()


def test_step_takes_two_values_split_by_the_open_ball():
    # radius 1 at spacing 1/16 holds the nodes at -15/16 .. 15/16, and the
    # nodes at distance exactly 1 lie outside the open ball
    grid = Grid(dimension=1, side_length=16.0, points_per_axis=256)
    values = make_initial(grid, "step", amplitude=2.0, radius=1.0).values
    assert set(np.unique(values)) == {-2.0, 2.0}
    assert int(np.sum(values == 2.0)) == 31
