"""Seeded initial-data families for flows, ensembles, and tests.

Every family is a pure function of (grid, parameters, seed) — reruns are
bitwise identical.  Kinds:

  random    iid uniform values in [-|amplitude|, |amplitude|]
  bump      amplitude * exp(-d^2 / (2 sigma^2)), d = periodic distance to center
  step      +amplitude inside the open ball of `radius` at the origin, else
            -amplitude (binary data scaled into [-a, a])
  cosine    amplitude * cos(2 pi mode x_1 / L)
  spike     amplitude at the origin node, zero elsewhere
  constant  amplitude everywhere
"""

from __future__ import annotations

import numpy as np

from .errors import raise_first, violations
from .grid import Field, Grid

INITIAL_KINDS = ("random", "bump", "step", "cosine", "spike", "constant")


def initial_errors(kind: str, sigma: float, radius: float) -> list:
    """(field, error) pairs of the rules the parameters break; sigma and the
    radius must be positive whatever the kind."""
    return violations(
        ("kind", kind in INITIAL_KINDS,
         f"initial kind must be one of {', '.join(INITIAL_KINDS)}"),
        ("sigma", sigma > 0.0, "sigma must be positive"),
        ("radius", radius > 0.0, "radius must be positive"))


def make_initial(grid: Grid, kind: str = "random", amplitude: float = 1.0,
                 seed: int = 0, sigma: float = 1.5, radius: float = 1.0,
                 mode: int = 1, shift: float = 0.0) -> Field:
    """Build one initial field; `shift` is added uniformly at the end."""
    raise_first(initial_errors(kind, sigma, radius))
    n = grid.n_nodes
    if kind == "random":
        # any integer seed, read mod 2^64 as the rough kernels read it
        rng = np.random.default_rng(int(seed) % 2 ** 64)
        vals = rng.uniform(-abs(amplitude), abs(amplitude), size=n)
    elif kind == "bump":
        d = grid.origin_distance()
        vals = amplitude * np.exp(-0.5 * (d / sigma) ** 2)
    elif kind == "step":
        inside = grid.ball(radius)
        vals = np.where(inside, amplitude, -amplitude).astype(np.float64)
    elif kind == "cosine":
        x1 = grid.node_coords()[:, 0]
        vals = amplitude * np.cos(2.0 * np.pi * mode * x1 / grid.side_length)
    elif kind == "spike":
        vals = np.zeros(n)
        vals[0] = amplitude
    else:  # constant
        vals = np.full(n, float(amplitude))
    if shift:
        vals = vals + shift
    return Field(grid, vals)
