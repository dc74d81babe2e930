"""Periodic lattice, fields, and discrete nonlocal operators.

The torus [0, L)^N is sampled with M points per axis (lexicographic layout,
spacing h = L/M).  The discrete operator is the midpoint-rule sum

    (L w)(x) = sum_{y != x} [w(y) - w(x)] K(t, x, y) h^N

with the diagonal excluded and y running over lattice nodes at periodic
displacements.  When L > 2 * truncation_radius at most one periodic image of
any node lies inside the kernel support, so the sum needs no image folding;
untruncated kernels use the nearest-image displacement.

Three evaluation strategies give the same quadrature:

  dense     explicit n x n matrix (the oracle; small grids)
  banded    neighbor sums over the lattice offsets within the truncation
            radius, evaluated by `OffsetStencil`
  spectral  Fourier multiplier; translation-invariant untruncated kernels only

Kernel values are always evaluated at canonical node coordinates in [0, L)^N
with the periodic distance passed explicitly, so rough-kernel symmetry holds
exactly at wrap-around pairs and banded/dense see bitwise-identical values.
All reductions run in fixed lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DimensionMismatchError,
    GridMismatchError,
    InvalidParameterError,
    StrategyMismatchError,
    UnsupportedDimensionError,
)
from .kernels import Kernel

STRATEGIES = ("dense", "banded", "spectral")

# Offsets x nodes in one block of lattice differences.  A 1-d row of 256 nodes
# takes 64 offsets a block; a 128 x 128 grid takes one, because the smoothed
# huber phi' on two-offset blocks measured up to twice as slow as on one.
BLOCK_BUDGET = 1 << 14

# Pair length cutoff of the discrete H^(s/2) seminorm (`seminorm_sq`).
SEMINORM_CUTOFF = 2.0


@dataclass
class Grid:
    """Periodic lattice: N in {1, 2}, side L, M >= 8 points per axis."""

    dimension: int = 1
    side_length: float = 16.0
    points_per_axis: int = 256
    _caches: dict = dataclass_field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise UnsupportedDimensionError(
                f"dimension must be 1 or 2, got {self.dimension}")
        if int(self.points_per_axis) != self.points_per_axis or \
                self.points_per_axis < 8:
            raise InvalidParameterError(
                f"points_per_axis must be an integer >= 8: {self.points_per_axis}")
        self.points_per_axis = int(self.points_per_axis)
        if not (self.side_length > 0.0):
            raise InvalidParameterError(
                f"side_length must be positive: {self.side_length}")

    @property
    def spacing(self) -> float:
        return self.side_length / self.points_per_axis

    @property
    def n_nodes(self) -> int:
        return self.points_per_axis ** self.dimension

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    def node_coords(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, N), lexicographic order."""
        if "coords" not in self._caches:
            ax = np.arange(self.points_per_axis) * self.spacing
            if self.dimension == 1:
                coords = ax[:, None]
            else:
                a, b = np.meshgrid(ax, ax, indexing="ij")
                coords = np.column_stack([a.ravel(), b.ravel()])
            self._caches["coords"] = coords
        return self._caches["coords"]

    def wrap(self, delta: np.ndarray) -> np.ndarray:
        """Map coordinate differences to the minimal image in (-L/2, L/2]."""
        L = self.side_length
        return -((-np.asarray(delta) + 0.5 * L) % L - 0.5 * L)

    def origin_distance(self) -> np.ndarray:
        """Periodic distance from every node to the origin, flat."""
        if "origin_dist" not in self._caches:
            self._caches["origin_dist"] = np.linalg.norm(
                self.wrap(self.node_coords()), axis=-1)
        return self._caches["origin_dist"]

    def ball(self, radius: float) -> np.ndarray:
        """Boolean node mask of the open periodic ball of given radius about
        the origin."""
        return self.origin_distance() < radius

    def offsets_within(self, radius: float | None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero lattice offsets with periodic length <= radius.

        Returns (deltas, dists): integer index shifts, shape (n_off, N), in
        lexicographic order, and their periodic lengths in coordinate units.
        radius=None keeps every nonzero offset (nearest-image convention).
        """
        key = ("offsets", radius)
        if key in self._caches:
            return self._caches[key]
        deltas = _signed_steps(self, self.node_indices())
        dists = _lattice_length(self, deltas)
        keep = dists > 0.0
        if radius is not None and math.isfinite(radius):
            keep &= dists <= radius
        deltas, dists = deltas[keep], dists[keep]
        self._caches[key] = (deltas, dists)
        return deltas, dists

    def node_indices(self) -> np.ndarray:
        """Integer lattice index of every node, shape (n_nodes, N)."""
        return np.indices(self.shape).reshape(self.dimension, -1).T

    def compatible_with(self, other: "Grid") -> bool:
        return (self.dimension == other.dimension
                and self.points_per_axis == other.points_per_axis
                and self.side_length == other.side_length)


def _signed_steps(grid: Grid, steps: np.ndarray) -> np.ndarray:
    """Index differences mod M, mapped to the nearest image (-M/2, M/2]."""
    M = grid.points_per_axis
    steps = np.mod(steps, M)
    return np.where(steps <= M // 2, steps, steps - M)


def kernel_epoch(kernel: Kernel, t: float) -> int | None:
    """Index floor(t / epoch_length) of the epoch a time-dependent kernel is
    sampled on at time t; None for a static kernel, which has one epoch."""
    if not kernel.time_dependent:
        return None
    return math.floor(float(t) / kernel.spec.epoch_length)


def _lattice_length(grid: Grid, deltas: np.ndarray) -> np.ndarray:
    """Coordinate length of signed integer offsets, shape (..., N) -> (...)."""
    return np.linalg.norm(deltas, axis=-1) * grid.spacing


class OffsetStencil:
    """Lattice differences w(x + d) - w(x) over a fixed list of offsets d.

    The field is wrapped periodically once, with a halo of the largest offset,
    and each block of offsets is gathered by one fancy-index call on a sliding
    window view of the wrapped field.  Fields have shape (..., *grid.shape):
    leading axes are a batch.  Blocks follow the order of `deltas` and every
    batch row goes through the same operations, so all stacked rows are
    reduced in one shared order.
    """

    def __init__(self, grid: Grid, deltas: np.ndarray):
        self.grid = grid
        self.deltas = deltas
        self.halo = int(np.max(np.abs(deltas), initial=0))
        self._index = tuple(deltas.T + self.halo)

    def blocks(self, w: np.ndarray):
        """Yield (rows, diffs) with diffs[..., j, *grid.shape] equal to
        w(x + deltas[rows][j]) - w(x); a block holds BLOCK_BUDGET // w.size
        offsets (at least one)."""
        n_dim = self.grid.dimension
        batch = w.ndim - n_dim
        node_axes = tuple(range(batch, w.ndim))
        wrapped = np.pad(w, [(0, 0)] * batch + [(self.halo, self.halo)] * n_dim,
                         mode="wrap")
        windows = sliding_window_view(wrapped, self.grid.shape, axis=node_axes)
        base = np.expand_dims(w, batch)
        nodes = (slice(None),) * n_dim
        step = max(1, BLOCK_BUDGET // w.size)
        for start in range(0, self.deltas.shape[0], step):
            rows = slice(start, start + step)
            diffs = windows[(Ellipsis,) + tuple(ix[rows] for ix in self._index)
                            + nodes]
            diffs -= base
            yield rows, diffs
            del diffs       # hold no block while gathering the next one

    def offset_sum(self, w: np.ndarray, table: np.ndarray,
                   g=None) -> np.ndarray:
        """sum_d table[d] * g(w(x + d) - w(x)), g = identity by default.

        `table` holds one weight per offset, shape (n_off,), or one per offset
        and node, shape (n_off, *grid.shape).  `g` maps a block of differences
        to an array with the block axis just before the node axes.  Within a
        block the offsets are summed in order, as a loop over them would.
        """
        nodes = "xy"[:self.grid.dimension]
        weights = "i" + nodes if table.ndim > 1 else "i"
        spec = f"{weights},...i{nodes}->...{nodes}"
        table = table.reshape((-1,) + self.grid.shape) if table.ndim > 1 \
            else table
        acc = None
        for rows, diffs in self.blocks(w):
            part = np.einsum(spec, table[rows], diffs if g is None else g(diffs))
            if acc is None:
                acc = part
            else:
                acc += part
        return acc

    def node_sums(self, w: np.ndarray, g) -> np.ndarray:
        """sum_x g(w(x + d) - w(x)) per offset, shape (..., n_off)."""
        n_dim = self.grid.dimension
        out = np.empty(w.shape[:w.ndim - n_dim] + (self.deltas.shape[0],))
        for rows, diffs in self.blocks(w):
            out[..., rows] = np.sum(g(diffs), axis=tuple(range(-n_dim, 0)))
            del diffs       # hold no block while the next one is gathered
        return out


@dataclass
class Field:
    """Flat float64 values on a grid (lexicographic node order)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size != self.grid.n_nodes:
            raise DimensionMismatchError(
                f"field has {self.values.size} values, grid has "
                f"{self.grid.n_nodes} nodes")

    def l2_norm(self) -> float:
        h_n = self.grid.spacing ** self.grid.dimension
        return math.sqrt(float(np.sum(self.values * self.values)) * h_n)


class DiscreteOperator:
    """Bound (grid, kernel, strategy) triple with cached quadrature data."""

    def __init__(self, grid: Grid, kernel: Kernel, strategy: str = "banded"):
        if strategy not in STRATEGIES:
            raise InvalidParameterError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{', '.join(STRATEGIES)}")
        if grid.dimension != kernel.spec.dimension:
            raise GridMismatchError(
                f"grid dimension {grid.dimension} != kernel dimension "
                f"{kernel.spec.dimension}")
        r_tr = kernel.spec.truncation_radius
        if math.isfinite(r_tr) and not (grid.side_length > 2.0 * r_tr):
            raise GridMismatchError(
                f"torus width {grid.side_length} must exceed twice the "
                f"truncation radius {r_tr} so only one periodic image interacts")
        if strategy == "spectral":
            if not kernel.translation_invariant:
                raise StrategyMismatchError(
                    "spectral strategy requires a translation-invariant kernel")
            if math.isfinite(r_tr):
                raise StrategyMismatchError(
                    "spectral strategy requires an untruncated kernel "
                    "(truncation_radius = inf)")
        self.grid = grid
        self.kernel = kernel
        self.strategy = strategy
        # keyed by (what, kernel_epoch): static kernels cache under epoch
        # None, and a new epoch of a time-dependent one replaces the entry
        self._cache: dict = {}
        radius = r_tr if math.isfinite(r_tr) else None
        if strategy in ("banded", "dense"):
            self.deltas, self.dists = grid.offsets_within(radius)
            if self.deltas.shape[0] == 0:
                raise GridMismatchError(
                    "no lattice neighbors inside the truncation radius; "
                    "refine the grid")
            self.stencil = OffsetStencil(grid, self.deltas)
        else:
            self.deltas = self.dists = self.stencil = None

    def offset_values(self, t: float = 0.0) -> np.ndarray:
        """Kernel values per offset: (n_off,) scalars for translation-invariant
        kernels, else (n_off, n_nodes) with rows matching self.deltas."""
        if self.strategy == "spectral":
            raise StrategyMismatchError(
                "offset_values is undefined for the spectral strategy")
        key = ("offvals", kernel_epoch(self.kernel, t))
        if key in self._cache:
            return self._cache[key]
        if self.kernel.translation_invariant:
            vals = self.kernel.radial_profile(self.dists)
        else:
            coords = self.grid.node_coords()
            index = self.grid.node_indices()
            M, h = self.grid.points_per_axis, self.grid.spacing
            vals = np.empty((self.deltas.shape[0], self.grid.n_nodes))
            # one kernel call per block of offsets, sized as stencil blocks
            step = max(1, BLOCK_BUDGET // self.grid.n_nodes)
            for start in range(0, self.deltas.shape[0], step):
                rows = slice(start, start + step)
                # canonical coordinates of x + delta, as node_coords has them
                ycoords = (index + self.deltas[rows, None]) % M * h
                vals[rows] = self.kernel.evaluate(
                    t, coords, ycoords, dist=self.dists[rows, None])
        self._cache.clear()
        self._cache[key] = vals
        return vals

    def _dense(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Dense operator matrix A with A[i, j] = K(t, x_i, x_j) h^N, zero
        diagonal (the double-sum oracle), and its row sums, cached together
        per epoch."""
        key = ("matrix", kernel_epoch(self.kernel, t))
        if key in self._cache:
            return self._cache[key]
        grid, kern = self.grid, self.kernel
        coords = grid.node_coords()
        index = grid.node_indices()
        n = grid.n_nodes
        h_n = grid.spacing ** grid.dimension
        A = np.zeros((n, n))
        block = max(1, min(n, 2 ** 22 // n + 1))
        for start in range(0, n, block):
            stop = min(n, start + block)
            xi = coords[start:stop, None, :]
            xj = coords[None, :, :]
            # pair lengths from integer offsets, as offsets_within measures
            # them, so the kernel's truncation test is symmetric at any spacing
            dist = _lattice_length(grid, _signed_steps(
                grid, index[None, :, :] - index[start:stop, None, :]))
            vals = kern.evaluate(t, np.broadcast_to(xi, dist.shape + (grid.dimension,)),
                                 np.broadcast_to(xj, dist.shape + (grid.dimension,)),
                                 dist=dist)
            A[start:stop] = vals * h_n
        np.fill_diagonal(A, 0.0)
        self._cache.clear()
        self._cache[key] = (A, A.sum(axis=1))
        return self._cache[key]

    def multipliers(self) -> np.ndarray:
        """Fourier symbol of the operator (spectral strategy only), flat."""
        if self.strategy != "spectral":
            raise StrategyMismatchError(
                "multipliers() requires the spectral strategy")
        if "symbol" not in self._cache:
            grid = self.grid
            row = self.kernel.radial_profile(grid.origin_distance())
            row[0] = 0.0
            row_grid = row.reshape(grid.shape)
            h_n = grid.spacing ** grid.dimension
            m = (np.fft.fftn(row_grid).real - row.sum()) * h_n
            self._cache["symbol"] = m
        return self._cache["symbol"]

    def rowsums(self, t: float = 0.0) -> np.ndarray:
        """sum_{y != x} K(t, x, y) h^N per node, flat."""
        h_n = self.grid.spacing ** self.grid.dimension
        if self.strategy == "spectral":
            row = self.kernel.radial_profile(self.grid.origin_distance())
            row[0] = 0.0
            return np.full(self.grid.n_nodes, row.sum() * h_n)
        if self.strategy == "dense":
            return self._dense(t)[1]
        vals = self.offset_values(t)
        if vals.ndim == 1:
            return np.full(self.grid.n_nodes, float(vals.sum()) * h_n)
        return vals.sum(axis=0) * h_n

    def apply(self, values: np.ndarray, t: float = 0.0) -> np.ndarray:
        """(L w) at every node for flat float64 `values`."""
        w = np.asarray(values, dtype=np.float64).ravel()
        if w.size != self.grid.n_nodes:
            raise DimensionMismatchError(
                f"field has {w.size} values, grid has {self.grid.n_nodes} nodes")
        if self.strategy == "dense":
            A, rowsums = self._dense(t)
            return A @ w - rowsums * w
        if self.strategy == "spectral":
            m = self.multipliers()
            wg = w.reshape(self.grid.shape)
            return np.fft.ifftn(np.fft.fftn(wg) * m).real.ravel()
        acc = self.stencil.offset_sum(w.reshape(self.grid.shape),
                                      self.offset_values(t))
        return acc.ravel() * self.grid.spacing ** self.grid.dimension


def bilinear_form(kernel_or_op, u: Field, v: Field, t: float = 0.0) -> float:
    """B[u, v] = sum_x sum_{y != x} K [u(x)-u(y)] [v(x)-v(y)] h^(2N).

    Accepts a kernel (a banded operator is built on the fields' grid) or a
    prebuilt banded/dense-compatible operator.  Satisfies
    <L u, v> h^N = -B[u, v] / 2 up to roundoff and B[u, u] >= 0.  It stays
    the direct pair sum, which the tests compare that identity against; flow
    records take the energy from the identity instead.
    """
    if not u.grid.compatible_with(v.grid):
        raise GridMismatchError("bilinear_form fields live on different grids")
    if isinstance(kernel_or_op, DiscreteOperator):
        op = kernel_or_op
        if op.strategy == "spectral":
            raise StrategyMismatchError(
                "bilinear_form needs offset data; use banded or dense")
        if not op.grid.compatible_with(u.grid):
            raise GridMismatchError("operator and field grids differ")
    else:
        op = DiscreteOperator(u.grid, kernel_or_op, "banded")
    pair = np.stack([u.values, v.values]).reshape((2,) + u.grid.shape)
    per_node = op.stencil.offset_sum(pair, op.offset_values(t),
                                     lambda d: d[0] * d[1])
    return float(np.sum(per_node)) * u.grid.spacing ** (2 * u.grid.dimension)


def seminorm_sq(grid: Grid, stack: np.ndarray, order: float) -> np.ndarray:
    """Squared discrete H^(s/2) seminorm of every field in a (..., n_nodes)
    stack, pairs within cutoff = SEMINORM_CUTOFF:

        sum_x sum_{0 < |x-y| <= cutoff} [u(x)-u(y)]^2 / |x-y|^(N+s) h^(2N)
    """
    deltas, dists = grid.offsets_within(SEMINORM_CUTOFF)
    weights = dists ** (-(grid.dimension + order))
    wg = stack.reshape(stack.shape[:-1] + grid.shape)
    # square in place: blocks are fresh arrays, and U_k stacks are large
    sums = OffsetStencil(grid, deltas).node_sums(
        wg, lambda d: np.square(d, out=d))
    return np.sum(sums * weights, axis=-1) * grid.spacing ** (2 * grid.dimension)
