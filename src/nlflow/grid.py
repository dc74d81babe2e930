"""Periodic lattice, fields, and discrete nonlocal operators.

The torus [0, L)^N is sampled with M points per axis (lexicographic layout,
spacing h = L/M).  The discrete operator is the midpoint-rule sum

    (L w)(x) = sum_{y != x} [w(y) - w(x)] K(t, x, y) h^N

with the diagonal excluded and y running over lattice nodes at periodic
displacements.  When L > 2 * truncation_radius at most one periodic image of
any node lies inside the kernel support, so the sum needs no image folding;
untruncated kernels use the nearest-image displacement.  Every periodic
length, of a kept offset, a dense pair or a node from the origin, is that of
a nearest-image integer offset times h (`_lattice_length`).

Two evaluation strategies give the same quadrature:

  dense     explicit n x n matrix (the oracle; small grids)
  banded    (L w)(x) = sum_d [F_d(x) - F_d(x - d)] h^N with the flux
            F_d(x) = K(x, x+d) [w(x+d) - w(x)] over one offset d of each
            pair {d, -d mod M} within the truncation radius: K is symmetric,
            so d and -d carry one flux (`OffsetStencil`, which also gives
            the weight-1/2 rule for offsets with 2d = 0 mod M).  Offsets
            sharing their trailing component are swept together on a copy
            of w rolled by it and padded along the leading axis only, so
            every gather and scatter is a contiguous slice

Kernel values are always evaluated at canonical node coordinates in [0, L)^N
with the periodic distance passed explicitly, so rough-kernel symmetry holds
exactly at wrap-around pairs and banded/dense see bitwise-identical values.
All reductions run in a fixed order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import NlflowError, raise_first, violations
from .kernels import TRANSLATION_INVARIANT_FAMILIES, Kernel, kernel_epoch

STRATEGIES = ("dense", "banded")
# Most nodes of a dense operator: its n x n matrix takes 8 n^2 bytes, 128 MiB
# at the 64 x 64 grid of the largest dense-oracle test (the default 256 x 256
# grid would take 32 GiB)
DENSE_MAX_NODES = 4096
# Most bytes a run may hold: run_flow's samples and seven per-state records,
# or the per-node offset table of a rough kernel.  The tests, the config
# sweep and the benchmark's workloads reach 1.13 MiB (denoise-2d) and ~7 MB
# (a 2-d rough-static table at M = 64); 1 GiB fits a small machine
RUN_MAX_BYTES = 1 << 30

# Values in one working set: offsets x nodes in one block of lattice
# differences, states x nodes in run_flow's state buffer (two states at
# least), samples x nodes in one chunk of a detector's window.  A 1-d row
# of 256 nodes takes 64 offsets a block (all 48 of the diagnose runs: 2^13
# and 2^12 measured 10-40% slower); a 128 x 128 grid takes one: a
# smoothed-huber flux and energy pass over its 896 offsets took ~100 ms so,
# ~105 ms with two offsets a block and ~190 ms with four (2-vCPU Xeon, 2 MB
# L2 a core).
BLOCK_BUDGET = 1 << 14

# Pair length cutoff of the discrete H^(s/2) seminorm (`seminorm_sq`).
SEMINORM_CUTOFF = 2.0

# Work counts for timings.json (flux passes are `OffsetStencil.offset_sum`s)
COUNTERS = dict.fromkeys(("steps", "flux_passes", "offset_table_builds"), 0)


@dataclass
class Grid:
    """Periodic lattice: N in {1, 2}, side L, M >= 8 points per axis."""

    dimension: int = 1
    side_length: float = 16.0
    points_per_axis: int = 256

    def __post_init__(self):
        raise_first(grid_errors(self.dimension, self.side_length,
                                self.points_per_axis))
        self.points_per_axis = int(self.points_per_axis)

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
        return self.node_indices() * self.spacing

    def origin_distance(self) -> np.ndarray:
        """Periodic distance from every node to the origin, flat: the length
        of its nearest-image index offset, as `offsets_within` measures."""
        return _lattice_length(self, _signed_steps(self, self.node_indices()))

    def ball(self, radius: float) -> np.ndarray:
        """Boolean node mask of the open periodic ball of given radius about
        the origin."""
        return self.origin_distance() < radius

    def offsets_within(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero lattice offsets with periodic length <= radius, one a
        pair.

        Returns (deltas, dists): integer index shifts, shape (n_off, N), by
        trailing then leading component, and their periodic lengths in
        coordinate units.  radius=inf keeps every nonzero offset
        (nearest-image convention).  Of each pair {d, -d mod M} only the
        offset whose residue mod M is lexicographically smaller is kept (the
        half stencil): in 2-d at even M, (M/2, k) and (M/2, -k) are one.
        """
        steps = self.node_indices()
        back = np.mod(-steps, self.points_per_axis)
        first = (np.arange(steps.shape[0]), np.argmax(steps != back, axis=1))
        deltas = _signed_steps(self, steps)
        dists = _lattice_length(self, deltas)
        keep = (dists > 0.0) & (steps[first] <= back[first]) & \
            (dists <= radius)
        order = np.lexsort(deltas[keep].T)
        return deltas[keep][order], dists[keep][order]

    def node_indices(self) -> np.ndarray:
        """Integer lattice index of every node, shape (n_nodes, N)."""
        return np.indices(self.shape).reshape(self.dimension, -1).T


def grid_errors(dimension: int, side_length: float, points_per_axis: int,
                radius: float = math.inf, strategy: str = "banded") -> list:
    """(field, error) pairs of the rules a lattice breaks, and the two any
    operator on it keeps: a known `strategy`, and a torus wider than twice a
    finite kernel `radius`, so that one periodic image of a node interacts."""
    return violations(
        ("dimension", dimension in (1, 2), "dimension must be 1 or 2"),
        ("points_per_axis", points_per_axis == int(points_per_axis) >= 8,
         "need an integer of at least 8 points per axis"),
        ("side_length", 0.0 < side_length < math.inf,
         "side length must be finite and positive"),
        # an M past the floats (a file's tag may name one) has no float L/M
        ("side_length", not 0.0 < side_length < (
            points_per_axis * np.finfo(float).tiny
            if points_per_axis <= sys.float_info.max else math.inf),
         "the spacing L/M must be a normal float, at least 2.23e-308"),
        ("strategy", strategy in STRATEGIES,
         f"strategy must be one of {', '.join(STRATEGIES)}"),
        ("truncation_radius", not math.isfinite(radius)
         or side_length > 2.0 * radius, f"torus width {side_length:g} must "
         f"exceed twice the truncation radius {radius:g}"))


def operator_errors(grid: Grid, spec, strategy: str) -> list:
    """`grid_errors` and the pairs of the rules an operator of `strategy` on
    `grid` and a `spec` kernel adds."""
    radius = spec.truncation_radius
    # inside the normal floats, so that kernel values and row sums are too
    log_envelope = math.log(1.0 - 0.5 * spec.order) - (
        spec.dimension + spec.order) * math.log(grid.spacing)
    # 8 bytes a kept offset and node; the kept offsets lie in a box of
    # 2k + 1 nodes an axis about 0, one of each pair
    k = int(min(radius / grid.spacing, grid.points_per_axis // 2))
    table = 4 * ((2 * k + 1) ** grid.dimension - 1) * grid.n_nodes
    return grid_errors(grid.dimension, grid.side_length, grid.points_per_axis,
                       radius, strategy) + violations(
        ("dimension", grid.dimension == spec.dimension, f"grid dimension "
         f"{grid.dimension} != kernel dimension {spec.dimension}"),
        ("strategy", strategy != "dense" or grid.n_nodes <= DENSE_MAX_NODES,
         f"the dense operator takes at most {DENSE_MAX_NODES} nodes, not "
         f"{grid.n_nodes}"),
        ("truncation_radius", radius >= grid.spacing, f"no lattice neighbor "
         f"within the truncation radius at grid spacing {grid.spacing:g}"),
        ("side_length", -708.0 < log_envelope < 709.0, f"the kernel envelope "
         f"(1-s/2) h^-(N+s) at the grid spacing {grid.spacing:g} must lie "
         f"between e^-708 and e^709"),
        ("points_per_axis", spec.family in TRANSLATION_INVARIANT_FAMILIES
         or table <= RUN_MAX_BYTES, f"the {spec.family} kernel's per-node "
         f"offset table takes up to {table / 2 ** 30:.3g} GiB on "
         f"{grid.n_nodes} nodes, above the {RUN_MAX_BYTES >> 30} GiB a run "
         f"may take"))


def _signed_steps(grid: Grid, steps: np.ndarray) -> np.ndarray:
    """Index differences mod M, mapped to the nearest image (-M/2, M/2]."""
    M = grid.points_per_axis
    steps = np.mod(steps, M)
    return np.where(steps <= M // 2, steps, steps - M)


def _lattice_length(grid: Grid, deltas: np.ndarray) -> np.ndarray:
    """Coordinate length of signed integer offsets, shape (..., N) -> (...)."""
    return np.linalg.norm(deltas, axis=-1) * grid.spacing


def _block_sum(block: np.ndarray, axis: int, out: np.ndarray | None
               ) -> np.ndarray:
    """Sum over the block axis into `out`, or, with out None, the block's one
    row as a view: numpy sums a length-one axis as slowly as a long one."""
    return block.squeeze(axis) if out is None else \
        np.add.reduce(block, axis=axis, out=out)


def _skewed(buf: np.ndarray, axis: int) -> np.ndarray:
    """The view v[..., j, i, ...] = buf[..., j, i + j, ...] of n rows of
    m + n - 1 entries: summing buf over `axis` adds v's row j at i + j."""
    st = buf.strides
    return as_strided(buf, buf.shape[:axis + 1] + (
        buf.shape[axis + 1] - buf.shape[axis] + 1,) + buf.shape[axis + 2:],
        st[:axis] + (st[axis] + st[axis + 1],) + st[axis + 1:])


class OffsetStencil:
    """Pair sums over lattice differences w(x + d) - w(x), one offset a pair.

    `deltas` holds one offset of each pair {d, -d mod M}, as
    `Grid.offsets_within` gives them.  With a symmetric table T, F_d(x) =
    T_d(x) g(w(x + d) - w(x)) is the flux of both offsets, and a sum over
    every ordered offset is sum_d [F_d(x) - F_d(x - d)] for odd g
    (`offset_sum`), or 2 sum_d sum_x F_d(x) for even g (`pair_total`).  An
    offset with 2d = 0 (mod M) is its own partner: weight 1/2 in the doubled
    sums (`multiplicity` 1, not 2), and F_d(x) alone among the fluxes.

    Fields have shape (..., *grid.shape), leading axes a batch.  Rows of the
    table sharing their trailing shift d[-1] (all, in 1-d) form a group, swept
    on w rolled by it and padded on the leading axis, so w(x + d) is the row
    slice at d[0] and -F_d reaches x + d through a scatter buffer of that
    layout, folded and rolled back per group; a block (a group's offsets
    with consecutive d[0]) takes one subtraction, and its fluxes, each one
    row lower, scatter as one sum.  Buffers and views are built once per
    field shape, so a stencil serves one call per shape at a time.
    """

    def __init__(self, grid: Grid, deltas: np.ndarray):
        self.grid, self.deltas = grid, deltas
        self.multiplicity = np.where(np.all(
            np.mod(2 * deltas, grid.points_per_axis) == 0, axis=1), 1.0, 2.0)
        self._plans: dict = {}

    def _plan(self, shape: tuple, size: int, fluxes: bool = True):
        """Per field shape and block size (offsets x `size` <= BLOCK_BUDGET):
        the index broadcasting w over a block's offsets, node rows and
        (padding, node rows) wraps of the padded field and of the scatter
        buffer, and the groups (trailing shift, blocks: table rows, field
        window, diffs, skewed flux view, flux buffer, scatter window or None
        if unpaired, and the buffers its two sums reduce into, None for a
        one-offset block).  Without `fluxes` (differences only) the scatter
        and flux entries are None and nothing is allocated for them."""
        plan = self._plans.get((shape, size, fluxes))
        if plan is not None:
            return plan
        M, dim, d0 = self.grid.points_per_axis, self.grid.dimension, \
            self.deltas[:, 0]
        lead, lo, hi = len(shape) - dim, max(0, -d0.min()), max(0, d0.max())
        pad = np.empty(shape[:lead] + (lo + M + hi,) + shape[lead + 1:])
        scatter = np.empty_like(pad) if fluxes else None
        flux_sum = np.empty(shape) if fluxes else None

        def rows(buf, a, n, tail=(slice(None),) * (dim - 1)):
            return buf[(Ellipsis, slice(a, a + n)) + tail]

        def halo(buf):
            return [(rows(buf, a, n), rows(buf, b, n)) for a, b, n in (
                (0, M, lo), (lo + M, lo, hi)) if n]

        windows = np.moveaxis(sliding_window_view(pad, M, axis=lead), -1,
                              lead + 1)
        shift = np.mod(self.deltas[:, -1], M) * (dim > 1)
        groups, buffers, start = {}, {}, 0
        for j in range(1, d0.size + 1):
            if j < d0.size and shift[j] == shift[start] and \
                    d0[j] == d0[j - 1] + 1 and (j - start + 1) * size <= \
                    BLOCK_BUDGET and self.multiplicity[j] == \
                    self.multiplicity[start]:
                continue
            n, k = j - start, lo + d0[start]
            if n not in buffers:
                diffs = np.empty(shape[:lead] + (n,) + shape[lead:])
                if fluxes:
                    buf = np.zeros(shape[:lead] + (n, M + n - 1)
                                   + shape[lead + 1:])
                    buffers[n] = (diffs, _skewed(buf, lead), buf, (
                        None, None) if n == 1 else (flux_sum, np.empty(
                            buf.shape[:lead] + buf.shape[lead + 1:])))
                else:
                    buffers[n] = (diffs, None, None, None)
            diffs, flux, buf, sums = buffers[n]
            groups.setdefault(shift[start], []).append((
                slice(start, j), rows(windows, k, n, (slice(None),) * dim),
                diffs, flux, buf, rows(scatter, k, M + n - 1)
                if fluxes and self.multiplicity[start] == 2.0 else None,
                sums))
            start = j
        plan = self._plans[(shape, size, fluxes)] = (
            (Ellipsis, None) + (slice(None),) * dim, rows(pad, lo, M),
            halo(pad), scatter, *((rows(scatter, lo, M), halo(scatter))
                                  if fluxes else (None, None)),
            list(groups.items()))
        return plan

    @staticmethod
    def _load(w: np.ndarray, shift: int, nodes: np.ndarray, wraps) -> None:
        """Fill the padded field with w rolled by a group's trailing shift."""
        nodes[...] = np.roll(w, -shift, axis=-1) if shift else w
        for pad_rows, node_rows in wraps:
            pad_rows[...] = node_rows

    def blocks(self, w: np.ndarray):
        """Yield (rows, diffs) with diffs[..., j, *grid.shape] equal to
        w(x + deltas[rows][j]) - w(x), block by block, in reused buffers."""
        base, nodes, wraps, _, _, _, groups = self._plan(
            w.shape, math.prod(w.shape), fluxes=False)
        for shift, blocks in groups:
            self._load(w, shift, nodes, wraps)
            for rows, window, diffs, *_ in blocks:
                yield rows, np.subtract(window, w[base], out=diffs)

    def offset_sum(self, w: np.ndarray, table: np.ndarray,
                   g=None) -> np.ndarray:
        """sum_d [F_d(x) - F_d(x - d)], F_d = table[d] * g(w(x + d) - w(x)),
        g = identity by default: for a symmetric table and an odd g, the sum
        over every ordered offset.  `table` holds one weight per kept offset,
        shape (n_off,), or per offset and node, (n_off, n_nodes); `g` maps a
        block of differences to an array of its shape.  Blocks are sized by
        the grid alone, so stacked rows sum as they would alone.  Every view
        and buffer comes from the plan: a block takes a subtraction, a
        multiplication into its flux buffer and its two sums."""
        COUNTERS["flux_passes"] += 1
        grid = self.grid
        base, nodes, wraps, scatter, scattered, folds, groups = self._plan(
            w.shape, grid.n_nodes)
        weights = table.reshape(table.shape[:1] + (
            grid.shape if table.ndim > 1 else (1,) * grid.dimension))
        lead, w_base = w.ndim - grid.dimension, w[base]
        acc = np.zeros(w.shape)
        for shift, blocks in groups:
            self._load(w, shift, nodes, wraps)
            scatter[...] = 0.0
            for rows, window, diffs, flux, buf, to, sums in blocks:
                np.subtract(window, w_base, out=diffs)
                np.multiply(diffs if g is None else g(diffs), weights[rows],
                            out=flux)
                acc += _block_sum(flux, lead, sums[0])
                if to is not None:
                    to += _block_sum(buf, lead, sums[1])
            for pad_rows, node_rows in folds:
                node_rows += pad_rows
            # -F_d(x) went to x + d, rolled by the shift
            acc -= np.roll(scattered, shift, axis=-1) if shift else scattered
        return acc

    def pair_total(self, rows: slice, table: np.ndarray,
                   values: np.ndarray) -> float:
        """sum_d multiplicity[d] sum_x table[d](x) values[d](x) over the
        block `rows`, `values` shaped as its differences: the block's share
        of the sum over every ordered offset of an even quantity."""
        nodes, mult = "xy"[:self.grid.dimension], self.multiplicity[rows]
        if table.ndim == 1:
            return float(np.einsum(f"i,i{nodes}->", mult * table[rows],
                                   values))
        weights = (table[rows] * mult[:, None]).reshape((-1,) + self.grid.shape)
        return float(np.einsum(f"i{nodes},i{nodes}->", weights, values))


@dataclass
class Field:
    """Flat float64 values on a grid (lexicographic node order)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size != self.grid.n_nodes:
            raise NlflowError(
                f"field has {self.values.size} values, grid has "
                f"{self.grid.n_nodes} nodes")

    def l2_norm(self) -> float:
        h_n = self.grid.spacing ** self.grid.dimension
        return math.sqrt(float(np.sum(self.values * self.values)) * h_n)


class DiscreteOperator:
    """Bound (grid, kernel, strategy) triple holding one table: the half
    offset table or the dense matrix and row sums of one kernel epoch
    (`kernels.kernel_epoch`); another is built in its place."""

    def __init__(self, grid: Grid, kernel: Kernel, strategy: str = "banded"):
        raise_first(operator_errors(grid, kernel.spec, strategy))
        self.grid = grid
        self.kernel = kernel
        self.strategy = strategy
        self._held: tuple = (None, None)
        self.deltas, self.dists = grid.offsets_within(
            kernel.spec.truncation_radius)
        self.stencil = OffsetStencil(grid, self.deltas)

    def offset_values(self, t: float = 0.0) -> np.ndarray:
        """Kernel values K(t, x, x + d) per kept offset d, the half table of
        the stencil: (n_off,) scalars for translation-invariant kernels, else
        (n_off, n_nodes) with rows matching self.deltas."""
        key = ("offvals", kernel_epoch(self.kernel, t))
        if self._held[0] == key:
            return self._held[1]
        COUNTERS["offset_table_builds"] += 1
        if self.kernel.translation_invariant:
            vals = self.kernel.radial_profile(self.dists)
        else:
            coords, index = self.grid.node_coords(), self.grid.node_indices()
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
        self._held = (key, vals)
        return vals

    def _dense(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Dense operator matrix A with A[i, j] = K(t, x_i, x_j) h^N, zero
        diagonal (the double-sum oracle), and its row sums, held together."""
        key = ("matrix", kernel_epoch(self.kernel, t))
        if self._held[0] == key:
            return self._held[1]
        grid, coords, index = self.grid, self.grid.node_coords(), \
            self.grid.node_indices()
        n, h_n = grid.n_nodes, grid.spacing ** grid.dimension
        A = np.zeros((n, n))
        step = 2 ** 22 // n + 1
        for start in range(0, n, step):
            rows = slice(start, start + step)
            # pair lengths from integer offsets, as offsets_within measures
            # them, so the kernel's truncation test is symmetric at any spacing
            dist = _lattice_length(grid, _signed_steps(
                grid, index[None] - index[rows, None]))
            pairs = dist.shape + (grid.dimension,)
            A[rows] = self.kernel.evaluate(
                t, np.broadcast_to(coords[rows, None], pairs),
                np.broadcast_to(coords[None], pairs), dist=dist) * h_n
        np.fill_diagonal(A, 0.0)
        self._held = (key, (A, A.sum(axis=1)))
        return self._held[1]

    def rowsums(self, t: float = 0.0) -> np.ndarray:
        """sum_{y != x} K(t, x, y) h^N per node, flat."""
        h_n = self.grid.spacing ** self.grid.dimension
        if self.strategy == "dense":
            return self._dense(t)[1]
        vals = self.offset_values(t)
        if vals.ndim == 1:
            return np.full(self.grid.n_nodes,
                           float(np.dot(self.stencil.multiplicity, vals)) * h_n)
        # the fluxes of g = -1 sum to sum_d [K_d(x - d) - K_d(x)]
        back = self.stencil.offset_sum(np.zeros(self.grid.shape), vals,
                                       lambda d: np.full_like(d, -1.0))
        return (back.ravel() + 2.0 * vals.sum(axis=0)) * h_n

    def apply(self, values: np.ndarray, t: float = 0.0) -> np.ndarray:
        """(L w) at every node for flat float64 `values`."""
        w = np.asarray(values, dtype=np.float64).ravel()
        if w.size != self.grid.n_nodes:
            raise NlflowError(
                f"field has {w.size} values, grid has {self.grid.n_nodes} nodes")
        # the oracle weighs differences, so a constant cancels exactly, as on
        # the stencil: A w - rowsums w rounds at the scale of |w| and broke a
        # flow's bracket from |w| = 1e4
        if self.strategy == "dense":
            A, out = self._dense(t)[0], np.empty(w.size)
            step = max(1, 2 ** 22 // w.size)
            for start in range(0, w.size, step):
                rows = slice(start, start + step)
                out[rows] = np.einsum("ij,ij->i", A[rows], w - w[rows, None])
            return out
        return self.offset_rhs(w.reshape(self.grid.shape), t).ravel()

    def offset_rhs(self, wg: np.ndarray, t: float, d1=None) -> np.ndarray:
        """sum_d [F_d(x) - F_d(x-d)] h^N, F_d = K_d g(w(x+d) - w(x)), on the
        grid-shaped `wg`, g the identity or `d1` (phi'): the banded `apply`
        and every flow step (`flow._offset_rhs`)."""
        acc = self.stencil.offset_sum(wg, self.offset_values(t), d1)
        return np.multiply(acc, self.grid.spacing ** self.grid.dimension,
                           out=acc)


def bilinear_form(kernel: Kernel, u: Field, v: Field, t: float = 0.0) -> float:
    """B[u, v] = sum_x sum_{y != x} K [u(x)-u(y)] [v(x)-v(y)] h^(2N) on the
    banded operator of the fields' grid.

    Satisfies <L u, v> h^N = -B[u, v] / 2 up to roundoff and B[u, u] >= 0.
    It stays the direct pair sum, twice that over the kept offsets, which the
    tests compare that identity against; flow records take the energy from
    the identity instead.
    """
    if u.grid != v.grid:
        raise NlflowError("bilinear_form fields live on different grids")
    op = DiscreteOperator(u.grid, kernel, "banded")
    pair = np.stack([u.values, v.values]).reshape((2,) + u.grid.shape)
    table = op.offset_values(t)
    total = sum(op.stencil.pair_total(rows, table, diffs[0] * diffs[1])
                for rows, diffs in op.stencil.blocks(pair))
    return total * u.grid.spacing ** (2 * u.grid.dimension)


def seminorm_stencil(grid: Grid, points: int | None = None
                     ) -> OffsetStencil:
    """The stencil of `seminorm_sq`'s pairs, on the grid or, with `points`,
    on a sub-torus of `points` nodes an axis at the grid's spacing with the
    grid's offsets; every offset must be shorter than points / 2 an axis."""
    deltas = grid.offsets_within(SEMINORM_CUTOFF)[0]
    if points is not None:
        grid = Grid(grid.dimension, points * grid.spacing, points)
    return OffsetStencil(grid, deltas)


def seminorm_sq(grid: Grid, stack: np.ndarray, order: float,
                stencil: OffsetStencil | None = None) -> np.ndarray:
    """Squared discrete H^(s/2) seminorm of every field in a (..., n_nodes)
    stack, pairs within cutoff = SEMINORM_CUTOFF:

        sum_x sum_{0 < |x-y| <= cutoff} [u(x)-u(y)]^2 / |x-y|^(N+s) h^(2N)

    The fields live on the torus of `stencil`, a `seminorm_stencil` of the
    grid (its own by default); a caller summing many stacks of one shape
    passes one stencil, whose plan then serves them all.
    """
    dists = grid.offsets_within(SEMINORM_CUTOFF)[1]
    h_2n = grid.spacing ** (2 * grid.dimension)
    stencil = seminorm_stencil(grid) if stencil is None else stencil
    weights = stencil.multiplicity * dists ** (-(grid.dimension + order))
    wg = stack.reshape(stack.shape[:-1] + stencil.grid.shape)
    sums = np.empty(stack.shape[:-1] + dists.shape)
    axes = tuple(range(-grid.dimension, 0))
    for rows, diffs in stencil.blocks(wg):
        np.add.reduce(np.square(diffs, out=diffs), axis=axes,
                      out=sums[..., rows])
    return np.sum(sums * weights, axis=-1) * h_2n
