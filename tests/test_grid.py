"""Periodic grid, discrete operator strategies, bilinear form, seminorm."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine_mode_eigenvalue
from nlflow.errors import NlflowError
from nlflow.fields import make_initial
from nlflow.grid import (
    COUNTERS,
    DENSE_MAX_NODES,
    DiscreteOperator,
    Field,
    Grid,
    bilinear_form,
    grid_errors,
    seminorm_sq,
)
from nlflow.kernels import KernelSpec, make_kernel


def grid_1d(points=256):
    return Grid(dimension=1, side_length=16.0, points_per_axis=points)


def power_law_kernel(order=1.0, truncation=3.0, dimension=1):
    return make_kernel(KernelSpec(
        dimension=dimension, order=order, ellipticity=4.0,
        truncation_radius=truncation, family="power-law"))


def rough_kernel(seed=5, dimension=1):
    return make_kernel(KernelSpec(
        dimension=dimension, order=1.0, ellipticity=4.0,
        truncation_radius=3.0, family="rough-static", seed=seed))


# --------------------------------------------------------------------------
# grid geometry

def test_grid_invariants_enforced():
    with pytest.raises(NlflowError, match="at least 8 points per axis"):
        Grid(dimension=1, side_length=16.0, points_per_axis=4)   # M < 8
    with pytest.raises(NlflowError, match="dimension must be 1 or 2"):
        Grid(dimension=3, side_length=16.0, points_per_axis=16)
    # a torus narrower than twice the truncation radius would let a node see
    # two periodic images of the same neighbor; caught when the kernel and
    # grid meet, since the bare grid does not know the radius
    narrow = Grid(dimension=1, side_length=5.0, points_per_axis=64)
    with pytest.raises(NlflowError, match="exceed twice the truncation"):
        DiscreteOperator(narrow, power_law_kernel(), strategy="banded")


@pytest.mark.parametrize("points", [2 ** 1024, 10 ** 400],
                         ids=["2^1024", "10^400"])
def test_grid_rules_take_any_integer_point_count(points):
    # an M past the floats has no float spacing L/M: the spacing rule says
    # so, where multiplying M by the smallest normal float overflowed
    assert [(f, str(e)) for f, e in grid_errors(2, 16.0, points)] == [
        ("side_length",
         "the spacing L/M must be a normal float, at least 2.23e-308")]
    assert grid_errors(1, 1e300, 10 ** 300) == []


def test_periodic_distance_wraps():
    g = grid_1d(64)
    dist = g.origin_distance()
    # farthest node is half the torus away
    assert float(dist.max()) == pytest.approx(8.0, abs=g.spacing)
    assert float(dist[1]) == pytest.approx(g.spacing)
    assert float(dist[-1]) == pytest.approx(g.spacing)


@pytest.mark.parametrize("dimension", [1, 2])
def test_one_torus_metric_at_a_non_dyadic_spacing(dimension):
    # at h = 16/45 a node's coordinate, wrapped to the minimal image, rounds
    # apart from its integer offset times h; the origin's distances, the
    # dense oracle and the stencil's offsets measure every node by one rule
    grid = Grid(dimension=dimension, side_length=16.0, points_per_axis=45)
    kernel = power_law_kernel(truncation=math.inf, dimension=dimension)
    row = kernel.radial_profile(grid.origin_distance()) \
        * grid.spacing ** dimension
    assert np.array_equal(row, DiscreteOperator(grid, kernel, "dense")._dense(
        0.0)[0][0])
    deltas, dists = grid.offsets_within(math.inf)
    # each kept offset and its partner -d, as flat node indices
    for sign in (1, -1):
        nodes = np.ravel_multi_index(tuple(np.mod(sign * deltas, 45).T),
                                     grid.shape)
        assert np.array_equal(grid.origin_distance()[nodes], dists)


def test_ball_counts_1d():
    g = grid_1d(256)
    # radius 1 at spacing 1/16: nodes at -15/16 .. 15/16 -> 31 nodes
    assert int(np.sum(g.ball(1.0))) == 31


# --------------------------------------------------------------------------
# operator: constants, spike oracle, eigenfunctions

def test_constant_field_annihilated_banded():
    g = grid_1d(64)
    op = DiscreteOperator(g, rough_kernel(), strategy="banded")
    out = op.apply(np.full(g.n_nodes, 2.75))
    # the difference form subtracts w(x) from w(y) before weighting, so a
    # constant cancels before any rounding can creep in
    assert np.all(out == 0.0)


def test_constant_field_annihilated_dense():
    g = grid_1d(64)
    op = DiscreteOperator(g, rough_kernel(), strategy="dense")
    # the double sum weights w(y) - w(x), so even a large constant cancels
    # exactly (A w - rowsum * w left ulps of the row mass times 2.75e90)
    for value in (2.75, 2.75e90):
        assert np.all(op.apply(np.full(g.n_nodes, value)) == 0.0)


def hand_rolled_apply(grid: Grid, kernel, values: np.ndarray) -> np.ndarray:
    """Independent O(M^2) double loop with explicit periodic distance."""
    m = grid.n_nodes
    coords = grid.node_coords()
    h_n = grid.spacing ** grid.dimension
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(m):
            if i == j:
                continue
            delta = coords[j] - coords[i]
            delta = delta - grid.side_length * np.round(
                delta / grid.side_length)
            d = float(np.linalg.norm(delta))
            if d > kernel.spec.truncation_radius:
                continue
            k = float(kernel.evaluate(0.0, coords[i], coords[j], dist=d))
            acc += (values[j] - values[i]) * k
        out[i] = acc * h_n
    return out


def test_spike_matches_double_loop_oracle():
    g = Grid(dimension=1, side_length=16.0, points_per_axis=64)
    k = power_law_kernel()
    values = np.zeros(g.n_nodes)
    values[13] = 1.0
    oracle = hand_rolled_apply(g, k, values)
    dense = DiscreteOperator(g, k, strategy="dense").apply(values)
    banded = DiscreteOperator(g, k, strategy="banded").apply(values)
    scale = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(dense - oracle)) <= 1e-12 * scale
    assert np.max(np.abs(banded - oracle)) <= 1e-12 * scale


def test_rough_spike_matches_double_loop_oracle():
    g = Grid(dimension=1, side_length=16.0, points_per_axis=64)
    k = rough_kernel(seed=17)
    values = np.zeros(g.n_nodes)
    values[40] = -2.0
    oracle = hand_rolled_apply(g, k, values)
    got = DiscreteOperator(g, k, strategy="banded").apply(values)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * float(
        np.max(np.abs(oracle)))


def test_cosine_eigenvalue_error_decreases_with_resolution():
    # the dense sum refines toward its own 1024-point evaluation; the
    # banded strategy is held to the same reference by the acceptance gate
    k = power_law_kernel(truncation=math.inf)
    ref = cosine_mode_eigenvalue(1024, k, strategy="dense")
    errors = [abs(cosine_mode_eigenvalue(m, k, strategy="dense") - ref)
              / abs(ref) for m in (64, 128, 256)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-2


def test_dense_refused_above_the_node_cap():
    # a 65 x 65 matrix would take 143 MB; the operator refuses it when built
    k = power_law_kernel(dimension=2)
    big = Grid(dimension=2, side_length=16.0, points_per_axis=65)
    tracemalloc.start()
    try:
        with pytest.raises(NlflowError, match="at most 4096"):
            DiscreteOperator(big, k, strategy="dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    oracle = Grid(dimension=2, side_length=16.0, points_per_axis=64)
    assert DiscreteOperator(oracle, k, strategy="dense").grid.n_nodes == \
        DENSE_MAX_NODES


def test_strategy_equivalence_within_tolerance():
    g = grid_1d(256)
    k = power_law_kernel()
    w = make_initial(g, "random", amplitude=1.0, seed=44)
    dense = DiscreteOperator(g, k, strategy="dense").apply(w.values)
    banded = DiscreteOperator(g, k, strategy="banded").apply(w.values)
    scale = float(np.max(np.abs(dense)))
    assert np.max(np.abs(dense - banded)) <= 1e-12 * scale


def full_offset_table(grid, kernel, t):
    """K(t, x, x + d) for every nonzero offset d within the radius and every
    node x, the table a full stencil would hold: (deltas, values)."""
    coords, index = grid.node_coords(), grid.node_indices()
    M, h = grid.points_per_axis, grid.spacing
    deltas = np.where(index <= M // 2, index, index - M)
    dists = np.linalg.norm(deltas, axis=1) * h
    keep = (dists > 0.0) & (dists <= kernel.spec.truncation_radius)
    deltas, dists = deltas[keep], dists[keep]
    values = np.empty((deltas.shape[0], grid.n_nodes))
    for lo in range(0, deltas.shape[0], 64):
        rows = slice(lo, lo + 64)
        ycoords = (index + deltas[rows, None]) % M * h
        values[rows] = kernel.evaluate(t, coords, ycoords,
                                       dist=dists[rows, None])
    return deltas, values


@pytest.mark.parametrize("family, t", [
    ("rough-static", 0.0), ("rough-time-dependent", 0.0),
    ("rough-time-dependent", 0.15)])
@pytest.mark.parametrize("dim, points", [(1, 256), (2, 64)])
def test_half_table_rests_on_shifted_symmetry(family, t, dim, points):
    # K(x, x - d) = K(x - d, x): the -d row is the +d row shifted by d, bit
    # for bit, so the banded operator keeps only one row of each pair
    g = Grid(dimension=dim, side_length=16.0, points_per_axis=points)
    k = make_kernel(KernelSpec(dimension=dim, order=1.0, ellipticity=4.0,
                               truncation_radius=3.0, family=family, seed=11))
    deltas, full = full_offset_table(g, k, t)
    row_of = {tuple(d): i for i, d in enumerate(np.mod(deltas, points).tolist())}
    axes = tuple(range(dim))
    for i, d in enumerate(deltas.tolist()):
        partner = full[row_of[tuple(np.mod(np.negative(d), points).tolist())]]
        shifted = np.roll(full[i].reshape(g.shape), d, axis=axes)
        assert np.array_equal(partner.reshape(g.shape), shifted)
    op = DiscreteOperator(g, k, strategy="banded")
    kept = [row_of[tuple(d)] for d in np.mod(op.deltas, points).tolist()]
    assert 2 * len(kept) == deltas.shape[0]
    assert np.array_equal(op.offset_values(t), full[kept])
    # the row sums from the half table: each row plus its shift
    want = full.sum(axis=0) * g.spacing ** dim
    assert np.max(np.abs(op.rowsums(t) - want)) <= 1e-12 * np.max(want)


def builds(op, calls):
    """Results of `calls`, (method, t) pairs on `op`, and the offset tables
    they built."""
    before = COUNTERS["offset_table_builds"]
    out = [getattr(op, name)(*args) for name, *args in calls]
    return out, COUNTERS["offset_table_builds"] - before


def test_static_operator_builds_its_table_once():
    op = DiscreteOperator(grid_1d(), rough_kernel(), "banded")
    tables, n = builds(op, [("offset_values", t)
                            for t in np.linspace(0.0, 5.0, 50)])
    assert n == 1
    assert all(table is tables[0] for table in tables)


def test_time_dependent_operator_builds_once_per_epoch():
    # epochs of length 0.1: 0, 0, 1, 1, 2
    k = make_kernel(KernelSpec(order=1.0, ellipticity=4.0,
                               truncation_radius=3.0,
                               family="rough-time-dependent", seed=5))
    times = (0.0, 0.05, 0.1, 0.15, 0.25)
    op = DiscreteOperator(grid_1d(), k, "banded")
    tables, n = builds(op, [("offset_values", t) for t in times])
    assert n == 3
    for t, table in zip(times, tables):
        fresh = DiscreteOperator(grid_1d(), k, "banded").offset_values(t)
        assert np.array_equal(table, fresh)


def test_dense_operator_alternating_its_two_tables():
    # the operator holds one table: the matrix and the offset table replace
    # each other, and each is the one a fresh operator builds
    g, k = grid_1d(32), make_kernel(KernelSpec(
        order=1.0, ellipticity=4.0, truncation_radius=3.0,
        family="rough-time-dependent", seed=5))
    w = make_initial(g, "random", seed=2).values
    calls = [call for t in (0.0, 0.05, 0.1) for call in (
        ("offset_values", t), ("apply", w, t))]
    got, n = builds(DiscreteOperator(g, k, "dense"), calls)
    assert n == 3
    for (name, *args), value in zip(calls, got):
        fresh = getattr(DiscreteOperator(g, k, "dense"), name)(*args)
        assert np.array_equal(value, fresh)


def test_apply_deterministic_bitwise():
    g = grid_1d(128)
    k = rough_kernel(seed=3)
    w = make_initial(g, "random", seed=12)
    op = DiscreteOperator(g, k, strategy="banded")
    a = op.apply(w.values)
    b = DiscreteOperator(g, k, strategy="banded").apply(w.values)
    assert np.array_equal(a, b)


def test_mass_conservation_scaled_drift():
    # kernel symmetry makes the exact sum zero; the rolled accumulation
    # reorders additions, so allow last-ulp drift scaled by the field size
    g = grid_1d(256)
    for seed in range(5):
        w = make_initial(g, "random", amplitude=2.0, seed=seed)
        out = DiscreteOperator(g, rough_kernel(seed), "banded").apply(w.values)
        total = float(np.sum(out)) * g.spacing
        scale = float(np.sum(np.abs(out))) * g.spacing + 1.0
        assert abs(total) <= 1e-13 * scale


def test_dissipativity_of_operator():
    g = grid_1d(128)
    k = rough_kernel(seed=8)
    op = DiscreteOperator(g, k, strategy="banded")
    for seed in range(5):
        w = make_initial(g, "random", seed=seed)
        val = float(np.dot(op.apply(w.values), w.values))
        assert val <= 1e-12


# --------------------------------------------------------------------------
# bilinear form

def test_bilinear_constant_slot_vanishes():
    g = grid_1d(64)
    k = power_law_kernel()
    u = Field(g, np.full(g.n_nodes, 3.0))
    v = make_initial(g, "random", seed=1)
    assert bilinear_form(k, u, v) == 0.0
    assert bilinear_form(k, v, u) == 0.0


def test_bilinear_positive_semidefinite_100_seeds():
    g = grid_1d(64)
    k = rough_kernel(seed=2)
    for seed in range(100):
        u = make_initial(g, "random", amplitude=1.5, seed=seed)
        assert bilinear_form(k, u, u) >= 0.0


def test_bilinear_symmetric_in_arguments():
    g = grid_1d(64)
    k = rough_kernel(seed=4)
    u = make_initial(g, "random", seed=5)
    v = make_initial(g, "random", seed=6)
    assert bilinear_form(k, u, v) == pytest.approx(
        bilinear_form(k, v, u), rel=1e-13)


def test_summation_by_parts_identity():
    # sum_x (Lu)(x) v(x) h^N = -(1/2) B[u, v]
    g = grid_1d(64)
    for k in (power_law_kernel(), rough_kernel(seed=7)):
        op = DiscreteOperator(g, k, strategy="dense")
        for seed in (0, 1, 2):
            u = make_initial(g, "random", seed=seed)
            v = make_initial(g, "random", seed=seed + 50)
            lhs = float(np.dot(op.apply(u.values), v.values)
                        * g.spacing)
            rhs = -0.5 * bilinear_form(k, u, v)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_bilinear_grid_mismatch_rejected():
    k = power_law_kernel()
    u = Field(grid_1d(64), np.zeros(64))
    v = Field(grid_1d(128), np.zeros(128))
    with pytest.raises(NlflowError, match="different grids"):
        bilinear_form(k, u, v)


# --------------------------------------------------------------------------
# fractional seminorm

def test_seminorm_constant_is_zero():
    g = grid_1d(64)
    assert seminorm_sq(g, np.full(g.n_nodes, 9.0), 1.0) == 0.0


def test_seminorm_quadratic_homogeneity_exact():
    g = grid_1d(64)
    u = make_initial(g, "random", seed=9)
    base = seminorm_sq(g, u.values, 1.0)
    scaled = seminorm_sq(g, 2.0 * u.values, 1.0)
    assert scaled == 4.0 * base


def test_seminorm_bounded_by_form_plus_l2():
    # seminorm <= Lambda * B[u,u] + C * ||u||^2 with C measured on the
    # ensemble and logged; the bound must hold with a fixed C afterwards
    g = grid_1d(128)
    k = power_law_kernel()
    ratios = []
    for seed in range(20):
        u = make_initial(g, "random", amplitude=1.0, seed=seed)
        semi = seminorm_sq(g, u.values, 1.0)
        form = 4.0 * bilinear_form(k, u, u)
        l2sq = u.l2_norm() ** 2
        ratios.append((semi - form) / l2sq)
    c_discrete = max(ratios)
    print(f"measured C_discrete = {c_discrete:.6f}")
    for seed in range(20, 40):
        u = make_initial(g, "random", amplitude=0.7, seed=seed)
        semi = seminorm_sq(g, u.values, 1.0)
        bound = 4.0 * bilinear_form(k, u, u) \
            + max(c_discrete, 0.0) * u.l2_norm() ** 2 + 1e-12
        assert semi <= bound * (1.0 + 1e-9)


# --------------------------------------------------------------------------
# 2d sanity

def test_2d_constant_and_oracle_small_grid():
    g = Grid(dimension=2, side_length=16.0, points_per_axis=16)
    k = rough_kernel(seed=6, dimension=2)
    op = DiscreteOperator(g, k, strategy="banded")
    const = op.apply(np.full(g.n_nodes, 1.25))
    assert np.all(const == 0.0)
    values = np.zeros(g.n_nodes)
    values[37] = 1.0
    oracle = hand_rolled_apply(g, k, values)
    got = op.apply(values)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * float(
        np.max(np.abs(oracle)))


@pytest.mark.parametrize("dim, points", [(1, 64), (2, 45)])
def test_stacked_rows_sum_as_they_would_alone(dim, points):
    # every batch row takes the same blocks and reductions, bit for bit
    g = Grid(dimension=dim, side_length=16.0, points_per_axis=points)
    op = DiscreteOperator(g, rough_kernel(seed=4, dimension=dim), "banded")
    table = op.offset_values()
    stack = np.random.default_rng(points).uniform(-1.0, 1.0,
                                                  (2, 3, g.n_nodes))
    sums = op.stencil.offset_sum(stack.reshape((2, 3) + g.shape), table,
                                 np.tanh)
    semi = seminorm_sq(g, stack, 1.0)
    for i in range(2):
        for j in range(3):
            alone = op.stencil.offset_sum(stack[i, j].reshape(g.shape),
                                          table, np.tanh)
            assert np.array_equal(sums[i, j], alone)
            assert semi[i, j] == seminorm_sq(g, stack[i, j], 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), amp=st.floats(0.1, 3.0))
def test_property_form_nonnegative_and_sbp(seed, amp):
    g = grid_1d(64)
    k = rough_kernel(seed=seed % 7)
    u = make_initial(g, "random", amplitude=amp, seed=seed)
    form = bilinear_form(k, u, u)
    assert form >= 0.0
    op = DiscreteOperator(g, k, strategy="banded")
    lhs = float(np.dot(op.apply(u.values), u.values) * g.spacing)
    assert lhs == pytest.approx(-0.5 * form, rel=1e-11, abs=1e-13)
