"""Explicit flow integration: Euler steps, stability bound, dissipation
records."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import banded_apply, bilinear_form, dense_apply, dense_matrix
from nlflow import flow
from nlflow.errors import NlflowError
from nlflow.fields import make_initial
from nlflow.flow import (
    FlowProblem,
    Trajectory,
    _rhs_and_energy,
    linear_energy,
    nonlinear_energy,
    run_flow,
    stable_dt,
)
from nlflow.grid import DiscreteOperator, Field, Grid
from nlflow.kernels import KernelSpec, make_kernel
from nlflow.potentials import PotentialSpec, make_potential


def grid_1d(points=64):
    return Grid(dimension=1, side_length=16.0, points_per_axis=points)


def power_law_kernel(order=1.0, truncation=3.0):
    return make_kernel(KernelSpec(
        dimension=1, order=order, ellipticity=4.0,
        truncation_radius=truncation, family="power-law"))


def rough_kernel(seed=7, family="rough-static"):
    return make_kernel(KernelSpec(
        dimension=1, order=1.0, ellipticity=4.0,
        truncation_radius=3.0, family=family, seed=seed))


def quadratic():
    return make_potential(PotentialSpec(family="quadratic"))


def huber(ellipticity=4.0):
    return make_potential(PotentialSpec(family="smoothed-huber",
                                        ellipticity=ellipticity))


def banded(grid, kernel):
    return DiscreteOperator(grid, kernel, strategy="banded")


def dense_generator(grid, kernel):
    """The full n x n generator, column by column."""
    cols = [dense_apply(grid, kernel, col) for col in np.eye(grid.n_nodes)]
    return np.column_stack(cols)


# --------------------------------------------------------------------------
# fixed points and order-preserving structure

def test_constant_initial_is_fixed_point_linear():
    g = grid_1d()
    traj = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=rough_kernel(),
        initial=Field(g, np.full(g.n_nodes, 2.75)), t_end=0.5))
    assert np.all(traj.fields == 2.75)
    assert np.all(traj.vmax == 2.75)


def test_constant_initial_is_fixed_point_nonlinear():
    g = grid_1d()
    traj = run_flow(FlowProblem(
        kind="nonlinear", grid=g, kernel=power_law_kernel(),
        initial=Field(g, np.full(g.n_nodes, -0.4)),
        t_end=0.5, potential=huber()))
    # phi'(0) = 0, so a flat state never moves
    assert np.all(traj.fields == -0.4)


def test_bracket_preserved_by_monotone_steps():
    g = grid_1d()
    traj = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=rough_kernel(seed=3),
        initial=make_initial(g, "random", amplitude=1.0, seed=11),
        t_end=2.0))
    # each update is a convex combination of old node values, so the global
    # max cannot rise and the global min cannot fall
    assert np.all(np.diff(traj.vmax) <= 1e-12)
    assert np.all(np.diff(traj.vmin) >= -1e-12)
    assert traj.vmax[-1] <= 1.0 + 1e-12
    assert traj.vmin[-1] >= -1.0 - 1e-12


# --------------------------------------------------------------------------
# accuracy against the matrix exponential

def test_stepper_order_against_expm():
    g = grid_1d(32)
    k = power_law_kernel()
    w0 = make_initial(g, "bump", amplitude=1.0, seed=0, sigma=1.5)
    t_end = 0.5
    exact = scipy.linalg.expm(t_end * dense_generator(g, k)) @ w0.values

    base = 2.0 ** math.floor(math.log2(stable_dt(banded(g, k))))
    errors = []
    for split in (2, 4, 8):
        traj = run_flow(FlowProblem(
            kind="linear", grid=g, kernel=k, initial=w0,
            t_end=t_end, dt_max=base / split),
            sample_every=10 ** 9)
        errors.append(float(np.max(np.abs(traj.fields[-1] - exact))))
    assert errors[0] > errors[1] > errors[2]
    slope = math.log2(errors[0] / errors[2]) / 2.0
    assert slope > 0.75             # Euler steps are first order


def test_single_mode_decays_at_its_eigenrate():
    g = grid_1d()
    k = power_law_kernel(truncation=math.inf)
    x = g.node_coords()[:, 0]
    w0 = Field(g, np.cos(2.0 * np.pi * 3 * x / g.side_length))
    op = DiscreteOperator(g, k, strategy="banded")
    lam = -float(np.dot(banded_apply(op, w0.values), w0.values)
                 / np.dot(w0.values, w0.values))
    t_end = 0.2
    traj = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=k, initial=w0,
        t_end=t_end, dt_max=0.01), sample_every=10 ** 9)
    expected = math.exp(-lam * t_end) * w0.values
    assert np.max(np.abs(traj.fields[-1] - expected)) < 0.01 * math.exp(
        -lam * t_end)


# --------------------------------------------------------------------------
# the quadratic potential collapses the nonlinear flow onto the linear one

def test_quadratic_flow_matches_linear_bitwise():
    g = grid_1d()
    k = power_law_kernel()
    w0 = make_initial(g, "random", amplitude=1.0, seed=5)
    lin = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=k, initial=w0, t_end=1.0))
    non = run_flow(FlowProblem(
        kind="nonlinear", grid=g, kernel=k, initial=w0, t_end=1.0,
        potential=quadratic()))
    assert np.array_equal(lin.fields, non.fields)
    assert np.array_equal(lin.step_times, non.step_times)


@pytest.mark.parametrize("dim, points, radius, family", [
    # the power-law cases keep their ids from before the family axis
    pytest.param(dim, points, radius, family, id=f"{dim}-{points}-{radius}"
                 + ("" if family == "power-law" else f"-{family}"))
    for family in ("power-law", "rough-static") for dim in (1, 2)
    for points in (45, 48, 64) for radius in (3.0, math.inf)])
def test_nonlinear_rhs_and_energy_match_dense_pair_sums(dim, points, radius,
                                                        family):
    # the half-stencil fluxes against sum_j A_ij phi'(v_j - v_i) and
    # h^N sum_ij A_ij phi(v_j - v_i) over the dense matrix; at radius inf
    # and even M the offsets with 2d = 0 (mod M) are their own partners,
    # at M = 45 none is and the spacing is not dyadic.  The rough-static
    # kernel's table holds a value per offset and node, as the benchmark's
    # energy probe on the 1-d ensemble operator does
    g = Grid(dimension=dim, side_length=16.0, points_per_axis=points)
    kernel = make_kernel(KernelSpec(
        dimension=dim, order=1.0, ellipticity=4.0, truncation_radius=radius,
        family=family, seed=7))
    op = DiscreteOperator(g, kernel, strategy="banded")
    A = dense_matrix(g, kernel)
    v = np.random.default_rng(points + dim).uniform(-2.0, 2.0, g.n_nodes)
    for pot in (quadratic(), huber()):
        rhs, energy = _rhs_and_energy(op, pot, v, 0.0)
        want_rhs = np.empty(g.n_nodes)
        want_energy = 0.0
        for lo in range(0, g.n_nodes, 512):
            rows = slice(lo, lo + 512)
            diffs = v[None, :] - v[rows, None]
            want_rhs[rows] = np.sum(A[rows] * pot.d1(diffs), axis=1)
            want_energy += float(np.sum(A[rows] * pot.value(diffs)))
        want_energy *= g.spacing ** dim
        assert np.max(np.abs(rhs - want_rhs)) <= 1e-12 * np.max(
            np.abs(want_rhs))
        assert abs(energy - want_energy) <= 1e-12 * want_energy


# --------------------------------------------------------------------------
# dissipation records

def test_l2_nonincreasing_per_step():
    g = grid_1d()
    traj = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=rough_kernel(seed=9),
        initial=make_initial(g, "random", amplitude=1.0, seed=2),
        t_end=2.0))
    assert np.all(np.diff(traj.l2) <= 1e-12 * traj.l2[0])


def test_huber_energy_nonincreasing_thousand_steps():
    g = grid_1d()
    traj = run_flow(FlowProblem(
        kind="nonlinear", grid=g, kernel=power_law_kernel(),
        initial=make_initial(g, "random", amplitude=1.0, seed=8),
        t_end=1.0, potential=huber(), dt_max=1e-3), sample_every=100)
    assert traj.meta["n_steps"] >= 1000
    assert np.all(np.diff(traj.energy) <= 1e-12 * traj.energy[0])


def test_energy_functions_match_the_flow_record():
    g = grid_1d()
    k = power_law_kernel()
    w0 = make_initial(g, "random", amplitude=1.0, seed=5)
    op = DiscreteOperator(g, k, strategy="banded")
    for pot in (None, quadratic(), huber()):
        traj = run_flow(FlowProblem(
            kind="linear" if pot is None else "nonlinear", grid=g, kernel=k,
            initial=w0, t_end=0.1, potential=pot))
        energy = linear_energy(op, w0.values) if pot is None \
            else nonlinear_energy(op, pot, w0.values)
        assert energy == traj.energy[0]
    # against the direct pair sum, also with a per-node (rough) kernel table:
    # V = B / 2 for phi(x) = x^2 / 2
    for kern in (k, rough_kernel(seed=3)):
        op = DiscreteOperator(g, kern, strategy="banded")
        form = bilinear_form(kern, w0, w0)
        assert linear_energy(op, w0.values) == pytest.approx(form, rel=1e-13)
        assert nonlinear_energy(op, quadratic(), w0.values) == pytest.approx(
            0.5 * form, rel=1e-13)


def test_mass_conserved_along_flow():
    g = grid_1d()
    traj = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=rough_kernel(seed=4),
        initial=make_initial(g, "random", amplitude=2.0, seed=3),
        t_end=1.0))
    assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12


# --------------------------------------------------------------------------
# stability bound

def test_stable_dt_positive_and_shrinks_with_resolution():
    k = power_law_kernel()
    coarse = stable_dt(banded(grid_1d(64), k))
    fine = stable_dt(banded(grid_1d(128), k))
    assert 0.0 < fine < coarse


def test_stable_dt_matches_brute_force_rowsum():
    g = grid_1d()
    k = rough_kernel(seed=12)
    coords = g.node_coords()
    rs = np.zeros(g.n_nodes)
    for i in range(g.n_nodes):
        for j in range(g.n_nodes):
            if i == j:
                continue
            delta = coords[j] - coords[i]
            delta -= g.side_length * np.round(delta / g.side_length)
            d = float(np.linalg.norm(delta))
            if d > k.spec.truncation_radius:
                continue
            # evaluate at the wrapped node pair with the torus distance, the
            # only reading under which the piecewise kernel is periodic
            rs[i] += float(k.evaluate(0.0, coords[i], coords[j], dist=d))
    rs *= g.spacing ** g.dimension
    assert stable_dt(banded(g, k)) == pytest.approx(0.9 / float(rs.max()),
                                                    rel=1e-12)


def test_stable_dt_accounts_for_potential_curvature():
    g = grid_1d()
    k = power_law_kernel()
    # smoothed curvature peaks at Lambda^(1/2) = 2, halving the safe step
    assert stable_dt(banded(g, k), potential=huber()) == pytest.approx(
        stable_dt(banded(g, k)) / 2.0, rel=1e-12)


def test_degenerate_kernel_has_no_stable_step():
    class _Zero:
        spec = KernelSpec(dimension=1, order=1.0, ellipticity=4.0,
                          truncation_radius=3.0, family="power-law")
        translation_invariant = True
        time_dependent = False

        def radial_profile(self, d):
            return np.zeros_like(np.asarray(d, dtype=float))

        def evaluate(self, t, x, y):
            x = np.asarray(x, dtype=float)
            return np.zeros(x.shape[:-1])

    with pytest.raises(NlflowError, match="row sums vanish"):
        stable_dt(banded(grid_1d(), _Zero()))


# --------------------------------------------------------------------------
# problem validation and run bookkeeping

def test_problem_validation_errors():
    g = grid_1d()
    w0 = make_initial(g, "random", seed=0)
    k = power_law_kernel()
    with pytest.raises(NlflowError, match="linear or nonlinear"):
        FlowProblem(kind="parabolic", grid=g, kernel=k, initial=w0)
    with pytest.raises(NlflowError, match="end time must exceed"):
        FlowProblem(kind="linear", grid=g, kernel=k, initial=w0,
                    t_start=1.0, t_end=1.0)
    with pytest.raises(NlflowError, match="needs a potential"):
        FlowProblem(kind="nonlinear", grid=g, kernel=k, initial=w0)
    with pytest.raises(NlflowError, match="translation-invariant"):
        FlowProblem(kind="nonlinear", grid=g, kernel=rough_kernel(),
                    initial=w0, potential=quadratic())
    with pytest.raises(NlflowError, match="initial field grid"):
        FlowProblem(kind="linear", grid=grid_1d(32), kernel=k, initial=w0)


def test_run_flow_argument_guards():
    g = grid_1d()
    problem = FlowProblem(kind="linear", grid=g, kernel=power_law_kernel(),
                          initial=make_initial(g, "random", seed=0))
    with pytest.raises(NlflowError, match="sample interval"):
        run_flow(problem, sample_every=0)
    bad = FlowProblem(kind="linear", grid=g, kernel=power_law_kernel(),
                      initial=make_initial(g, "random", seed=0),
                      dt_max=-0.1)
    with pytest.raises(NlflowError, match="dt_max must be positive"):
        run_flow(bad)


def test_sampling_cadence_and_endpoints():
    g = grid_1d()
    traj = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=power_law_kernel(),
        initial=make_initial(g, "random", seed=0),
        t_start=-1.0, t_end=0.0), sample_every=5)
    assert traj.times[0] == -1.0
    assert traj.times[-1] == 0.0
    assert np.all(np.isin(traj.times, traj.step_times))
    # one record per state
    assert traj.l2.size == traj.step_times.size


# the non-finite states this test makes warn as numpy reduces them
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in dot:RuntimeWarning",
    "ignore:invalid value encountered in subtract:RuntimeWarning")
def test_non_finite_state_names_its_step(monkeypatch):
    g = grid_1d(256)
    problem = FlowProblem(kind="linear", grid=g, kernel=power_law_kernel(),
                          initial=make_initial(g, "random", seed=0),
                          t_end=0.5)
    assert run_flow(problem).meta["n_steps"] == 15
    rhs, calls = flow._offset_rhs, []

    def poisoned(*args, **kwargs):
        # the RHS of state 4 is infinite, so state 5 is the first bad one
        calls.append(None)
        out = rhs(*args, **kwargs)
        return np.full_like(out, np.inf) if len(calls) == 5 else out

    monkeypatch.setattr(flow, "_offset_rhs", poisoned)
    with pytest.raises(NlflowError, match="after step 5$"):
        run_flow(problem)
    monkeypatch.setattr(flow, "_offset_rhs", rhs)
    values = make_initial(g, "random", seed=0).values
    values[7] = np.nan
    with pytest.raises(NlflowError, match="after step 1$"):
        run_flow(FlowProblem(kind="linear", grid=g, kernel=power_law_kernel(),
                             initial=Field(g, values), t_end=0.5))


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_chunked_records_match_per_state_sums(kind, sample_every):
    # 256 nodes fill a state buffer in 64 states; the run takes 141
    g = grid_1d(256)
    problem = FlowProblem(
        kind=kind, grid=g, initial=make_initial(g, "random", seed=3),
        kernel=rough_kernel() if kind == "linear" else power_law_kernel(),
        potential=huber() if kind == "nonlinear" else None,
        t_end=0.7, dt_max=0.005)
    traj = run_flow(problem, sample_every=sample_every)
    assert traj.step_times.size == 141
    op = DiscreteOperator(g, problem.kernel, "banded")
    pot = problem.potential
    # the reference states take Euler steps one state at a time
    states = [problem.initial.values]
    for t, dt in zip(traj.step_times, np.diff(traj.step_times)):
        w = states[-1]
        states.append(_rhs_and_energy(op, pot, w, t)[0] * dt + w)
    states, h = np.array(states), g.spacing
    expected = {
        "l2": [math.sqrt(float(np.sum(w * w)) * h) for w in states],
        "vmin": [float(w.min()) for w in states],
        "vmax": [float(w.max()) for w in states],
        "mass": [float(np.sum(w)) * h for w in states],
        "energy": [
            linear_energy(op, w, t) if kind == "linear"
            else nonlinear_energy(op, pot, w, t)
            for w, t in zip(states, traj.step_times)],
    }
    for name, values in expected.items():
        assert np.array_equal(getattr(traj, name), values), name
    keep = np.union1d(np.arange(0, 141, sample_every), 140)
    assert np.array_equal(traj.fields, states[keep])
    assert np.array_equal(traj.times, traj.step_times[keep])


def test_time_dependent_kernel_runs_deterministically():
    g = grid_1d()
    def one():
        return run_flow(FlowProblem(
            kind="linear", grid=g,
            kernel=rough_kernel(seed=5, family="rough-time-dependent"),
            initial=make_initial(g, "random", amplitude=1.0, seed=5),
            t_end=0.35))
    a, b = one(), one()
    assert np.array_equal(a.fields, b.fields)
    assert np.array_equal(a.l2, b.l2)
    assert np.all(np.diff(a.l2) <= 1e-12 * a.l2[0])


def test_window_helpers():
    g = grid_1d(32)
    traj = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=power_law_kernel(),
        initial=make_initial(g, "random", seed=0), t_end=1.0))
    assert traj.window(0.0, 1.0).size == traj.n_samples
    with pytest.raises(NlflowError, match="only 0 samples cover"):
        traj.window(2.0, 3.0)


def test_synthetic_trajectory_rejects_bad_times():
    g = grid_1d(32)
    with pytest.raises(NlflowError, match="strictly increase"):
        Trajectory.from_fields(g, [0.0, 0.0, 1.0],
                               np.zeros((3, g.n_nodes)))
    with pytest.raises(NlflowError, match="matching times"):
        Trajectory.from_fields(g, [0.0, 1.0], np.zeros((3, g.n_nodes)))


# --------------------------------------------------------------------------
# property: contraction and bracket hold for arbitrary seeds

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       amplitude=st.floats(0.1, 5.0, allow_nan=False))
def test_flow_contracts_for_any_seed(seed, amplitude):
    g = Grid(dimension=1, side_length=16.0, points_per_axis=32)
    traj = run_flow(FlowProblem(
        kind="linear", grid=g, kernel=rough_kernel(seed=seed % 97),
        initial=make_initial(g, "random", amplitude=amplitude, seed=seed),
        t_end=0.1))
    assert np.all(np.diff(traj.l2) <= 1e-12 * max(traj.l2[0], 1.0))
    assert traj.vmax[-1] <= amplitude + 1e-12
    assert traj.vmin[-1] >= -amplitude - 1e-12
