"""Barriers, truncated energies, level-set measures, and the four detectors."""

import dataclasses
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cached_lemma_run,
    cached_level_run,
    cached_oscillation_run,
    cached_recurrence_run,
    constant_trajectory,
    corollary1_counterexample,
    corollary2_counterexample,
    lemma1_counterexample,
    lemma2_counterexample,
    synthetic_trajectory,
)
from nlflow import grid as grid_module
from nlflow.degiorgi import (
    _truncation_box,
    barrier,
    check_recurrence,
    chebyshev_chain,
    lambda_support,
    level_set_measures,
    phi_barrier,
    truncated_energies,
    verify_corollary1,
    verify_corollary2,
    verify_lemma1,
    verify_lemma2,
)
from nlflow.errors import NlflowError
from nlflow.flow import Trajectory
from nlflow.grid import Grid
from nlflow.oscillation import check_scale_barrier, oscillation_decay, \
    parabolic_rescale, rescaling_sequence, unit_oscillation, verify_lemma3


def radial(r, exponent, support=0.0):
    return float(barrier(r, exponent, support))


def hump(r, lam=0.25):
    # F, read off phi_0 = 1 + F where psi_lambda vanishes (|r| < 3 < 256)
    return float(phi_barrier(r, 1.0, lam, 0)) - 1.0


# --------------------------------------------------------------------------
# barrier closed forms

def test_psi_closed_form_values():
    assert radial(0.0, 0.5) == 0.0
    assert radial(1.0, 0.5) == 0.0
    assert radial(4.0, 0.5) == 1.0          # 4^(1/2) - 1 at s = 1
    assert radial(9.0, 0.5) == 2.0
    assert radial(-9.0, 0.5) == 2.0         # a signed coordinate is a radius
    assert radial(16.0, 0.5 * 0.5) == 1.0   # 16^(1/4) = 2 at s = 1/2


def test_psi1_is_quarter_power():
    assert radial(16.0, 0.25) == 1.0        # 16^(1/4) - 1 at s = 1
    assert radial(1.0, 0.25) == 0.0


def test_cutoff_hump_values():
    assert hump(0.0) == -1.0
    assert hump(3.0) == 0.0
    assert hump(-3.0) == 0.0
    assert hump(math.sqrt(8.5)) == pytest.approx(-0.5)


def test_lambda_barrier_support():
    support = lambda_support(0.25, 1.0)
    assert support == pytest.approx(256.0)    # 0.25^(-4)
    assert radial(100.0, 0.25, support) == 0.0
    assert radial(272.0, 0.25, support) == pytest.approx(1.0)  # 16^(1/4) = 2
    assert radial(300.0, 0.25, support) > 0.0


def test_flat_exponent_barrier_below_psi1():
    r = np.geomspace(0.1, 1e4, 2000)
    flat = barrier(r, 0.05, lambda_support(0.25, 1.0))
    quarter = barrier(r, 0.25)
    assert np.all(flat <= quarter + 1e-15)


def test_phi_family_values_and_ordering():
    lam = 0.25
    assert float(phi_barrier(0.0, 1.0, lam, 0)) == 0.0
    assert float(phi_barrier(0.0, 1.0, lam, 1)) == pytest.approx(0.75)
    assert float(phi_barrier(0.0, 1.0, lam, 2)) == pytest.approx(0.9375)
    r = np.linspace(0.0, 400.0, 4001)
    phi0, phi1, phi2 = (phi_barrier(r, 1.0, lam, i) for i in range(3))
    assert np.all(phi0 <= phi1) and np.all(phi1 <= phi2)
    # the three coincide once the hump has closed, and there equal
    # 1 + psi_lambda
    far = r >= 3.0
    assert np.array_equal(phi0[far], phi2[far])
    assert np.array_equal(phi0[far], 1.0 + barrier(
        r[far], 0.25, lambda_support(lam, 1.0)))


def test_barrier_parameter_guards(grid1, calibration):
    # each rule keeps its one statement where the value arrives: lam in
    # (0, 1/3) and eps > 0 in `constant_errors`, the order in the kernel's
    with pytest.raises(NlflowError, match="lam must lie"):
        level_set_measures(constant_trajectory(grid1, 0.0), lam=0.5)
    with pytest.raises(NlflowError, match="eps must be positive"):
        check_scale_barrier(calibration.lam, calibration.lam_star, 0.0,
                            calibration.k_sc, 1.0)
    with pytest.raises(NlflowError, match=r"order out of \(0,2\)"):
        Trajectory.from_fields(grid1, [0.0, 1.0],
                               np.zeros((2, grid1.n_nodes)), order=2.0)


def test_scale_barrier_refuses_lam_star_outside_its_interval():
    # 1 - lam_star/2 divides the barrier: lam_star = 2 would divide by zero
    for lam_star in (2.0, 0.0, 1.0):
        with pytest.raises(NlflowError, match=r"lam_star must lie in \(0,"):
            check_scale_barrier(0.25, lam_star, 0.05, 0.5, 1.0)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.0, 1e6, allow_nan=False),
       order=st.floats(0.1, 1.9, allow_nan=False))
def test_barriers_nonnegative_and_monotone(r, order):
    support = lambda_support(0.25, order)
    for exponent, at in ((0.5 * order, 0.0), (0.25 * order, 0.0),
                         (0.25 * order, support), (0.05, support)):
        lo = radial(r, exponent, at)
        hi = radial(r * 1.5 + 0.1, exponent, at)
        assert 0.0 <= lo <= hi
    # -1 <= F <= 0, as phi_0 = 1 + psi_lambda + F
    psi_lam = radial(r, 0.25 * order, support)
    assert psi_lam <= float(phi_barrier(r, order, 0.25, 0)) <= 1.0 + psi_lam


# --------------------------------------------------------------------------
# truncated energies

def seminorm_sq_brute(grid, u, order=1.0, cutoff=2.0):
    """Independent double loop over periodic offsets within the cutoff."""
    n = grid.n_nodes
    h = grid.spacing
    total = 0.0
    for k in range(1, n):
        d = abs(k if k <= n // 2 else k - n) * h
        if d > cutoff:
            continue
        diff = u - np.roll(u, -k)
        total += float(np.sum(diff * diff)) * d ** (-(1.0 + order))
    return total * h * h


def test_truncated_energies_vanish_for_zero_field(grid1):
    traj = constant_trajectory(grid1, 0.0, t_lo=-2.0, t_hi=0.0, n=65)
    u = truncated_energies(traj, k_max=3)
    assert np.all(u == 0.0)
    rep = check_recurrence(u, traj.order, grid1.dimension)
    assert rep.vacuous and rep.decayed and rep.degenerate
    assert math.isnan(rep.constant)


def test_truncated_energies_vanish_below_the_barrier(grid1):
    psi = barrier(grid1.origin_distance(), 0.5)
    times = np.linspace(-2.0, 0.0, 65)
    traj = synthetic_trajectory(grid1, times,
                                np.tile(psi, (times.size, 1)))
    assert np.all(truncated_energies(traj, k_max=3) == 0.0)


def test_truncated_energies_match_constant_field_oracle(grid1):
    traj = constant_trajectory(grid1, 1.0, t_lo=-2.0, t_hi=0.0, n=65)
    u_levels = truncated_energies(traj, k_max=3)
    assert u_levels.shape == (4,)
    psi = barrier(grid1.origin_distance(), 0.5)
    h = grid1.spacing
    for k in range(4):
        cut = 0.5 - 0.5 * 0.5 ** k
        u = np.maximum(1.0 - cut - psi, 0.0)
        mass = float(np.sum(u * u)) * h
        semi = seminorm_sq_brute(grid1, u)
        # constant-in-time data: sup = the single-slice mass and the time
        # integral is just the window length times the seminorm
        expected = mass + (1.0 + 0.5 ** k) * semi
        assert u_levels[k] == pytest.approx(expected, rel=1e-10)


def test_truncated_energies_monotone_on_flow_runs():
    for seed in (1, 2, 3):
        traj = cached_recurrence_run(seed)
        u = truncated_energies(traj, k_max=5)
        assert np.all(np.diff(u) <= 0.0)
        assert np.all(u >= 0.0)


def test_truncated_energies_coverage_guards(grid1):
    with pytest.raises(NlflowError, match="need at least one rung"):
        truncated_energies(
            constant_trajectory(grid1, 0.0, -2.0, 0.0, 65), k_max=0)
    short = constant_trajectory(grid1, 0.0, t_lo=-1.0, t_hi=0.0, n=33)
    with pytest.raises(NlflowError, match="only 0 samples cover"):
        truncated_energies(short, k_max=3)
    coarse = constant_trajectory(grid1, 0.0, t_lo=-2.0, t_hi=0.0, n=9)
    with pytest.raises(NlflowError, match="resolve at most 0 rungs"):
        truncated_energies(coarse, k_max=3)


def test_recurrence_constant_on_synthetic_geometric_sequence():
    # U_k chosen so U_k / U_{k-1}^2 = 0.1 at every level (s = 1, N = 1)
    u = np.array([1e-2, 1e-5, 1e-11, 1e-23])
    rep = check_recurrence(u, order=1.0, dimension=1)
    assert rep.ratios.shape == (3,)
    assert rep.ratios[0] == pytest.approx(0.1)
    assert rep.ratios[1] == pytest.approx(0.1 ** 0.5)
    assert rep.ratios[2] == pytest.approx(0.1 ** (1.0 / 3.0))
    assert rep.constant == pytest.approx(0.1 ** (1.0 / 3.0))
    assert rep.decayed and not rep.degenerate and not rep.vacuous


def test_recurrence_exponent_follows_the_trajectory_dimension():
    # a 2-d ladder is graded against U_{k-1}^{1+s/2}, not the 1-d 1+s
    g2 = Grid(dimension=2, side_length=16.0, points_per_axis=16)
    traj = constant_trajectory(g2, 1.0, t_lo=-2.0, t_hi=0.0, n=33)
    u = truncated_energies(traj, k_max=2)
    rep = check_recurrence(u, traj.order, traj.grid.dimension)
    assert rep.ratios[0] == pytest.approx(u[1] / u[0] ** 1.5, rel=1e-12)
    assert rep.ratios[0] != pytest.approx(u[1] / u[0] ** 2.0, rel=1e-6)


# --------------------------------------------------------------------------
# interpolation chain

def test_chebyshev_chain_vacuous_for_zero_field(grid1):
    traj = constant_trajectory(grid1, 0.0, t_lo=-2.0, t_hi=0.0, n=33)
    rep = chebyshev_chain(traj, k_max=3)
    assert np.all(rep.base_integral == 0.0)
    assert np.all(rep.slack == 0.0)
    assert rep.all_nonnegative


def test_chebyshev_chain_matches_brute_force(grid1):
    rng = np.random.default_rng(77)
    times = np.linspace(-2.0, 0.0, 17)
    fields = rng.uniform(-1.0, 2.5, size=(times.size, grid1.n_nodes))
    traj = synthetic_trajectory(grid1, times, fields)
    rep = chebyshev_chain(traj, k_max=3)
    psi = barrier(grid1.origin_distance(), 0.5)
    h = grid1.spacing
    assert rep.slack.shape == (3, 3)
    for i, k in enumerate((1, 2, 3)):
        t_start = -1.0 - 0.5 ** (k - 1)
        inside = times >= t_start - 1e-9
        tw, w = times[inside], fields[inside]
        cut_k = 0.5 - 0.5 * 0.5 ** k
        cut_p = 0.5 - 0.5 * 0.5 ** (k - 1)
        pos_k = np.maximum(w - cut_k - psi, 0.0)
        pos_p = np.maximum(w - cut_p - psi, 0.0)
        assert rep.linear_lhs[i] == pytest.approx(
            np.trapezoid(pos_k.sum(axis=1) * h, tw), rel=1e-12)
        assert rep.indicator_lhs[i] == pytest.approx(
            np.trapezoid((pos_k > 0).sum(axis=1) * h, tw), rel=1e-12)
        assert rep.quadratic_lhs[i] == pytest.approx(
            np.trapezoid((pos_k ** 2).sum(axis=1) * h, tw), rel=1e-12)
        assert rep.base_integral[i] == pytest.approx(
            np.trapezoid((pos_p ** 4).sum(axis=1) * h, tw), rel=1e-12)
    assert rep.all_nonnegative


def test_chebyshev_chain_holds_for_random_fields(grid1):
    times = np.linspace(-2.0, 0.0, 9)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        fields = rng.uniform(-2.0, 3.0, size=(times.size, grid1.n_nodes))
        rep = chebyshev_chain(synthetic_trajectory(grid1, times, fields),
                              k_max=4)
        assert rep.all_nonnegative


def seminorm_brute_nd(grid, u, order=1.0, cutoff=2.0):
    """Every ordered pair of the torus within the cutoff, by np.roll."""
    M, h = grid.points_per_axis, grid.spacing
    ug, total = u.reshape(grid.shape), 0.0
    for d in itertools.product(range(1 - M // 2, M // 2 + 1),
                               repeat=grid.dimension):
        length = float(np.linalg.norm(d)) * h
        if 0.0 < length <= cutoff:
            diff = ug - np.roll(ug, [-k for k in d],
                                axis=tuple(range(grid.dimension)))
            total += float(np.sum(diff * diff)) * length ** (
                -(grid.dimension + order))
    return total * h ** (2 * grid.dimension)


def ladder_brute(traj, k_max):
    """U_0..U_kmax and the Chebyshev sums of k = 1..k_max, on the whole
    torus, by numpy sums and the trapezoid rule."""
    grid, times = traj.grid, traj.times
    psi = barrier(grid.origin_distance(), 0.5)
    h_n = grid.spacing ** grid.dimension

    def pos(k, inside):
        return np.maximum(traj.fields[inside] - (0.5 - 0.5 * 0.5 ** k) - psi,
                          0.0)

    def integral(rows, inside):
        return np.trapezoid(rows.sum(axis=1) * h_n, times[inside])

    u, cheb = [], []
    for k in range(k_max + 1):
        inside = times >= -1.0 - 0.5 ** k - 1e-9
        p = pos(k, inside)
        u.append(np.max((p * p).sum(axis=1)) * h_n + np.trapezoid(
            [seminorm_brute_nd(grid, row) for row in p], times[inside]))
        if k:
            inside = times >= -1.0 - 0.5 ** (k - 1) - 1e-9
            p, base = pos(k, inside), pos(k - 1, inside)
            cheb.append([integral(p, inside), integral(p > 0, inside),
                         integral(p * p, inside),
                         integral(base ** (2.0 + 2.0 / grid.dimension),
                                  inside)])
    return np.array(u), np.array(cheb).T


def _blobs(grid, times, centres, radius, seed):
    """-0.5 plus noise, and uniform(1.5, 3) times a decay in time inside
    each ball of `radius` about the given centres."""
    rng = np.random.default_rng(seed)
    fields = rng.uniform(-0.75, -0.25, size=(times.size, grid.n_nodes))
    coords, L = grid.node_coords(), grid.side_length
    for centre in centres:
        # the minimal image of the centre about each node
        near = np.linalg.norm((centre - coords + 0.5 * L) % L - 0.5 * L,
                              axis=1) < radius
        fields[:, near] = rng.uniform(1.5, 3.0, (times.size, near.sum())) \
            * np.exp(0.4 * times)[:, None]
    return synthetic_trajectory(grid, times, fields)


@pytest.mark.parametrize("case", ["wraps", "covers", "empty", "2-d"])
def test_sub_torus_ladder_matches_brute_force(case):
    # the truncations live on a sub-torus that wraps around node 0 further
    # than the halo reaches, on one whose halo covers the torus (the whole
    # grid is used), on none (every sum is 0), or on a non-square box of a
    # 2-d grid that wraps around both axes
    grid = Grid(dimension=2 if case == "2-d" else 1, side_length=16.0,
                points_per_axis=64 if case == "2-d" else 256)
    k_max = 2 if case == "2-d" else 3
    times = np.linspace(-2.0, 0.0, 8 * 2 ** k_max + 1)
    centres = {"wraps": [[-1.0]], "covers": [[0.0], [5.5], [-5.5]],
               "empty": [], "2-d": [[0.0, 0.0], [1.5, 0.0]]}[case]
    traj = _blobs(grid, times, np.array(centres), 1.5, seed=len(case))
    psi = barrier(grid.origin_distance(), 0.5)
    points, _, _ = _truncation_box(traj, np.arange(times.size), psi)
    assert (points is None) == (case == "covers")
    if case == "wraps":
        assert points < grid.points_per_axis
        assert np.all(traj.fields[:, [0, -1]] > psi[[0, -1]])
    u, cheb = ladder_brute(traj, k_max)
    assert np.any(u > 0.0) == (case != "empty")
    u_levels = truncated_energies(traj, k_max=k_max)
    assert u_levels == pytest.approx(u, rel=1e-12, abs=0.0)
    assert np.all(np.diff(u_levels) <= 0.0)
    rep = chebyshev_chain(traj, k_max=k_max)
    for got, want in zip((rep.linear_lhs, rep.indicator_lhs,
                          rep.quadratic_lhs, rep.base_integral), cheb):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rep.all_nonnegative


# --------------------------------------------------------------------------
# level-set measures

def test_level_set_measures_zero_field(grid1):
    traj = constant_trajectory(grid1, 0.0)
    m = level_set_measures(traj, lam=0.25)
    assert m.below_phi0 == 0.0
    assert m.above_phi2 == 0.0
    assert m.intermediate == 0.0


def test_level_set_measures_constant_two(grid1):
    traj = constant_trajectory(grid1, 2.0)
    m = level_set_measures(traj, lam=0.25)
    # 2 exceeds phi2 <= 1 at every node; the late window spans 2 time units
    assert m.above_phi2 == pytest.approx(2.0 * grid1.side_length, rel=1e-12)
    assert m.below_phi0 == 0.0


def test_level_set_measures_middle_band(grid1):
    lam = 0.25
    phi1 = phi_barrier(grid1.origin_distance(), 1.0, lam, 1)
    traj = constant_trajectory(grid1, 0.0)
    fields = np.tile(phi1, (traj.times.size, 1))
    traj = synthetic_trajectory(grid1, traj.times, fields)
    m = level_set_measures(traj, lam=lam)
    count = int(np.sum(grid1.origin_distance() < 3.0))   # where F < 0
    assert m.intermediate == pytest.approx(3.0 * count * grid1.spacing,
                                           rel=1e-12)
    assert m.below_phi0 == 0.0
    assert m.above_phi2 == 0.0


def test_level_set_measures_need_full_window(grid1):
    short = constant_trajectory(grid1, 0.0, t_lo=-2.0, t_hi=0.0)
    with pytest.raises(NlflowError, match="only 1 samples cover"):
        level_set_measures(short, lam=0.25)


# --------------------------------------------------------------------------
# detectors: worked examples

def test_lemma1_passes_zero_field(grid1):
    traj = constant_trajectory(grid1, 0.0, t_lo=-2.0, t_hi=0.0)
    rep = verify_lemma1(traj, eps0=0.1)
    assert rep.verdict == "pass" and rep.passed
    assert rep.hypothesis_ok and rep.conclusion_ok
    assert rep.numbers["truncated_mass"] == 0.0
    assert rep.numbers["far_field_ok"]


def test_lemma1_flags_uniform_excess(grid1):
    traj = constant_trajectory(grid1, 0.6, t_lo=-2.0, t_hi=0.0)
    rep = verify_lemma1(traj, eps0=12.0)
    # (0.6 - psi)_+^2 integrates to ~11.5 < 12, so the hypothesis holds,
    # yet 0.6 > 1/2 near the origin
    assert rep.verdict == "fail"
    assert rep.hypothesis_ok and not rep.conclusion_ok
    assert rep.first_violation["node"] == 0
    assert rep.first_violation["value"] == pytest.approx(0.6)
    assert rep.first_violation["bound"] == pytest.approx(0.5)

    tight = verify_lemma1(traj, eps0=1.0)
    assert tight.verdict == "hypothesis-violated"


def test_lemma1_counterexample_is_flagged(grid1):
    rep = verify_lemma1(lemma1_counterexample(grid1), eps0=0.5)
    assert rep.verdict == "fail"
    assert rep.numbers["truncated_mass"] < 0.5


def test_lemma1_rejects_nonpositive_budget(grid1):
    traj = constant_trajectory(grid1, 0.0, t_lo=-2.0, t_hi=0.0)
    with pytest.raises(NlflowError, match="eps0 must be positive"):
        verify_lemma1(traj, eps0=0.0)


def test_corollary1_zero_data_vacuous(grid1):
    traj = constant_trajectory(grid1, 0.0, t_lo=0.0, t_hi=1.0)
    rep = verify_corollary1(traj, t0=0.5, eps0=0.9)
    assert rep.verdict == "pass"
    assert rep.numbers["bound"] == 0.0
    assert rep.numbers["measured_sup"] == 0.0
    assert rep.numbers["ratio_t0"] == []


def test_corollary1_ratio_curve_is_scale_free(grid1):
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 33)
    decay = np.exp(-2.0 * times)[:, None]
    base = rng.uniform(-1.0, 1.0, size=(1, grid1.n_nodes))
    traj = synthetic_trajectory(grid1, times, decay * base)
    doubled = synthetic_trajectory(grid1, times, 2.0 * (decay * base))
    a = verify_corollary1(traj, t0=0.5, eps0=0.9)
    b = verify_corollary1(doubled, t0=0.5, eps0=0.9)
    # doubling is exact in floating point, so the profiles agree bitwise
    assert a.numbers["ratio_r"] == b.numbers["ratio_r"]
    assert b.numbers["l2_initial"] == pytest.approx(
        2.0 * a.numbers["l2_initial"], rel=0.0, abs=0.0)


def test_corollary1_counterexample_is_flagged(grid1):
    rep = verify_corollary1(corollary1_counterexample(grid1),
                            t0=0.5, eps0=0.9)
    assert rep.verdict == "fail"
    assert rep.first_violation is not None
    assert rep.numbers["measured_sup"] == pytest.approx(5.0)


def test_corollary1_waiting_time_guards(grid1):
    traj = constant_trajectory(grid1, 0.0, t_lo=0.0, t_hi=1.0)
    with pytest.raises(NlflowError, match="waiting time t0=1.5"):
        verify_corollary1(traj, t0=1.5, eps0=0.9)   # beyond the span
    with pytest.raises(NlflowError, match="eps0 must be positive"):
        verify_corollary1(traj, t0=0.5, eps0=-1.0)


def test_corollary2_conclusion_first_grading(grid1):
    # w == 1/2 saturates the conclusion bound without exceeding it, so the
    # verdict is a pass even though the positivity measure dwarfs delta
    traj = constant_trajectory(grid1, 0.5, t_lo=-2.0, t_hi=0.0)
    rep = verify_corollary2(traj, delta=0.99)
    assert rep.verdict == "pass"
    assert not rep.hypothesis_ok

    zero = verify_corollary2(constant_trajectory(grid1, 0.0, -2.0, 0.0),
                             delta=0.99)
    assert zero.verdict == "pass" and zero.numbers["positivity_measure"] == 0.0


def test_corollary2_counterexample_is_flagged(grid1):
    rep = verify_corollary2(corollary2_counterexample(grid1), delta=0.99)
    assert rep.verdict == "fail"
    assert rep.precondition_ok and rep.hypothesis_ok
    assert rep.first_violation["value"] == pytest.approx(0.9)


def test_lemma2_first_branch_pass(grid1):
    traj = constant_trajectory(grid1, -0.5)
    rep = verify_lemma2(traj, mu=1.0, delta=0.99, gamma=4.2, lam=0.25)
    assert rep.verdict == "pass"
    assert rep.hypothesis_ok
    assert rep.numbers["branch"] == "small-upper-set"
    # B_1 holds 31 nodes for one unit of time
    assert rep.numbers["below_phi0"] == pytest.approx(31 * grid1.spacing,
                                                      rel=1e-12)


def test_lemma2_counterexample_is_flagged(grid1):
    rep = verify_lemma2(lemma2_counterexample(grid1, lam=0.25),
                        mu=1.0, delta=0.99, gamma=4.2, lam=0.25)
    assert rep.verdict == "fail"
    assert rep.precondition_ok and rep.hypothesis_ok
    assert rep.numbers["branch"] == "violated"
    assert rep.numbers["above_phi2"] > 0.99


def test_lemma2_envelope_breach_is_out_of_scope(grid1):
    traj = constant_trajectory(grid1, 1.5)
    rep = verify_lemma2(traj, mu=1.0, delta=0.99, gamma=4.2, lam=0.25)
    assert rep.verdict == "hypothesis-violated"
    assert not rep.precondition_ok
    assert rep.first_violation is not None


def test_lemma2_parameter_guards(grid1):
    traj = constant_trajectory(grid1, 0.0)
    with pytest.raises(NlflowError, match="mu must be positive"):
        verify_lemma2(traj, mu=0.0, delta=0.99, gamma=4.2, lam=0.25)
    with pytest.raises(NlflowError, match="lam must lie"):
        verify_lemma2(traj, mu=1.0, delta=0.99, gamma=4.2, lam=0.4)


# --------------------------------------------------------------------------
# working set: detectors read windows as views and never write into them

def detector_calls(cal, diagnose_only=False):
    """(recipe, {name: detector}) for every detector diagnose calls, with
    its settings, and unless `diagnose_only` those calibrate adds."""
    calls = [
        (cached_lemma_run, {
            "verify_lemma1": lambda t: verify_lemma1(t, eps0=cal.eps0),
            "verify_corollary1": lambda t: verify_corollary1(
                t, t0=0.5, eps0=cal.eps0),
            "verify_corollary2": lambda t: verify_corollary2(
                t, delta=cal.delta)}),
        (cached_level_run, {
            "verify_lemma2": lambda t: verify_lemma2(
                t, mu=cal.mu, delta=cal.delta, gamma=cal.gamma, lam=cal.lam),
            "verify_lemma3": lambda t: verify_lemma3(
                t, eps=cal.eps, lam=cal.lam, lam_star=cal.lam_star)}),
        (cached_recurrence_run, {
            "truncated_energies": lambda t: truncated_energies(t, k_max=6),
            "chebyshev_chain": lambda t: chebyshev_chain(t, k_max=6)}),
        (cached_oscillation_run, {
            "oscillation_decay": lambda t: oscillation_decay(
                t, scale=0.65, levels=4)}),
    ]
    if not diagnose_only:
        calls[1][1]["level_set_measures"] = \
            lambda t: level_set_measures(t, cal.lam)
        calls[1][1]["unit_oscillation"] = unit_oscillation
        # a rescaled level shares its parent's memory
        calls[3][1]["parabolic_rescale"] = \
            lambda t: parabolic_rescale(t, cal.k_sc)
        calls[3][1]["rescaling_sequence"] = lambda t: rescaling_sequence(
            t, cal.lam, cal.lam_star, cal.k_sc, eps=cal.eps)
    return calls


@pytest.mark.parametrize("seed", [1, 7, 20])
def test_detectors_hold_less_than_the_trajectory(calibration, seed):
    # windows are views of the samples and the ladder streams its rungs, so
    # no detector allocates as much as the trajectory's fields at once
    for run, detectors in detector_calls(calibration, diagnose_only=True):
        traj = run(seed)
        for name, detect in detectors.items():
            tracemalloc.start()
            try:
                detect(traj)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < traj.fields.nbytes, \
                f"{name}: peak {peak / traj.fields.nbytes:.2f} x fields"


@pytest.mark.parametrize("seed", [1, 7, 20])
def test_rescaling_holds_less_than_three_trajectories(calibration, seed):
    # each rescaled level is a view of the samples up to t = 0, and only the
    # level being built holds an affine image of them
    for run in (cached_oscillation_run, cached_level_run):
        traj = run(seed)
        tracemalloc.start()
        try:
            rescaling_sequence(traj, calibration.lam, calibration.lam_star,
                               calibration.k_sc, eps=calibration.eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * traj.fields.nbytes, \
            f"peak {peak / traj.fields.nbytes:.2f} x fields"


def test_one_stencil_and_plan_per_ladder(monkeypatch):
    # every rung's seminorms share one stencil at one stack shape
    traj, built = cached_recurrence_run(3), []

    class Counted(grid_module.OffsetStencil):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(grid_module, "OffsetStencil", Counted)
    for _ in range(2):
        truncated_energies(traj, k_max=6)
    assert len(built) == 2
    assert [len(stencil._plans) for stencil in built] == [1, 1]


@pytest.mark.parametrize("seed", [2, 13])
def test_detectors_never_write_into_a_trajectory(calibration, seed):
    # with read-only samples a write into a window view would raise; the
    # results equal those on writable samples bit for bit
    for run, detectors in detector_calls(calibration):
        traj = run(seed)
        frozen, writable = (dataclasses.replace(traj, fields=traj.fields.copy())
                            for _ in range(2))
        frozen.fields.flags.writeable = False
        for name, detect in detectors.items():
            assert pickle.dumps(detect(frozen)) == \
                pickle.dumps(detect(writable)), name
