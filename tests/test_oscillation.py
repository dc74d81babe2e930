"""Difference quotients, derived kernels, rescaling, oscillation decay."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    cached_level_run,
    cached_oscillation_run,
    constant_trajectory,
    lemma3_counterexample,
    synthetic_trajectory,
)
from nlflow.errors import NlflowError
from nlflow.ensembles import default_grid
from nlflow.fields import make_initial
from nlflow.flow import FlowProblem, Trajectory, run_flow
from nlflow.grid import Field, Grid, OffsetStencil
from nlflow.kernels import KernelSpec, make_kernel
from nlflow.oscillation import (
    check_scale_barrier,
    derived_factors,
    difference_quotient,
    oscillation_decay,
    parabolic_rescale,
    rescaling_sequence,
    scan_derived_envelope,
    sigma_average,
    verify_lemma3,
    verify_linearization,
)
from nlflow.potentials import PotentialSpec, make_potential


def grid_1d(points=64):
    return Grid(dimension=1, side_length=16.0, points_per_axis=points)


def power_law_kernel():
    return make_kernel(KernelSpec(
        dimension=1, order=1.0, ellipticity=4.0,
        truncation_radius=3.0, family="power-law"))


def huber(ellipticity=4.0):
    return make_potential(PotentialSpec(family="smoothed-huber",
                                        ellipticity=ellipticity))


def quadratic():
    return make_potential(PotentialSpec(family="quadratic"))


def nonlinear_run(potential, dt_max=1e-3, t_end=0.1, seed=13,
                  sample_every=4, g=None):
    g = grid_1d() if g is None else g
    return run_flow(FlowProblem(
        kind="nonlinear", grid=g, kernel=power_law_kernel(),
        initial=make_initial(g, "random", amplitude=1.0, seed=seed),
        t_end=t_end, potential=potential, dt_max=dt_max),
        sample_every=sample_every)


# --------------------------------------------------------------------------
# difference quotients

def test_quotient_convention_on_small_grid():
    g = Grid(dimension=1, side_length=16.0, points_per_axis=8)
    v = np.zeros(8)
    v[1] = 1.0
    got = difference_quotient(Field(g, v), 0, g.spacing).values
    assert np.array_equal(got, [0.5, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_quotient_kills_constants_and_scales():
    g = grid_1d()
    rng = np.random.default_rng(0)
    # dyadic values keep the +3.25 shift exact, so invariance is bitwise
    v = np.round(rng.uniform(-1.0, 1.0, g.n_nodes) * 2.0 ** 20) / 2.0 ** 20
    base = difference_quotient(Field(g, v), 0, g.spacing).values
    shifted = difference_quotient(Field(g, v + 3.25), 0, g.spacing).values
    doubled = difference_quotient(Field(g, 2.0 * v), 0, g.spacing).values
    assert np.array_equal(base, shifted)
    assert np.array_equal(doubled, 2.0 * base)
    flat = difference_quotient(Field(g, np.full(g.n_nodes, 7.0)), 0,
                               g.spacing).values
    assert np.all(flat == 0.0)


def test_quotient_step_guards():
    g = grid_1d()
    v = Field(g, np.zeros(g.n_nodes))
    lattice = "is not a positive multiple of the spacing"
    with pytest.raises(NlflowError, match=lattice):
        difference_quotient(v, 0, 0.3)          # not a spacing multiple
    with pytest.raises(NlflowError, match=lattice):
        difference_quotient(v, 0, -g.spacing)
    with pytest.raises(NlflowError, match=r"direction 1 outside axes 0\.\.0"):
        difference_quotient(v, 1, g.spacing)    # no second axis in 1D


# --------------------------------------------------------------------------
# derived kernel

def test_derived_kernel_quadratic_collapses_to_base():
    traj = nonlinear_run(quadratic(), t_end=0.02)
    # every factor is 1.0 exactly: K^h is the base kernel's own table
    stencil = OffsetStencil(traj.grid, np.array([[1], [2]]))
    factors = derived_factors(traj, 0, 0, traj.grid.spacing, stencil)
    assert factors.shape == (2, traj.grid.n_nodes)
    assert np.all(factors == 1.0)


def test_sigma_average_matches_dense_riemann():
    traj = nonlinear_run(huber(), t_end=0.02)
    theta = traj.fields[-1]
    pot = huber()
    sig = (np.arange(10 ** 6) + 0.5) / 10 ** 6
    for i, j in ((3, 10), (40, 41), (0, 17)):
        a, b = theta[j] - theta[i], theta[j + 1] - theta[i + 1]
        got = float(sigma_average(pot, np.array([a]), np.array([b]))[0])
        ref = float(np.mean(pot.d2((1.0 - sig) * a + sig * b)))
        # short segments: the 8-node rule resolves the analytic integrand
        assert got == pytest.approx(ref, abs=1e-10)


def test_sigma_average_clamped_to_certified_band():
    lo, hi = huber().d2_bounds
    rng = np.random.default_rng(2)
    a = rng.uniform(-50.0, 50.0, 200)
    b = rng.uniform(-50.0, 50.0, 200)
    vals = sigma_average(huber(), a, b)
    # wide segments stress the quadrature; the clamp keeps the band anyway
    assert np.all(vals >= lo) and np.all(vals <= hi)


def test_derived_kernel_needs_translation_invariance():
    traj = nonlinear_run(huber(), t_end=0.02)
    rough = make_kernel(KernelSpec(
        dimension=1, order=1.0, ellipticity=4.0, truncation_radius=3.0,
        family="rough-static", seed=3))
    traj = dataclasses.replace(traj, kernel=rough)
    with pytest.raises(NlflowError, match="translation-invariant"):
        scan_derived_envelope(traj)
    with pytest.raises(NlflowError, match="translation-invariant"):
        verify_linearization(traj)


def test_derived_envelope_scan_zero_violations():
    traj = nonlinear_run(huber(), t_end=0.05)
    rep = scan_derived_envelope(traj)
    assert rep.violations == 0
    # every pair within the truncation radius, at every sample and step
    n_off = 2 * int(3.0 / traj.grid.spacing)
    assert rep.sample_count == 3 * traj.n_samples * n_off * traj.grid.n_nodes
    assert rep.band_lo == 0.25 and rep.band_hi == 4.0
    assert rep.band_lo <= rep.ratio_min <= rep.ratio_max <= rep.band_hi
    assert rep.step_factors == (1, 2, 4)


def edge_multiplier_run(multiplier, potential, kind, amplitude, points=64):
    g = grid_1d(points)
    kernel = make_kernel(KernelSpec(
        dimension=1, order=1.0, ellipticity=4.0, truncation_radius=3.0,
        family="power-law", multiplier=multiplier))
    return run_flow(FlowProblem(
        kind="nonlinear", grid=g, kernel=kernel,
        initial=make_initial(g, kind, amplitude=amplitude, seed=13),
        t_end=0.05, potential=potential, dt_max=1e-3), sample_every=4)


@pytest.mark.parametrize("multiplier, amplitude", [(2.0, 1.0), (0.5, 4.0)])
def test_derived_envelope_scan_keeps_the_multiplier(multiplier, amplitude):
    # K^h carries the multiplier c in [1/2, 2] (kernel Lambda 4) times a
    # phi'' average in [1/4, 4] (potential Lambda 16): at c = 2 small
    # differences push K^h up to 8, and at c = 1/2 large ones down to 0.16,
    # inside the product band [1/8, 8] but past what the phi'' average
    # alone reaches, which a scan without the multiplier would report
    pot = huber(16.0)
    rep = scan_derived_envelope(edge_multiplier_run(
        multiplier, pot, "random", amplitude))
    assert rep.violations == 0
    assert (rep.band_lo, rep.band_hi) == (0.125, 8.0)
    lam_p = pot.spec.ellipticity
    if multiplier > 1.0:
        assert rep.ratio_max > 1.9 * lam_p ** 0.5
    else:
        assert rep.ratio_min < 0.7 * lam_p ** -0.5


def test_derived_envelope_scan_admits_the_band_edge():
    # c = 2 and phi''(0) = 2 at Lambda = 4 put K^h on the band top; at
    # M = 48 the table reads c one ulp high, which BAND_RTOL admits
    rep = scan_derived_envelope(edge_multiplier_run(
        2.0, huber(), "constant", 1.0, points=48))
    assert rep.ratio_max > rep.band_hi
    assert rep.violations == 0


def test_derived_envelope_scan_needs_kernel(grid1):
    bare = constant_trajectory(grid1, 0.0)
    with pytest.raises(NlflowError, match="must carry its kernel"):
        scan_derived_envelope(bare)


# --------------------------------------------------------------------------
# linearization transfer

def test_transfer_quadratic_is_bitwise():
    # any Euler run feeds the check: it starts from the first sample
    for g in (grid_1d(), default_grid()):
        rep = verify_linearization(nonlinear_run(quadratic(), g=g))
        assert rep.quadratic
        # identical coefficients; the residual is quotient-vs-step rounding
        assert rep.max_defect <= 1e-13
        assert rep.defect_curve.shape == rep.defect_times.shape


def test_transfer_defect_first_order_in_dt():
    defects = [verify_linearization(nonlinear_run(huber(), dt_max=dt)
                                    ).max_defect
               for dt in (4e-3, 2e-3, 1e-3)]
    assert defects[0] > defects[1] > defects[2]
    slope = math.log2(defects[0] / defects[2]) / 2.0
    assert slope > 0.9


def test_transfer_wider_quotient_step():
    traj = nonlinear_run(huber())
    rep = verify_linearization(traj, h=2 * traj.grid.spacing)
    assert not rep.quadratic
    assert rep.step == 2 * traj.grid.spacing
    assert rep.max_defect < 0.1


def test_transfer_input_guards(grid1):
    lin = run_flow(FlowProblem(
        kind="linear", grid=grid_1d(), kernel=power_law_kernel(),
        initial=make_initial(grid_1d(), "random", seed=0), t_end=0.05))
    with pytest.raises(NlflowError, match="transfer needs a nonlinear"):
        verify_linearization(lin)


# --------------------------------------------------------------------------
# parabolic rescaling

def test_rescale_identity_at_unit_factor():
    traj = cached_oscillation_run(1)
    view = parabolic_rescale(traj, 1.0)
    assert np.array_equal(view.fields, traj.fields)
    assert np.array_equal(view.times, traj.times)
    assert view.kind == "rescaled-view"


def test_rescale_scales_grid_and_kernel_spec():
    traj = cached_oscillation_run(1)
    untruncated = Trajectory.from_fields(
        traj.grid, traj.times, traj.fields, kernel=make_kernel(KernelSpec(
            dimension=1, order=1.0, truncation_radius=math.inf,
            family="power-law")))
    for parent, radius in ((traj, 6.0), (untruncated, math.inf)):
        view = parabolic_rescale(parent, 0.5)
        assert view.grid.side_length == 32.0
        assert view.kernel.spec.truncation_radius == radius
        assert view.kernel.spec.cell_size == 0.5
        assert view.kernel.spec.epoch_length == pytest.approx(0.2)
        assert view.times[0] == pytest.approx(2.0 * traj.times[0])


def test_rescale_commutes_with_the_flow():
    """Zooming the solved run equals solving the zoomed problem.

    At rho = 1/2 every scale factor in the discrete update is a power of
    two, so the two orders of operation agree bitwise.
    """
    parent = cached_oscillation_run(3)
    view = parabolic_rescale(parent, 0.5)
    re_run = run_flow(FlowProblem(
        kind="linear", grid=view.grid, kernel=view.kernel,
        initial=view.field(0), t_start=float(view.times[0]), t_end=0.0,
        dt_max=0.004 / 0.5), sample_every=1)
    assert np.array_equal(re_run.times, view.times)
    assert np.array_equal(re_run.fields, view.fields)


def test_rescale_window_guards(grid1):
    with pytest.raises(NlflowError, match="rescale factor must be > 0"):
        parabolic_rescale(cached_oscillation_run(1), 0.0)
    # the view is the cylinder about t = 0, which these samples miss
    for t_lo, t_hi in ((-3.0, -1.0), (0.5, 2.0)):
        with pytest.raises(NlflowError, match="only 0 samples cover"):
            parabolic_rescale(constant_trajectory(grid1, 0.0, t_lo, t_hi),
                              0.5)


# --------------------------------------------------------------------------
# oscillation decay

def test_oscillation_decay_degenerate_on_constants(grid1):
    traj = constant_trajectory(grid1, 1.0, t_lo=-1.2, t_hi=0.0, n=400)
    rep = oscillation_decay(traj, 0.65, 4)
    assert rep.degenerate
    assert math.isinf(rep.alpha)
    assert np.all(rep.osc == 0.0)


def test_oscillation_decay_on_smoothing_runs():
    for seed in (1, 2, 3):
        rep = oscillation_decay(cached_oscillation_run(seed), 0.65, 4)
        assert not rep.degenerate
        assert np.all(np.diff(rep.osc) <= 0.0)     # nested cylinders
        assert rep.alpha > 0.0
        assert rep.r_squared >= 0.9


def test_oscillation_fit_is_affine_invariant():
    traj = cached_oscillation_run(2)
    # snap to a dyadic lattice so a*w + b is exact in floating point
    quant = np.round(traj.fields * 2.0 ** 20) / 2.0 ** 20
    base = synthetic_trajectory(traj.grid, traj.times, quant)
    moved = synthetic_trajectory(traj.grid, traj.times,
                                 2.0 * quant + 0.5)
    a = oscillation_decay(base, 0.65, 4)
    b = oscillation_decay(moved, 0.65, 4)
    assert np.array_equal(b.osc, 2.0 * a.osc)
    assert b.alpha == a.alpha
    assert b.r_squared == a.r_squared


def test_oscillation_decay_guards(grid1):
    traj = constant_trajectory(grid1, 0.0, t_lo=-1.2, t_hi=0.0, n=400)
    with pytest.raises(NlflowError, match="need at least 3 levels"):
        oscillation_decay(traj, 0.65, 2)
    with pytest.raises(NlflowError, match=r"scale must lie in \(0,1\)"):
        oscillation_decay(traj, 1.0, 4)
    with pytest.raises(NlflowError, match="need >= 8 of each"):
        oscillation_decay(traj, 0.65, 12)


# --------------------------------------------------------------------------
# normalized rescaling sequence

def test_rescaling_sequence_zero_field(grid1, calibration):
    traj = constant_trajectory(grid1, 0.0, n=241)
    rep = rescaling_sequence(traj, calibration.lam, calibration.lam_star,
                             calibration.k_sc, eps=calibration.eps)
    assert rep.first_envelope_violation is None
    assert all(r.sup_norm == 0.0 for r in rep.levels)
    assert all(r.mean == 0.0 for r in rep.levels)


def test_rescaling_sequence_kills_constants(grid1, calibration):
    traj = constant_trajectory(grid1, 1.0, n=241)
    rep = rescaling_sequence(traj, calibration.lam, calibration.lam_star,
                             calibration.k_sc, eps=calibration.eps)
    assert rep.levels[0].mean == 1.0
    assert all(r.sup_norm == 0.0 for r in rep.levels[1:])


def test_rescaling_sequence_keeps_envelope_on_flow_runs(calibration):
    for seed in (5, 12, 20):
        rep = rescaling_sequence(
            cached_level_run(seed), calibration.lam, calibration.lam_star,
            calibration.k_sc, eps=calibration.eps)
        assert rep.first_envelope_violation is None
        assert rep.floor_level is not None      # resolution, not divergence
        sups = [r.sup_norm for r in rep.levels]
        assert sups[-1] < sups[0]


def test_rescaling_sequence_guards(grid1, calibration):
    traj = constant_trajectory(grid1, 0.0, n=241)
    with pytest.raises(NlflowError, match="lam must lie"):
        rescaling_sequence(traj, 0.4, calibration.lam_star, 0.65,
                           eps=calibration.eps)
    with pytest.raises(NlflowError, match="lam_star must lie"):
        rescaling_sequence(traj, calibration.lam, 1.5, 0.65,
                           eps=calibration.eps)
    with pytest.raises(NlflowError, match=r"scale must lie in \(0,1\)"):
        rescaling_sequence(traj, calibration.lam, calibration.lam_star, 1.0,
                           eps=calibration.eps)


def test_rescaling_and_decay_share_the_cylinder_edge(grid1):
    # one sample lies 5e-10 outside (-0.65, 0], inside the window tolerance:
    # both detectors count 8 samples in that cylinder and resolve it
    times = np.concatenate([np.linspace(-3.0, -0.8, 23), [-0.65 - 5e-10],
                            np.linspace(-0.6, 0.0, 7)])
    traj = synthetic_trajectory(grid1, times,
                                np.zeros((times.size, grid1.n_nodes)))
    rep = rescaling_sequence(traj, 0.25, 0.085, 0.65, eps=1e-6)
    assert rep.floor_level == 1
    assert rep.levels[1].samples_in_window == 8
    # level 1 resolves; level 2, (-0.4225, 0] x B_0.4225, does not
    with pytest.raises(NlflowError, match="13 nodes and 5 samples"):
        oscillation_decay(traj, 0.65, 3)


# --------------------------------------------------------------------------
# oscillation drop detector and the barrier scaling inequality

def test_lemma3_passes_inside_envelope(grid1, calibration):
    traj = constant_trajectory(grid1, 0.3)
    rep = verify_lemma3(traj, calibration.eps, calibration.lam,
                        calibration.lam_star)
    assert rep.verdict == "pass"
    assert rep.numbers["oscillation"] == 0.0
    assert rep.numbers["bound"] == pytest.approx(2.0 - calibration.lam_star)


def test_lemma3_counterexample_is_flagged(grid1, calibration):
    traj = lemma3_counterexample(grid1, calibration.eps, calibration.lam)
    rep = verify_lemma3(traj, calibration.eps, calibration.lam,
                        calibration.lam_star)
    assert rep.verdict == "fail"
    assert rep.hypothesis_ok                    # envelope touched, not crossed
    assert rep.numbers["oscillation"] == pytest.approx(2.0)


def test_lemma3_out_of_scope_when_envelope_breached(grid1, calibration):
    times = np.linspace(-3.0, 0.0, 31)
    signs = np.where(np.arange(times.size) % 2 == 0, 5.0, -5.0)
    fields = np.tile(signs[:, None], (1, grid1.n_nodes))
    traj = synthetic_trajectory(grid1, times, fields)
    rep = verify_lemma3(traj, calibration.eps, calibration.lam,
                        calibration.lam_star)
    assert rep.verdict == "hypothesis-violated"
    assert rep.first_violation["value"] == pytest.approx(5.0)


def test_scale_barrier_report(calibration):
    rep = check_scale_barrier(calibration.lam, calibration.lam_star,
                              calibration.eps, calibration.k_sc, 1.0)
    assert rep["holds"]
    assert rep["max_violation"] == 0.0
    assert rep["lam_star_threshold"] > calibration.lam_star
    assert rep["support_radius"] == pytest.approx(
        calibration.lam ** (-4.0))

    greedy = check_scale_barrier(calibration.lam, 0.5, calibration.eps,
                                 calibration.k_sc, 1.0)
    assert not greedy["holds"]
    assert greedy["max_violation"] > 0.0
