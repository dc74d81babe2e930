"""Top-level acceptance gates for the package.

One test per gate; each prints a single pass/fail summary line (run with
``pytest -s`` to see them) and asserts the gate at its stated tolerance.
Covers: the banded operator against the dense oracle, eigenvalue refinement,
the dissipation ensembles (70 runs built and graded as `nlflow run` builds
and grades them), linearization transfer, truncated-energy recurrence, the
detector ensembles with injected counterexamples, the verdicts on
non-solutions (reversed, frozen and noise runs), the fitted oscillation
decay slopes, the early-time sup bound, the drift of the shipped
calibration, and the denoising round trip.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    DISSIPATION_SEEDS,
    banded_apply,
    cached_calibration_runs,
    cached_dissipation_run,
    cached_lemma_run,
    cached_level_run,
    cached_oscillation_run,
    cached_recurrence_run,
    corollary1_counterexample,
    corollary2_counterexample,
    cosine_mode_eigenvalue,
    dense_apply,
    lemma1_counterexample,
    lemma2_counterexample,
    lemma3_counterexample,
    synthetic_trajectory,
)
from nlflow.calibrate import CALIBRATION_SEEDS, calibrate_constants
from nlflow.cli import _dissipation_record, main as cli_main
from nlflow.degiorgi import (
    check_recurrence,
    chebyshev_chain,
    truncated_energies,
    verify_corollary1,
    verify_corollary2,
    verify_lemma1,
    verify_lemma2,
)
from nlflow.ensembles import default_grid
from nlflow.fieldio import load_field, save_field
from nlflow.fields import make_initial
from nlflow.flow import FlowProblem, run_flow
from nlflow.grid import DiscreteOperator, Field, Grid, OffsetStencil
from nlflow.kernels import KernelSpec, make_kernel, validate_kernel
from nlflow.oscillation import (
    derived_factors,
    oscillation_decay,
    scan_derived_envelope,
    verify_lemma3,
    verify_linearization,
)
from nlflow.potentials import PotentialSpec, make_potential


def announce(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'pass' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


def kernel_1d(family="power-law", truncation=3.0, seed=0):
    return make_kernel(KernelSpec(
        dimension=1, order=1.0, ellipticity=4.0,
        truncation_radius=truncation, family=family, seed=seed))


def huber():
    return make_potential(PotentialSpec(family="smoothed-huber",
                                        ellipticity=4.0))


def nonlinear_run(potential, dt_max=1e-3, t_end=0.1, seed=13,
                  sample_every=4):
    g = Grid(dimension=1, side_length=16.0, points_per_axis=64)
    return run_flow(FlowProblem(
        kind="nonlinear", grid=g, kernel=kernel_1d(),
        initial=make_initial(g, "random", amplitude=1.0, seed=seed),
        t_end=t_end, potential=potential, dt_max=dt_max),
        sample_every=sample_every)


@pytest.fixture(scope="module")
def repinned_constants():
    """The detector constants re-derived from the session's cached runs of
    the shipped seeds (regression probe)."""
    return calibrate_constants(**cached_calibration_runs(CALIBRATION_SEEDS))


# ---------------------------------------------------------------------------
# the banded operator against the dense double-sum

def test_operator_strategies_agree_with_dense_oracle():
    t_begin = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    pairings = 0
    for dim, points in ((1, 1024), (2, 64), (1, 48), (2, 48), (2, 45)):
        g = Grid(dimension=dim, side_length=16.0, points_per_axis=points)
        w = Field(g, rng.uniform(-1.0, 1.0, g.n_nodes))
        cases = [(KernelSpec(dimension=dim, order=1.0, ellipticity=4.0,
                             truncation_radius=radius, family="power-law"),
                  0.0) for radius in (3.0, math.inf)]
        if dim == 1:
            cases.append(
                (KernelSpec(dimension=1, order=1.0, ellipticity=4.0,
                            truncation_radius=3.0, family="rough-static",
                            seed=3), 0.0))
            # in the second epoch of its multiplier
            cases.append(
                (KernelSpec(dimension=1, order=1.0, ellipticity=4.0,
                            truncation_radius=3.0,
                            family="rough-time-dependent", seed=3), 0.15))
        # at M = 45: non-dyadic spacing, no self-paired offset, and offset
        # groups of several blocks with a one-sided halo
        if dim == 2 and points in (48, 45):
            cases.append(
                (KernelSpec(dimension=2, order=1.0, ellipticity=4.0,
                            truncation_radius=3.0, family="rough-static",
                            seed=3), 0.0))
        for spec, t in cases:
            kernel = make_kernel(spec)
            dense = dense_apply(g, kernel, w.values, t)
            scale = float(np.max(np.abs(dense)))
            out = banded_apply(DiscreteOperator(g, kernel), w.values, t)
            worst = max(worst, float(np.max(np.abs(out - dense))) / scale)
            pairings += 1
    elapsed = time.perf_counter() - t_begin
    announce("operator-strategy-equivalence",
             worst <= 1e-12 and elapsed < 30.0,
             f"max relative deviation {worst:.2e} over {pairings} pairings "
             f"in {elapsed:.1f}s")


def test_eigenvalue_error_shrinks_under_refinement():
    # banded and dense agree to rounding at a fixed resolution, so the
    # meaningful error is against a much finer dense evaluation
    kernel = kernel_1d(truncation=math.inf)
    reference = cosine_mode_eigenvalue(1024, kernel, dense=True)
    errors = [abs(cosine_mode_eigenvalue(m, kernel) - reference) / abs(reference)
              for m in (64, 128, 256)]
    announce("eigenvalue-refinement",
             errors[0] > errors[1] > errors[2],
             "relative eigenvalue errors "
             + " > ".join(f"{e:.3e}" for e in errors)
             + " against the fine dense oracle")
    assert errors[2] < 1e-2


# ---------------------------------------------------------------------------
# dissipation ensembles

def test_dissipation_ensembles():
    # graded by the rule `nlflow run` reports
    broken = []
    for kind, seeds in DISSIPATION_SEEDS.items():
        for seed in seeds:
            rec = _dissipation_record(cached_dissipation_run(kind, seed))
            if not rec["dissipative"]:
                broken.append((kind, seed, rec))
    announce("dissipation-suite", not broken,
             "50 linear + 20 nonlinear runs keep the L2 norm, energy, "
             "bracket, and mass inequalities" if not broken
             else f"violations: {broken[:3]}")


def test_nonlinear_dissipation_kernels_lie_in_the_tight_band():
    # the CLI refuses power-law kernels that fail the envelope grade
    for seed in DISSIPATION_SEEDS["nonlinear"]:
        kernel = cached_dissipation_run("nonlinear", seed).kernel
        assert validate_kernel(kernel).envelope_ok, seed


# ---------------------------------------------------------------------------
# linearization transfer

def test_linearization_transfer_and_envelope():
    quad = make_potential(PotentialSpec(family="quadratic", ellipticity=4.0))
    traj_q = nonlinear_run(quad, t_end=0.02)
    rep_q = verify_linearization(traj_q)
    # every factor is 1.0 exactly: K^h is the base kernel's own table
    collapse_ok = bool(np.all(derived_factors(
        traj_q, 0, 0, traj_q.grid.spacing,
        OffsetStencil(traj_q.grid, np.array([[1], [2]]))) == 1.0))
    quadratic_ok = rep_q.quadratic and collapse_ok

    defects = [verify_linearization(nonlinear_run(huber(), dt_max=dt)
                                    ).max_defect
               for dt in (4e-3, 2e-3, 1e-3)]
    slope = math.log2(defects[0] / defects[2]) / 2.0
    order_ok = defects[0] > defects[1] > defects[2] and slope >= 0.9

    scan = scan_derived_envelope(nonlinear_run(huber()))
    envelope_ok = (scan.violations == 0
                   and scan.step_factors == (1, 2, 4)
                   and scan.band_lo == 0.25 and scan.band_hi == 4.0)
    announce("linearization-transfer",
             quadratic_ok and order_ok and envelope_ok,
             f"quadratic={rep_q.quadratic}, defect slope {slope:.2f}, "
             f"{scan.violations} envelope violations on {scan.sample_count} "
             "lattice pairs")


# ---------------------------------------------------------------------------
# truncated-energy recurrence

def test_truncated_energy_recurrence():
    monotone_bad, cheb_bad, constants = [], [], []
    for seed in range(1, 21):
        traj = cached_recurrence_run(seed)
        u = truncated_energies(traj, k_max=6)
        if not np.all(np.diff(u) <= 0.0):
            monotone_bad.append(seed)
        if not np.all(chebyshev_chain(traj, k_max=6) >= 0.0):
            cheb_bad.append(("flow", seed))
        fit = check_recurrence(u, traj.order, traj.grid.dimension).constant
        if math.isfinite(fit):
            constants.append(fit)
    # 20 synthetic trajectories x 5 samples = 100 random fields
    grid = default_grid()
    times = np.linspace(-2.0, 0.0, 5)
    for seed in range(1, 21):
        rng = np.random.default_rng(seed)
        fields = rng.uniform(-2.0, 3.0, size=(times.size, grid.n_nodes))
        slack = chebyshev_chain(synthetic_trajectory(grid, times, fields),
                                k_max=4)
        if not np.all(slack >= 0.0):
            cheb_bad.append(("random", seed))
    ok = (not monotone_bad and not cheb_bad and constants
          and all(map(math.isfinite, constants)))
    announce("energy-recurrence", ok,
             f"energies nonincreasing on 20 runs, interpolation slack >= 0 "
             "on 100 random fields")


# ---------------------------------------------------------------------------
# detector ensembles and soundness

def test_detectors_on_ensembles_and_counterexamples(calibration):
    cal = calibration
    verdicts = {name: {"pass": 0, "fail": 0, "hypothesis-violated": 0}
                for name in ("lemma1", "corollary1", "corollary2",
                             "lemma2", "lemma3")}
    for seed in range(1, 51):
        traj = cached_lemma_run(seed)
        verdicts["lemma1"][verify_lemma1(
            traj, eps0=cal.eps0).verdict] += 1
        verdicts["corollary1"][verify_corollary1(
            traj, t0=0.5, eps0=cal.eps0).verdict] += 1
        verdicts["corollary2"][verify_corollary2(
            traj, delta=cal.delta).verdict] += 1
        level = cached_level_run(seed)
        verdicts["lemma2"][verify_lemma2(
            level, mu=cal.mu, delta=cal.delta, gamma=cal.gamma,
            lam=cal.lam).verdict] += 1
        verdicts["lemma3"][verify_lemma3(
            level, eps=cal.eps, lam=cal.lam,
            lam_star=cal.lam_star).verdict] += 1
    clean = all(c["fail"] == 0 and c["pass"] >= 1 for c in verdicts.values())

    grid = default_grid()
    flagged = (
        verify_lemma1(lemma1_counterexample(grid),
                      eps0=cal.eps0).verdict == "fail"
        and verify_corollary1(corollary1_counterexample(grid), t0=0.5,
                              eps0=cal.eps0).verdict == "fail"
        and verify_corollary2(corollary2_counterexample(grid),
                              delta=cal.delta).verdict == "fail"
        and verify_lemma2(lemma2_counterexample(grid, lam=cal.lam),
                          mu=cal.mu, delta=cal.delta, gamma=cal.gamma,
                          lam=cal.lam).verdict == "fail"
        and verify_lemma3(lemma3_counterexample(grid, eps=cal.eps,
                                                lam=cal.lam),
                          eps=cal.eps, lam=cal.lam,
                          lam_star=cal.lam_star).verdict == "fail")

    in_band = all(0.0 < getattr(cal, n) < 1.0
                  for n in ("eps0", "delta", "lam_star"))
    announce("detector-ensembles", clean and flagged and in_band,
             "0 failures over 50 seeds x 5 detectors, all 5 "
             "counterexamples flagged")


def non_solutions(traj, seed: int) -> dict:
    """Three sampled fields on `traj`'s sample times that no flow makes: the
    samples in reverse order, every sample frozen at the initial field (the
    flow with K = 0), and sample 0 followed by iid uniform noise over the
    run's range."""
    fields = traj.fields
    noise = np.random.default_rng(seed).uniform(
        fields.min(), fields.max(), fields.shape)
    noise[0] = fields[0]
    return {name: dataclasses.replace(traj, fields=values) for name, values in (
        ("reversed", fields[::-1]),
        ("frozen", np.repeat(fields[:1], fields.shape[0], axis=0)),
        ("noise", noise))}


def test_verdicts_tell_solutions_from_non_solutions(calibration):
    # each graded verdict passes every recipe run, and each of Lemma 1,
    # Lemma 2 and Lemma 3 fails a non-solution; Corollaries 1 and 2 fail
    # none of these three yet, so their rows are not asserted
    cal = calibration
    grade = {
        "lemma1": lambda tr: verify_lemma1(tr, eps0=cal.eps0),
        "corollary1": lambda tr: verify_corollary1(tr, t0=0.5,
                                                   eps0=cal.eps0),
        "corollary2": lambda tr: verify_corollary2(tr, delta=cal.delta),
        "lemma2": lambda tr: verify_lemma2(tr, mu=cal.mu, delta=cal.delta,
                                           gamma=cal.gamma, lam=cal.lam),
        "lemma3": lambda tr: verify_lemma3(tr, eps=cal.eps, lam=cal.lam,
                                           lam_star=cal.lam_star),
    }
    run_of = {"lemma1": cached_lemma_run, "corollary1": cached_lemma_run,
              "corollary2": cached_lemma_run, "lemma2": cached_level_run,
              "lemma3": cached_level_run}
    verdicts = {}                       # (name, kind) -> verdicts by seed
    for seed in range(1, 21):
        for name, run in run_of.items():
            solution = run(seed)
            for kind, traj in [("solution", solution),
                               *non_solutions(solution, seed).items()]:
                verdicts.setdefault((name, kind), []).append(
                    grade[name](traj).verdict)
    solved = all(v == "pass" for (_, kind), row in verdicts.items()
                 if kind == "solution" for v in row)
    told = ("fail" in verdicts["lemma1", "reversed"]
            and set(verdicts["lemma2", "frozen"]) == {"fail"}
            and set(verdicts["lemma3", "noise"]) == {"fail"})
    announce("non-solutions", solved and told,
             f"Lemma 1 fails {verdicts['lemma1', 'reversed'].count('fail')} "
             f"of 20 reversed runs, Lemma 2 "
             f"{verdicts['lemma2', 'frozen'].count('fail')} of 20 frozen, "
             f"Lemma 3 {verdicts['lemma3', 'noise'].count('fail')} of 20 "
             "noise runs")


# ---------------------------------------------------------------------------
# fitted oscillation decay slopes

def test_oscillation_exponent_ensemble():
    t_begin = time.perf_counter()
    good = 0
    alphas = []
    for seed in range(1, 21):
        rep = oscillation_decay(cached_oscillation_run(seed), 0.65, 4)
        alphas.append(rep.alpha)
        if rep.alpha > 0.03 and rep.r_squared >= 0.9:
            good += 1

    traj = cached_oscillation_run(1)
    quant = np.round(traj.fields * 2.0 ** 20) / 2.0 ** 20
    base = oscillation_decay(
        synthetic_trajectory(traj.grid, traj.times, quant),
        0.65, 4)
    moved = oscillation_decay(
        synthetic_trajectory(traj.grid, traj.times, 2.0 * quant + 0.5),
        0.65, 4)
    affine_exact = (moved.alpha == base.alpha
                    and moved.r_squared == base.r_squared
                    and np.array_equal(moved.osc, 2.0 * base.osc))
    elapsed = time.perf_counter() - t_begin
    announce("oscillation-exponents",
             good >= 18 and affine_exact and elapsed < 300.0,
             f"{good}/20 seeds with alpha > 0.03 and R^2 >= 0.9 "
             f"(min alpha {min(alphas):.3f}), affine-exact fit, "
             f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# early-time sup bound over the dyadic waiting-time sweep

def test_early_time_sup_bound(calibration):
    worst_ratio = 0.0
    violations = []
    for seed in range(1, 51):
        traj = cached_lemma_run(seed)
        for t0 in 0.5 ** np.arange(1, 7):
            rep = verify_corollary1(traj, t0=float(t0),
                                    eps0=calibration.eps0)
            ratio = rep.numbers["measured_sup"] / rep.numbers["bound"]
            worst_ratio = max(worst_ratio, ratio)
            if not rep.conclusion_ok:
                violations.append((seed, float(t0)))
    announce("early-time-sup-bound", not violations,
             f"sup/bound <= {worst_ratio:.3f} over 50 seeds x 6 dyadic "
             f"waiting times")


# ---------------------------------------------------------------------------
# the shipped constants against a re-derivation from the same runs

def same_constants(a, b) -> bool:
    """Equal structure and entries, floats to 1e-12 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_constants(a[k], b[k])
                                            for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(same_constants, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    return a == b


def test_calibration_drift(calibration, repinned_constants):
    # after the ensemble gates above, so the fixture reduces their cached runs
    fit_drift = abs(repinned_constants.cbar / calibration.cbar - 1.0)
    drift = max(abs(getattr(repinned_constants, n) / getattr(calibration, n)
                    - 1.0) for n in ("eps0", "delta", "lam_star"))
    announce("calibration-drift", fit_drift <= 0.05 and drift <= 0.10,
             f"fitted recurrence constant drift {100 * fit_drift:.2f}%, "
             f"eps0/delta/lam_star drift {100 * drift:.2f}%")
    # the shipped file is what `nlflow calibrate` writes at this commit
    assert same_constants(dataclasses.asdict(calibration),
                          dataclasses.asdict(repinned_constants))


# ---------------------------------------------------------------------------
# denoising round trip through the command line

def test_denoise_round_trip(tmp_path):
    g = Grid(dimension=2, side_length=16.0, points_per_axis=64)
    coords = g.node_coords()
    stripes = (np.floor(coords[:, 0] / 2.0).astype(int) % 2).astype(float)
    rng = np.random.default_rng(17)
    flips = rng.random(g.n_nodes) < 0.03
    binary = np.where(flips, 1.0 - stripes, stripes)
    src = tmp_path / "binary.pgm"
    save_field(Field(g, binary), str(src))

    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        rc = cli_main(["denoise", "--out", str(out),
                       "--set", f"denoise.input={src}"])
        assert rc == 0
    with open(outs[0] / "report.json") as fh:
        report = json.load(fh)
    cleaned = load_field(str(outs[0] / "fields" / "denoised.pgm"))
    contained = (cleaned.values.min() >= binary.min() - 1e-12
                 and cleaned.values.max() <= binary.max() + 1e-12)
    identical = all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        for rel in ("report.json", "fields/denoised.pgm"))
    ok = (report["passed"] and report["energy_strictly_decreased"]
          and contained and identical)
    announce("denoise-round-trip", ok,
             f"64x64 binary image, energy {report['flow']['energy_first']:.4g}"
             f" -> {report['flow']['energy_last']:.4g}, byte-identical rerun")
