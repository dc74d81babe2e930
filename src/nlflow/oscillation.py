"""Difference quotients, derived kernels, rescaling, and oscillation decay.

The linearization transfer: if theta solves the nonlinear flow, then
w = D_e^h theta solves a linear flow whose kernel K^h carries a sigma-average
of phi'' along the segment between shifted differences of theta.  This module
builds that kernel, measures the transfer defect, rescales trajectories
parabolically (time ~ space^s), and fits the decay of oscillations over
nested cylinders with a measured slope, not a Holder exponent (see below).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .degiorgi import LemmaReport, _first_exceedance, _graded, barrier, \
    constant_errors, lambda_support
from .errors import NlflowError, raise_first, violations
from .flow import Trajectory, kind_errors
from .grid import DiscreteOperator, Field, Grid, OffsetStencil
from .kernels import BAND_RTOL, Kernel, order_errors
from .potentials import Potential

__all__ = [
    "difference_quotient",
    "sigma_average",
    "derived_factors",
    "DerivedEnvelopeReport",
    "scan_derived_envelope",
    "TransferReport",
    "verify_linearization",
    "parabolic_rescale",
    "OscillationReport",
    "oscillation_decay",
    "cylinder_errors",
    "RescaleLevel",
    "RescaleReport",
    "rescaling_sequence",
    "unit_oscillation",
    "verify_lemma3",
    "check_scale_barrier",
]

SIGMA_NODES = 8                   # Gauss-Legendre nodes of the sigma-average
ENVELOPE_STEP_FACTORS = (1, 2, 4)  # steps h / spacing the envelope scan tries
MAX_RESCALE_LEVELS = 8            # deepest level of `rescaling_sequence`
MIN_CYLINDER = 8                  # nodes and samples of a resolved cylinder
BARRIER_PROBE_POINTS = 4096       # radii of `check_scale_barrier`'s probe


def _lattice_step(grid: Grid, e: int, h: float) -> tuple[int, int]:
    """Axis e and the multiple h / spacing, a positive integer, of a step h
    along it."""
    ratio = h / grid.spacing
    m = int(round(ratio)) if 0.0 < ratio < math.inf else 0
    raise_first(violations(
        ("e", 0 <= e < grid.dimension,
         f"direction {e} outside axes 0..{grid.dimension - 1}"),
        ("h", m >= 1 and abs(ratio - m) <= 1e-9 * max(1.0, ratio), f"step {h} "
         f"is not a positive multiple of the spacing {grid.spacing}")))
    return int(e), m


def difference_quotient(theta: Field, e: int, h: float) -> Field:
    """Forward difference quotient (theta(x + h e) - theta(x)) / h."""
    grid = theta.grid
    axis, m = _lattice_step(grid, e, h)
    wg = theta.values.reshape(grid.shape)
    quot = (np.roll(wg, -m, axis=axis) - wg) / h
    return Field(grid, quot.ravel())


# ---------------------------------------------------------------------------
# derived kernel K^h

@functools.cache
def _sigma_rule() -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(SIGMA_NODES)
    return 0.5 * (nodes + 1.0), 0.5 * weights       # on [0, 1]


def sigma_average(potential: Potential, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """int_0^1 phi''((1 - sigma) a + sigma b) dsigma, clamped to the
    potential's certified phi'' range, so the two-sided kernel envelope
    holds for every pair regardless of quadrature error."""
    sigma, weights = _sigma_rule()
    sigma = sigma.reshape((-1,) + (1,) * a.ndim)
    return np.clip(np.tensordot(weights, potential.d2(
        (1.0 - sigma) * a + sigma * b), axes=1), *potential.d2_bounds)


def _linearized(traj: Trajectory) -> tuple[Kernel, Potential]:
    """The kernel and potential of `traj`; K^h needs both, and a kernel the
    nonlinear flow takes."""
    if traj.kernel is None or traj.potential is None:
        raise NlflowError("trajectory must carry its kernel and potential")
    raise_first(kind_errors("nonlinear", "banded", traj.kernel.spec.family))
    return traj.kernel, traj.potential


def derived_factors(traj: Trajectory, index: int, e: int, h: float,
                    stencil: OffsetStencil) -> np.ndarray | None:
    """K^h / K per kept offset d of `stencil` and node x, theta being sample
    `index` of `traj`: the sigma-average of phi'' from a = theta(x + d) -
    theta(x) to b, the same difference a step h along axis e (K^h is
    symmetric, as phi'' is even).  None for quadratic phi: phi'' = 1, so K^h
    is the base kernel verbatim."""
    grid, potential = traj.grid, traj.potential
    axis, m = _lattice_step(grid, e, h)
    if potential.d2_bounds[0] == potential.d2_bounds[1]:
        return None
    theta = traj.fields[index].reshape(grid.shape)
    pair = np.stack([theta, np.roll(theta, -m, axis=axis)])
    out = np.empty((stencil.deltas.shape[0], grid.n_nodes))
    for rows, diffs in stencil.blocks(pair):
        out[rows] = sigma_average(potential, diffs[0], diffs[1]).reshape(
            -1, grid.n_nodes)
    return out


@dataclass(frozen=True)
class DerivedEnvelopeReport:
    sample_count: int
    ratio_min: float
    ratio_max: float
    band_lo: float
    band_hi: float
    violations: int
    step_factors: tuple

    @property
    def passed(self) -> bool:
        return self.violations == 0


def scan_derived_envelope(theta_traj: Trajectory,
                          e: int = 0) -> DerivedEnvelopeReport:
    """Two-sided envelope scan of K^h over every lattice pair within the
    truncation radius at every sample time, at the steps h = m * spacing for
    m in ENVELOPE_STEP_FACTORS; `sample_count` is the number of pairs checked.

    The base multiplier lives in [Lk^{-1/2}, Lk^{1/2}] and the phi''
    average in [Lp^{-1/2}, Lp^{1/2}], with Lk and Lp the kernel's and the
    potential's Lambda, so their product stays within the certified band
    [(Lk Lp)^{-1/2}, (Lk Lp)^{1/2}] for every h: [1/Lambda, Lambda] when
    the two agree.  The ratio keeps the multiplier, and the band is compared
    up to `kernels.BAND_RTOL`, as `validate_kernel` compares it.
    """
    base, potential = _linearized(theta_traj)
    grid = theta_traj.grid
    op = DiscreteOperator(grid, base, "banded")
    # a kept offset stands for `multiplicity` ordered ones (K^h symmetric)
    mult = op.stencil.multiplicity[:, None]
    s = base.spec.order
    # K |x-y|^(N+s) / (1 - s/2) per offset, times K^h / K for K^h
    base_ratio = (op.offset_values() * op.dists ** (grid.dimension + s)
                  / (1.0 - 0.5 * s))[:, None]
    product = base.spec.ellipticity * potential.spec.ellipticity
    band_lo, band_hi = product ** -0.5, product ** 0.5
    lo, hi = band_lo * (1.0 - BAND_RTOL), band_hi * (1.0 + BAND_RTOL)
    ratio_min, ratio_max = math.inf, -math.inf
    breaks = count = 0
    for m in ENVELOPE_STEP_FACTORS:
        for i in range(theta_traj.n_samples):
            factors = derived_factors(theta_traj, i, e, m * grid.spacing,
                                      op.stencil)
            ratios = np.broadcast_to(
                base_ratio if factors is None else base_ratio * factors,
                (base_ratio.size, grid.n_nodes))
            ratio_min = min(ratio_min, float(np.min(ratios)))
            ratio_max = max(ratio_max, float(np.max(ratios)))
            breaks += int(np.sum(
                mult * ((ratios < lo) | (ratios > hi))))
            count += int(np.sum(mult)) * grid.n_nodes
    return DerivedEnvelopeReport(
        sample_count=count, ratio_min=ratio_min, ratio_max=ratio_max,
        band_lo=band_lo, band_hi=band_hi, violations=breaks,
        step_factors=ENVELOPE_STEP_FACTORS)


# ---------------------------------------------------------------------------
# linearization transfer

@dataclass(frozen=True)
class TransferReport:
    max_defect: float
    defect_times: np.ndarray
    defect_curve: np.ndarray
    # True for the quadratic potential, where the linear update reuses the
    # base kernel's per-offset values bit for bit.  The defect itself still
    # carries a ~1e-15 floor: quotient-then-step and step-then-quotient round
    # differently even when every coefficient matches.
    quadratic: bool
    step: float


def verify_linearization(theta_traj: Trajectory, e: int = 0,
                         h: float | None = None) -> TransferReport:
    """Integrate the linear flow of w = D_e^h theta with kernel K^h.

    The kernel is frozen from the latest trajectory *sample* at or before
    each step time, so the transfer defect carries an O(sample spacing) lag
    term on top of the sigma-quadrature floor; refining dt (with the sampling
    stride fixed) shrinks it at first order.  For quadratic phi the derived
    kernel is the base kernel verbatim and the linear update reuses the same
    per-offset values, bitwise.
    """
    if theta_traj.kind != "nonlinear":
        raise NlflowError("transfer needs a nonlinear trajectory, got "
                          f"{theta_traj.kind!r}")
    base, potential = _linearized(theta_traj)
    grid = theta_traj.grid
    h = grid.spacing if h is None else h

    # the flow's own banded operator: its offsets, stencil and kernel table
    op = DiscreteOperator(grid, base, "banded")
    kd = op.offset_values()                         # per-offset scalars
    h_n = grid.spacing ** grid.dimension
    # the steps from sample i to sample i + 1 run on sample i's K^h
    dts = np.diff(theta_traj.step_times)
    starts = np.searchsorted(theta_traj.step_times, theta_traj.times - 1e-12)

    w = difference_quotient(theta_traj.field(0), e, h).values.reshape(
        grid.shape)
    defects = np.empty(theta_traj.n_samples)
    for i in range(theta_traj.n_samples):
        ref = difference_quotient(theta_traj.field(i), e, h).values
        defects[i] = float(np.max(np.abs(ref - w.ravel())))
        if i + 1 == theta_traj.n_samples:
            break
        factors = derived_factors(theta_traj, i, e, h, op.stencil)
        table = kd if factors is None else kd[:, None] * factors
        for n in range(starts[i], starts[i + 1]):
            w = w + dts[n] * (op.stencil.offset_sum(w, table) * h_n)

    return TransferReport(
        max_defect=float(np.max(defects)),
        defect_times=theta_traj.times.copy(), defect_curve=defects,
        quadratic=potential.d2_bounds[0] == potential.d2_bounds[1],
        step=float(h))


# ---------------------------------------------------------------------------
# parabolic rescaling

def parabolic_rescale(traj: Trajectory, rho: float) -> Trajectory:
    """View w(rho^s tau, rho xi) on a grid with side L / rho, with s the
    trajectory's order: the cylinder about the origin of space-time.

    The view keeps all M^N nodes: node xi_j of the rescaled grid lands on
    parent coordinate j * h exactly, so the view's fields are the parent's
    samples up to t = 0 unchanged, and share the parent's memory.
    """
    if not (rho > 0.0):
        raise NlflowError(f"rescale factor must be > 0, got {rho}")
    s = float(traj.order)
    grid = traj.grid
    traj.window(0.0, math.inf, need=1)      # the samples do not end before 0
    keep = traj.window(-math.inf)
    view_fields = traj.samples(keep)
    view_times = traj.times[keep] / rho ** s

    view_grid = Grid(dimension=grid.dimension,
                     side_length=grid.side_length / rho,
                     points_per_axis=grid.points_per_axis)
    induced = None
    if traj.kernel is not None:
        spec = traj.kernel.spec
        induced = Kernel(replace(
            spec, truncation_radius=spec.truncation_radius / rho,
            cell_size=spec.cell_size / rho,
            epoch_length=spec.epoch_length / rho ** s))
    return Trajectory.from_fields(
        view_grid, view_times, view_fields, kind="rescaled-view",
        kernel=induced, order=s)


# ---------------------------------------------------------------------------
# oscillation decay and its measured slope

def cylinder_errors(radius: float, depth: float, n_nodes: int,
                    n_samples: int) -> list:
    """(field, error) pairs of the rule a cylinder [-depth, 0] x B_radius
    of n_nodes nodes and n_samples samples breaks: MIN_CYLINDER of each."""
    return violations(("cylinder", min(n_nodes, n_samples) >= MIN_CYLINDER,
                       f"cylinder [-{depth:g}, 0] x B_{radius:g} holds "
                       f"{n_nodes} nodes and {n_samples} samples; need >= "
                       f"{MIN_CYLINDER} of each"))


def _cylinder(traj: Trajectory, radius: float,
              depth: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample indices and node mask of [-depth, 0] x B_radius about the
    origin; raises unless `cylinder_errors` finds none."""
    rows = traj.window(-depth, need=0)
    nodes = traj.grid.ball(radius)
    raise_first(cylinder_errors(radius, depth, int(np.sum(nodes)), rows.size))
    return rows, nodes


@dataclass(frozen=True)
class OscillationReport:
    radii: np.ndarray
    osc: np.ndarray
    alpha: float
    r_squared: float
    degenerate: bool


def _fit_decay(osc: np.ndarray, scale: float, s: float
               ) -> tuple[float, float, bool]:
    """Least-squares slope of ln(osc_k / osc_0) against k ln(scale^s).

    Using ratios keeps the fit bitwise invariant under exact rescalings of
    the data (power-of-two affine maps leave every ratio unchanged).
    """
    positive = osc > 0.0
    n_pos = int(np.argmin(positive)) if not positive.all() else osc.size
    if n_pos < 2:
        return math.inf, math.nan, True
    y = np.log(osc[:n_pos] / osc[0])
    z = np.arange(n_pos) * (s * math.log(scale))
    zc = z - z.mean()
    yc = y - y.mean()
    denom = float(np.dot(zc, zc))
    slope = float(np.dot(zc, yc) / denom)
    ss_res = float(np.sum((yc - slope * zc) ** 2))
    ss_tot = float(np.dot(yc, yc))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, r2, False


def decay_errors(scale: float, levels: int) -> list:
    """(field, error) pairs of the rules a decay fit's cylinders break."""
    return violations(("levels", levels >= 3, "need at least 3 levels"),
                      ("scale", 0.0 < scale < 1.0, "scale must lie in (0,1)"))


def oscillation_decay(traj: Trajectory, scale: float,
                      levels: int) -> OscillationReport:
    """Oscillation over nested cylinders (-scale^{ks}, 0] x B_{scale^k} about
    the origin, with s the trajectory's order.

    Nesting makes osc_k nonincreasing exactly.  `alpha` is the measured
    decay slope: the least-squares rate of osc_k in k ln(scale^s).  No
    verdict rests on it, and it is not a Holder exponent: on the oscillation
    runs it reads above 1, the smoothness of a smoothed step.
    """
    raise_first(decay_errors(scale, levels))
    s = float(traj.order)
    ks = np.arange(levels)
    radii = scale ** ks
    depths = scale ** (ks * s)
    osc = np.empty(levels)
    for k in range(levels):
        rows, nodes = _cylinder(traj, radii[k], depths[k])
        vals = traj.samples(rows)[:, nodes]
        osc[k] = float(np.max(vals) - np.min(vals))
    alpha, r2, degenerate = _fit_decay(osc, scale, s)
    return OscillationReport(radii=radii, osc=osc, alpha=alpha, r_squared=r2,
                             degenerate=degenerate)


# ---------------------------------------------------------------------------
# normalized rescaling sequence and the oscillation lemma

@dataclass(frozen=True)
class RescaleLevel:
    sup_norm: float
    mean: float
    envelope_ok: bool
    samples_in_window: int
    first_violation: dict | None


@dataclass(frozen=True)
class RescaleReport:
    levels: list
    lam: float
    lam_star: float
    scale: float
    eps: float
    floor_level: int | None      # level at which resolution ran out
    first_envelope_violation: int | None


def _envelope_breach(traj: Trajectory, lam: float, eps: float) -> dict | None:
    """First breach on [-3, 0] of Lemma 3's two-sided envelope
    |w| <= 1 + psi_{eps,lam}; None when it holds."""
    return _first_exceedance(traj, -3.0, 1.0 + barrier(
        traj.grid.origin_distance(), eps,
        lambda_support(lam, float(traj.order))), two_sided=True)


def rescaling_sequence(traj: Trajectory, lam: float, lam_star: float,
                       scale: float, eps: float) -> RescaleReport:
    """w_{k+1}(t,x) = (w_k(scale^s t, scale x) - mean_k) / (1 - lam_star/4).

    mean_k is the plain node/time average of w_k over [-1,0] x B_1.  Each
    level is checked against the +-(1 + psi_{eps,lam}) envelope, a violation
    recorded (not raised); its sup over [-3, 0] is reported, not graded.
    Levels stop at MAX_RESCALE_LEVELS or before the first whose unit
    cylinder holds fewer than MIN_CYLINDER nodes or samples; the input's own
    unit cylinder must hold them.
    """
    # the levels shrink by `scale`, as the decay fit's cylinders do
    raise_first(constant_errors(lam=lam, lam_star=lam_star, eps=eps)
                + decay_errors(scale, MAX_RESCALE_LEVELS))
    s = float(traj.order)
    shrink = 1.0 - 0.25 * lam_star
    current = traj
    rows, ball = _cylinder(traj, 1.0, 1.0)
    records: list[RescaleLevel] = []
    first_violation_level = None
    floor_level = None
    for k in range(MAX_RESCALE_LEVELS + 1):
        violation = _envelope_breach(current, lam, eps)
        if violation is not None and first_violation_level is None:
            first_violation_level = k
        mean_k = float(np.mean(current.samples(rows)[:, ball]))
        window = current.samples(current.window(-3.0))
        records.append(RescaleLevel(
            sup_norm=max(abs(float(window.min())), abs(float(window.max()))),
            mean=mean_k, envelope_ok=violation is None,
            samples_in_window=rows.size, first_violation=violation))
        if k == MAX_RESCALE_LEVELS:
            break
        # the view keeps every node and, in order, the samples up to t = 0,
        # so this cylinder's indices are those of the next unit cylinder
        rows = current.window(-scale ** s, need=0)
        ball = current.grid.ball(scale)
        if cylinder_errors(scale, scale ** s, int(np.sum(ball)), rows.size):
            floor_level = k
            break
        current = parabolic_rescale(current, scale)
        # a new array, as the view shares its parent's memory
        current.fields = (current.fields - mean_k) / shrink

    return RescaleReport(
        levels=records, lam=lam, lam_star=lam_star, scale=scale, eps=eps,
        floor_level=floor_level,
        first_envelope_violation=first_violation_level)


def unit_oscillation(traj: Trajectory) -> float:
    """sup - inf of the sampled field over the unit cylinder [-1, 0] x B_1."""
    rows, nodes = _cylinder(traj, 1.0, 1.0)
    vals = traj.samples(rows)[:, nodes]
    return float(np.max(vals) - np.min(vals))


def verify_lemma3(traj: Trajectory, eps: float, lam: float,
                  lam_star: float) -> LemmaReport:
    """Two-sided barrier envelope forces oscillation <= 2 - lam_star.

    Hypothesis: -1 - psi_{eps,lam} <= w <= 1 + psi_{eps,lam} on [-3, 0].
    Conclusion: sup - inf over [-1,0] x B_1 is at most 2 - lam_star.
    """
    raise_first(constant_errors(eps=eps, lam=lam, lam_star=lam_star))
    violation = _envelope_breach(traj, lam, eps)
    hypothesis_ok = violation is None
    osc = unit_oscillation(traj)
    bound = 2.0 - lam_star
    conclusion_ok = osc <= bound
    return _graded(
        "lemma3", hypothesis_ok, hypothesis_ok, conclusion_ok,
        {"oscillation": osc, "bound": bound, "eps": eps, "lam": lam,
         "lam_star": lam_star, "order": float(traj.order)},
        violation if violation is not None else (
            None if conclusion_ok else {"oscillation": osc, "bound": bound}))


def check_scale_barrier(lam: float, lam_star: float, eps: float,
                        scale: float, order: float) -> dict:
    """Report whether (1/(1-lam_star/2)) psi_{eps,lam}(scale*r) <= psi_{eps,lam}(r)
    holds for r >= 1/scale, on a log-spaced radial grid.

    The scale factor is calibrated, not derived, so this inequality is
    reported rather than enforced.  `lam_star_threshold` is the largest
    lam_star for which the inequality holds on this radial grid: the barrier
    quotient psi(scale*r)/psi(r) climbs toward scale^eps at large r, so the
    threshold is 2*(1 - sup quotient), and calibrations that want the
    inequality to hold must stay below it.
    """
    raise_first(constant_errors(lam=lam, lam_star=lam_star, eps=eps)
                + order_errors(order))
    support = lambda_support(lam, order)
    r = np.geomspace(1.0 / scale, max(100.0 * support, 1e4),
                     BARRIER_PROBE_POINTS)
    num = barrier(scale * r, eps, support)
    rhs = barrier(r, eps, support)
    lhs = num / (1.0 - 0.5 * lam_star)
    gap = lhs - rhs
    worst = int(np.argmax(gap))
    active = num > 0.0          # psi nondecreasing, so rhs > 0 there too
    if np.any(active):
        sup_quotient = float(np.max(num[active] / rhs[active]))
        threshold = max(0.0, 2.0 * (1.0 - sup_quotient))
    else:
        threshold = 2.0         # barrier vanishes on the whole probe range
    return {
        "holds": bool(np.all(gap <= 0.0)),
        "max_violation": float(max(0.0, gap[worst])),
        "worst_radius": float(r[worst]),
        "support_radius": float(support),
        "scale": float(scale),
        "lam_star_threshold": threshold,
    }
