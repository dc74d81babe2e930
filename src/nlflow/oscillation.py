"""Difference quotients, derived kernels, rescaling, and oscillation decay.

The linearization transfer: if theta solves the nonlinear flow, then
w = D_e^h theta solves a linear flow whose kernel K^h carries a sigma-average
of phi'' along the segment between shifted differences of theta.  This module
builds that kernel, measures the transfer defect, rescales trajectories
parabolically (time ~ space^s), and fits the decay of oscillations over
nested cylinders with a measured slope, not a Holder exponent (see below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .degiorgi import BarrierFamily, LemmaReport, _barrier, \
    _first_exceedance, _graded, eval_barrier
from .errors import (InvalidParameterError, NonLatticeStepError,
                     TrajectoryMismatchError, UnderResolvedError,
                     raise_first, violations)
from .flow import Trajectory
from .grid import DiscreteOperator, Field, Grid, OffsetStencil
from .kernels import BAND_RTOL, Kernel
from .potentials import Potential

__all__ = [
    "difference_quotient",
    "DerivedKernel",
    "DerivedEnvelopeReport",
    "scan_derived_envelope",
    "TransferReport",
    "verify_linearization",
    "parabolic_rescale",
    "OscillationReport",
    "oscillation_decay",
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


def _lattice_steps(grid: Grid, h: float) -> int:
    """h as an exact positive multiple of the grid spacing."""
    if not (h > 0.0):
        raise NonLatticeStepError(f"step must be positive, got {h}")
    ratio = h / grid.spacing
    m = int(round(ratio))
    if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, ratio):
        raise NonLatticeStepError(
            f"step {h} is not an integer multiple of the spacing "
            f"{grid.spacing}")
    return m


def _check_axis(grid: Grid, e: int) -> int:
    if not (0 <= int(e) < grid.dimension):
        raise InvalidParameterError(
            f"direction {e} outside axes 0..{grid.dimension - 1}")
    return int(e)


def difference_quotient(theta: Field, e: int, h: float) -> Field:
    """Forward difference quotient (theta(x + h e) - theta(x)) / h."""
    grid = theta.grid
    axis = _check_axis(grid, e)
    m = _lattice_steps(grid, h)
    wg = theta.values.reshape(grid.shape)
    quot = (np.roll(wg, -m, axis=axis) - wg) / h
    return Field(grid, quot.ravel())


# ---------------------------------------------------------------------------
# derived kernel K^h

class DerivedKernel:
    """K^h(t,x,y) = K(y-x) * int_0^1 phi''((1-sigma) a + sigma b) dsigma

    with a = theta(y) - theta(x), b the same difference one lattice step h
    along axis e, and theta read from the latest trajectory sample at or
    before t.  K^h exists only as per-offset tables on the flow's stencil
    (`offset_factors`) over the stencil's kept offsets, the form its linear
    flow consumes (phi'' is even, so K^h is symmetric).  The sigma-average
    is clamped to the potential's certified phi'' range, so the two-sided
    kernel envelope holds for every pair regardless of quadrature error.
    """

    def __init__(self, base: Kernel, potential: Potential,
                 traj: Trajectory, e: int, h: float):
        if not base.translation_invariant:
            raise InvalidParameterError(
                "derived kernels require a translation-invariant base")
        if traj.grid.dimension != base.spec.dimension:
            raise InvalidParameterError(
                f"trajectory dimension {traj.grid.dimension} != kernel "
                f"dimension {base.spec.dimension}")
        self.potential = potential
        self.traj = traj
        self.grid = traj.grid
        self.axis = _check_axis(traj.grid, e)
        self.steps = _lattice_steps(traj.grid, h)
        nodes, weights = np.polynomial.legendre.leggauss(SIGMA_NODES)
        self.sigma = 0.5 * (nodes + 1.0)
        self.weights = 0.5 * weights
        lo, hi = potential.d2_bounds
        self.quadratic = lo == hi
        self._factor_cache: dict[int, np.ndarray] = {}

    def sample_index(self, t: float) -> int:
        times = self.traj.times
        i = int(np.searchsorted(times, t + 1e-12)) - 1
        return min(max(i, 0), times.size - 1)

    def _sigma_average(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sigma = self.sigma.reshape((-1,) + (1,) * a.ndim)
        u = (1.0 - sigma) * a + sigma * b
        vals = np.tensordot(self.weights, self.potential.d2(u), axes=1)
        lo, hi = self.potential.d2_bounds
        return np.clip(vals, lo, hi)

    def offset_factors(self, t: float,
                       stencil: OffsetStencil) -> np.ndarray | None:
        """Per-offset sigma-average arrays, or None for quadratic phi
        (phi'' identically 1, so K^h is the base kernel verbatim)."""
        if self.quadratic:
            return None
        key = self.sample_index(t)
        cached = self._factor_cache.get(key)
        if cached is not None and cached.shape[0] == stencil.deltas.shape[0]:
            return cached
        theta = self.traj.fields[key].reshape(self.grid.shape)
        pair = np.stack([theta, np.roll(theta, -self.steps, axis=self.axis)])
        out = np.empty((stencil.deltas.shape[0], self.grid.n_nodes))
        for rows, diffs in stencil.blocks(pair):
            out[rows] = self._sigma_average(diffs[0], diffs[1]).reshape(
                -1, self.grid.n_nodes)
        self._factor_cache = {key: out}
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


def scan_derived_envelope(potential: Potential, theta_traj: Trajectory,
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
    base = theta_traj.kernel
    if base is None:
        raise TrajectoryMismatchError("trajectory carries no kernel")
    grid = theta_traj.grid
    kernels = [DerivedKernel(base, potential, theta_traj, e, m * grid.spacing)
               for m in ENVELOPE_STEP_FACTORS]
    op = DiscreteOperator(grid, base, "banded")
    # a kept offset stands for `multiplicity` ordered ones (K^h symmetric)
    mult = op.stencil.multiplicity[:, None]
    s = base.spec.order
    # K |x-y|^(N+s) / (1 - s/2) per offset, times each pair's sigma-average
    # for K^h
    base_ratio = (op.offset_values() * op.dists ** (grid.dimension + s)
                  / (1.0 - 0.5 * s))[:, None]
    product = base.spec.ellipticity * potential.spec.ellipticity
    band_lo, band_hi = product ** -0.5, product ** 0.5
    lo, hi = band_lo * (1.0 - BAND_RTOL), band_hi * (1.0 + BAND_RTOL)
    ratio_min, ratio_max = math.inf, -math.inf
    breaks = count = 0
    for dk in kernels:
        for t in theta_traj.times:
            factors = dk.offset_factors(t, op.stencil)
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
    axis: int
    n_steps: int
    freeze_interval: float      # sample cadence the kernel is frozen on
    sigma_nodes: int


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
        raise TrajectoryMismatchError(
            f"transfer needs a nonlinear trajectory, got {theta_traj.kind!r}")
    if theta_traj.stepper != "euler":
        raise TrajectoryMismatchError(
            "transfer is defined for the euler stepper")
    base = theta_traj.kernel
    potential = theta_traj.potential
    if base is None or potential is None:
        raise TrajectoryMismatchError(
            "trajectory must carry its kernel and potential")
    grid = theta_traj.grid
    if h is None:
        h = grid.spacing
    dk = DerivedKernel(base, potential, theta_traj, e, h)
    axis = dk.axis

    # the flow's own banded operator: its offsets, stencil and kernel table
    op = DiscreteOperator(grid, base, "banded")
    kd = op.offset_values()                         # per-offset scalars
    h_n = grid.spacing ** grid.dimension

    step_times = theta_traj.step_times
    dts = np.diff(step_times)
    sample_pos = np.searchsorted(step_times, theta_traj.times - 1e-12)

    w = difference_quotient(
        Field(grid, theta_traj.fields[0]), e, h).values.reshape(grid.shape)
    defects = np.empty(theta_traj.n_samples)
    next_cmp = 0

    def compare(state_row: int, w_now: np.ndarray) -> float:
        ref = difference_quotient(
            Field(grid, theta_traj.fields[state_row]), e, h).values
        return float(np.max(np.abs(ref - w_now.ravel())))

    for n in range(step_times.size):
        while next_cmp < sample_pos.size and sample_pos[next_cmp] == n:
            defects[next_cmp] = compare(next_cmp, w)
            next_cmp += 1
        if n == dts.size:
            break
        factors = dk.offset_factors(step_times[n], op.stencil)
        table = kd if factors is None else kd[:, None] * factors
        w = w + dts[n] * (op.stencil.offset_sum(w, table) * h_n)

    max_defect = float(np.max(defects))
    return TransferReport(
        max_defect=max_defect, defect_times=theta_traj.times.copy(),
        defect_curve=defects, quadratic=dk.quadratic, step=float(h), axis=axis,
        n_steps=int(dts.size),
        freeze_interval=float(np.max(np.diff(theta_traj.times))),
        sigma_nodes=SIGMA_NODES)


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
        raise InvalidParameterError(f"rescale factor must be > 0, got {rho}")
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

def _cylinder(traj: Trajectory, radius: float,
              depth: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample indices and node mask of [-depth, 0] x B_radius about the
    origin; raises unless each holds MIN_CYLINDER."""
    rows = traj.window(-depth, need=0)
    nodes = traj.grid.ball(radius)
    n_nodes = int(np.sum(nodes))
    if n_nodes < MIN_CYLINDER or rows.size < MIN_CYLINDER:
        raise UnderResolvedError(
            f"cylinder [-{depth:g}, 0] x B_{radius:g} holds {n_nodes} nodes "
            f"and {rows.size} samples; need >= {MIN_CYLINDER} of each")
    return rows, nodes


@dataclass(frozen=True)
class OscillationReport:
    scale: float                # K_sc
    levels: int
    order: float
    radii: np.ndarray
    depths: np.ndarray
    osc: np.ndarray
    node_counts: np.ndarray
    sample_counts: np.ndarray
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
    node_counts = np.empty(levels, dtype=np.int64)
    sample_counts = np.empty(levels, dtype=np.int64)
    for k in range(levels):
        rows, nodes = _cylinder(traj, radii[k], depths[k])
        node_counts[k], sample_counts[k] = np.sum(nodes), rows.size
        vals = traj.samples(rows)[:, nodes]
        osc[k] = float(np.max(vals) - np.min(vals))
    alpha, r2, degenerate = _fit_decay(osc, scale, s)
    return OscillationReport(
        scale=float(scale), levels=levels, order=s, radii=radii,
        depths=depths, osc=osc, node_counts=node_counts,
        sample_counts=sample_counts, alpha=alpha, r_squared=r2,
        degenerate=degenerate)


# ---------------------------------------------------------------------------
# normalized rescaling sequence and the oscillation lemma

@dataclass(frozen=True)
class RescaleLevel:
    level: int
    sup_norm: float
    mean: float
    envelope_ok: bool
    nodes_in_unit_ball: int
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
    return _first_exceedance(
        traj, -3.0, 1.0 + _barrier(traj, "psi_eps_lambda", lam=lam, eps=eps),
        two_sided=True)


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
    if not (0.0 < lam < 1.0 / 3.0):
        raise InvalidParameterError(f"lambda must be in (0, 1/3), got {lam}")
    if not (0.0 < lam_star < 1.0):
        raise InvalidParameterError(
            f"lambda_star must be in (0, 1), got {lam_star}")
    if not (0.0 < scale < 1.0):
        raise InvalidParameterError(
            f"scale factor must be in (0, 1), got {scale}")
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
            level=k, sup_norm=max(abs(float(window.min())),
                                  abs(float(window.max()))),
            mean=mean_k, envelope_ok=violation is None,
            nodes_in_unit_ball=int(np.sum(ball)), samples_in_window=rows.size,
            first_violation=violation))
        if k == MAX_RESCALE_LEVELS:
            break
        # the view keeps every node and, in order, the samples up to t = 0,
        # so this cylinder's indices are those of the next unit cylinder
        try:
            rows, ball = _cylinder(current, scale, scale ** s)
        except UnderResolvedError:
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
    if not (eps > 0.0):
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    if not (0.0 < lam_star < 1.0):
        raise InvalidParameterError(
            f"lambda_star must be in (0, 1), got {lam_star}")
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
    b = BarrierFamily("psi_eps_lambda", order=order, lam=lam, eps=eps)
    support = b.support_radius
    r = np.geomspace(1.0 / scale, max(100.0 * support, 1e4),
                     BARRIER_PROBE_POINTS)
    num = eval_barrier(b, scale * r)
    rhs = eval_barrier(b, r)
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
