"""Barrier functions, truncated energies, and regularity diagnostics.

Everything in this module consumes sampled trajectories (see `flow`) and
produces deterministic reports.  The detectors (`verify_lemma1`, ...,
`verify_lemma2`) share a three-way verdict convention:

* ``"pass"``                -- hypothesis held and the conclusion held;
* ``"fail"``                -- hypothesis held but the conclusion broke;
* ``"hypothesis-violated"`` -- hypothesis (or a precondition) did not hold,
                               so the run is vacuous for the statement.

Every statement concerns one flow of one order s, so each detector reads s
from the trajectory (`Trajectory.order`) rather than taking it as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import NlflowError, raise_first, violations
from .flow import Trajectory
from .grid import BLOCK_BUDGET, SEMINORM_CUTOFF, seminorm_sq, \
    seminorm_stencil

__all__ = [
    "constant_errors",
    "barrier",
    "lambda_support",
    "phi_barrier",
    "truncated_energies",
    "RecurrenceReport",
    "check_recurrence",
    "ChebyshevReport",
    "chebyshev_chain",
    "LevelSetMeasures",
    "level_set_measures",
    "LemmaReport",
    "verify_lemma1",
    "verify_corollary1",
    "verify_corollary2",
    "verify_lemma2",
]


def constant_errors(**constants: float) -> list:
    """(field, error) pairs of the rules the lemmas' constants, named by
    keyword, break: each is a number, the budgets eps0, delta, mu, gamma and
    eps positive, the barrier parameter lam in (0, 1/3) and the drop
    lam_star in (0, 1)."""
    upper = {"lam": (1.0 / 3.0, "1/3"), "lam_star": (1.0, "1")}
    return violations(*(
        (name, isinstance(value, (int, float)) and (
            0.0 < value < upper[name][0] if name in upper else value > 0.0),
         f"{name} must lie in (0, {upper[name][1]})" if name in upper
         else f"{name} must be positive")
        for name, value in constants.items()))


# ---------------------------------------------------------------------------
# barriers: psi, psi_1, psi_lambda and psi_{eps,lambda} are the one ramp
# `barrier` at the paper's (exponent, support), s/2, s/4, s/4 and eps, the
# last two past `lambda_support`; `phi_barrier` adds lam^i F to 1 + psi_lambda

def barrier(r, exponent: float, support: float = 0.0) -> np.ndarray:
    """((|r| - support)_+^exponent - 1)_+ at radii r (scalar or array), the
    power only taken past the support; a signed coordinate reads as a
    radius, so callers on a grid pass `Grid.origin_distance`."""
    shifted = np.maximum(np.abs(r) - support, 0.0)
    return np.maximum(shifted ** exponent - 1.0, 0.0)


def lambda_support(lam: float, order: float) -> float:
    """lam^(-4/s), the radius below which psi_lambda and psi_{eps,lambda}
    vanish."""
    return lam ** (-4.0 / order)


def phi_barrier(r, order: float, lam: float, i: int) -> np.ndarray:
    """phi_i = 1 + psi_lambda + lam^i F at radii r, for i = 0, 1, 2, with F
    = sup(-1, inf(0, |r|^2 - 9)) the hump that closes at |r| = 3."""
    hump = np.maximum(-1.0, np.minimum(0.0, np.square(r) - 9.0))
    return 1.0 + barrier(r, 0.25 * order, lambda_support(lam, order)) + \
        (1.0, lam, lam * lam)[i] * hump


def _chunks(traj: Trajectory, idx: np.ndarray,
            nodes: np.ndarray | None = None):
    """Yield (rows, block) over the window `idx` a BLOCK_BUDGET of values at
    a time: `rows` a slice of idx, `block` the fields of its samples as a
    view of the trajectory or, with `nodes`, gathered at those nodes."""
    fields = traj.samples(idx)
    step = max(1, BLOCK_BUDGET // (fields.shape[1] if nodes is None
                                   else nodes.size))
    for lo in range(0, idx.size, step):
        rows = slice(lo, lo + step)
        yield rows, fields[rows] if nodes is None else fields[rows][:, nodes]


# ---------------------------------------------------------------------------
# truncated energies U_k

def _dyadic_ladder(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Window starts T_k = -1 - 2^-k and cut levels L_k = (1 - 2^-k)/2 for
    k = 0..k_max, all exact dyadics."""
    half_k = 0.5 ** np.arange(k_max + 1)
    return -1.0 - half_k, 0.5 - 0.5 * half_k


def _cyclic_cover(hits: np.ndarray, halo: int) -> tuple[int, int]:
    """(first node, length) of the shortest cyclic interval holding every
    True entry of `hits`, widened by `halo` nodes on both sides."""
    nodes = np.flatnonzero(hits)
    if nodes.size == 0:
        return 0, 2 * halo + 1
    gaps = np.diff(nodes, append=nodes[0] + hits.size)
    j = int(np.argmax(gaps))
    return int(nodes[(j + 1) % nodes.size]) - halo, \
        hits.size - int(gaps[j]) + 1 + 2 * halo


def _truncation_box(traj: Trajectory, idx: np.ndarray, psi: np.ndarray
                    ) -> tuple[int | None, np.ndarray | None, np.ndarray]:
    """(points an axis, its nodes, psi at them) of the sub-torus every
    truncation (w - psi_{L_k})_+ of the samples idx lives on.

    The rung-0 truncation (w - psi)_+ vanishes off a node set S, and every
    rung's truncation lies below it.  The box is the shortest cyclic interval
    of each axis holding S, widened by the longest seminorm offset on both
    sides and made square; read as a torus of its own, a seminorm pair that
    leaves it or wraps around it joins two nodes off S, so sums over the box
    miss only exact zeros.  A box not smaller than the grid is the grid
    (points and nodes None).
    """
    grid = traj.grid
    M, dim = grid.points_per_axis, grid.dimension
    halo = int(np.abs(grid.offsets_within(SEMINORM_CUTOFF)[0]).max(initial=0))
    support = np.zeros(grid.n_nodes, dtype=bool)
    for _, block in _chunks(traj, idx):
        support |= np.any(block > psi, axis=0)
    support = support.reshape(grid.shape)
    covers = [_cyclic_cover(np.any(support, axis=(1 - a,) * (dim - 1)), halo)
              for a in range(dim)]
    points = max(8, *(length for _, length in covers))
    if points >= M:
        return None, None, psi
    axes = [(first + np.arange(points)) % M for first, _ in covers]
    nodes = axes[0] if dim == 1 else (axes[0][:, None] * M + axes[1]).ravel()
    return points, nodes, psi[nodes]


def ladder_errors(k_max: int, max_gap: float = 0.0) -> list:
    """(field, error) pairs of the rules a ladder of k_max rungs breaks on
    samples at most `max_gap` apart: one rung or more, and four gaps or more
    in [T_k_max, -1], a gap of at most 2^-k_max / 4 (up to a relative 1e-9)."""
    rungs = max(0, math.floor(-math.log2(4.0 * max_gap / (1.0 + 1e-9)))) \
        if max_gap > 0.0 else math.inf
    return violations(
        ("k_max", k_max >= 1, "need at least one rung"),
        ("k_max", k_max <= rungs, f"samples {max_gap:.3e} apart resolve at "
         f"most {rungs} rungs"))


def truncated_energies(traj: Trajectory, k_max: int) -> np.ndarray:
    """Level-truncated energies U_0..U_k_max over the shrinking windows
    [T_k, 0].

    T_k = -1 - 2^-k and L_k = (1 - 2^-k)/2 are exact dyadics, the truncation
    barrier is psi_{L_k} centred at the origin, and

        U_k = sup_{t in [T_k, 0]} int (w - psi_{L_k})_+^2 dx
              + int_{T_k}^0 [ (w - psi_{L_k})_+ ]_{s/2}^2 dt .

    with s the trajectory's order and the seminorm taken over pairs within
    `SEMINORM_CUTOFF`.  Every rung sums over the one sub-torus the rung-0
    truncation lives on (`_truncation_box`), and the sup and the time
    integral are both accumulated from t = 0 backwards, so that U_{k+1} <=
    U_k holds exactly in floating point (each level-k+1 term is a
    rounded-monotone image of the matching level-k term, as every row is
    summed along its nodes by one fixed pairwise tree, and the level-k
    sequence only gains extra nonnegative terms).
    """
    s, grid = float(traj.order), traj.grid
    for edge in (-2.0, 0.0):            # samples reach both ends of [-2, 0]
        traj.window(edge, edge, need=1)
    idx = traj.window(-2.0)
    raise_first(ladder_errors(k_max, float(np.max(np.diff(traj.times[idx])))))

    t_starts, cuts = _dyadic_ladder(k_max)
    points, nodes, psi = _truncation_box(
        traj, idx, barrier(grid.origin_distance(), 0.5 * s))
    levels = cuts[:, None] + psi
    h_n = grid.spacing ** grid.dimension
    # rung k reads only the samples of [T_k, 0], idx's last ones, and of
    # those only the live ones: a vanishing truncation has both sums 0
    firsts = np.array([idx.size - traj.window(t_k).size for t_k in t_starts])
    alive = np.concatenate([~np.all(block[:, None] <= levels, axis=-1)
                            for _, block in _chunks(traj, idx, nodes)]).T
    rungs, at = np.nonzero(alive & (np.arange(idx.size) >= firsts[:, None]))
    # every rung's live truncations, packed into stacks of one shape (the
    # last one zero-filled), so one stencil and its one plan serve them all;
    # a stack of BLOCK_BUDGET values takes one offset a stencil block
    stencil = seminorm_stencil(grid, points)
    pack = np.zeros((max(1, BLOCK_BUDGET // psi.size), psi.size))
    sums = np.zeros((2,) + alive.shape)
    for lo in range(0, at.size, pack.shape[0]):
        live = slice(lo, lo + pack.shape[0])
        n, part = at[live].size, idx[at[live]]
        pos = pack[:n]
        pos[...] = traj.fields[part] if nodes is None else \
            traj.fields[part[:, None], nodes]
        np.subtract(pos, levels[rungs[live]], out=pos)
        np.maximum(pos, 0.0, out=pos)
        pack[n:] = 0.0
        sums[0, rungs[live], at[live]] = \
            (pack * pack).sum(axis=-1)[:n] * h_n
        sums[1, rungs[live], at[live]] = \
            seminorm_sq(grid, pack, s, stencil)[:n]
    sup_part = np.empty(k_max + 1)
    int_part = np.empty(k_max + 1)
    for j, first in enumerate(firsts):
        l2_mass, seminorm = sums[:, j, first:]
        # accumulate from t = 0 backwards, in order
        gaps = -np.diff(traj.times[idx[first:]][::-1])
        sup_part[j] = np.max(l2_mass)
        int_part[j] = np.cumsum(gaps * 0.5 * (seminorm[::-1][:-1]
                                              + seminorm[::-1][1:]))[-1]
    return sup_part + int_part


@dataclass(frozen=True)
class RecurrenceReport:
    ratios: np.ndarray         # c_k = (U_k/U_{k-1}^{1+s/N})^{1/k}, k=1..k_max
    constant: float            # max over defined c_k
    decayed: bool              # U_{k_max} < 1e-14
    degenerate: bool           # some U_{k-1} vanished, ratio undefined
    vacuous: bool              # every U_k is zero; recurrence holds trivially


def check_recurrence(u: np.ndarray, order: float,
                     dimension: int) -> RecurrenceReport:
    """Fit the smallest constant certifying U_k <= (C 2^k)^k U_{k-1}^{1+s/N}
    to the ladder u = U_0..U_k_max (`truncated_energies`) of a flow of
    order s on an N-dimensional grid."""
    expo = 1.0 + order / dimension
    ratios = np.full(u.size - 1, np.nan)
    degenerate = False
    for k in range(1, u.size):
        prev = u[k - 1]
        if prev <= 0.0:
            degenerate = True
            continue
        ratios[k - 1] = (u[k] / prev ** expo) ** (1.0 / k)
    defined = ratios[np.isfinite(ratios)]
    constant = float(np.max(defined)) if defined.size else math.nan
    return RecurrenceReport(
        ratios=ratios, constant=constant,
        decayed=bool(u[-1] < 1e-14), degenerate=degenerate,
        vacuous=bool(np.all(u == 0.0)))


# ---------------------------------------------------------------------------
# Chebyshev-type interpolation chain

@dataclass(frozen=True)
class ChebyshevReport:
    linear_lhs: np.ndarray       # iint (w - psi_{L_k})_+, k = 1..k_max
    indicator_lhs: np.ndarray    # iint 1_{w > psi_{L_k}}
    quadratic_lhs: np.ndarray    # iint (w - psi_{L_k})_+^2
    base_integral: np.ndarray    # iint (w - psi_{L_{k-1}})_+^{2(1+s/N)}
    slack: np.ndarray            # (k, 3) rhs - lhs, nonnegative when chain holds
    all_nonnegative: bool


def chebyshev_chain(traj: Trajectory, k_max: int) -> ChebyshevReport:
    """Interpolation bounds linking mass, measure, and energy across levels.

    Over Q_{k-1} = [T_{k-1}, 0] x nodes, with p the matching exponent,

        iint (w - psi_{L_k})_+      <= (2^{k+1})^{1+2s/N} iint (w-psi_{L_{k-1}})_+^{2(1+s/N)}
        iint 1_{w > psi_{L_k}}      <= (2^{k+1})^{2(1+s/N)} iint ...
        iint (w - psi_{L_k})_+^2    <= (2^{k+1})^{2s/N}     iint ...

    which follow pointwise from (w - psi_{L_{k-1}})_+ >= 2^{-(k+1)} on the
    set where w exceeds psi_{L_k}.  The sums run over the sub-torus of
    `_truncation_box`, and rung k's truncation on [T_k, 0], the tail of its
    window, is rung k+1's base.  Each rung reads its window a chunk of
    samples at a time.
    """
    raise_first(ladder_errors(k_max))
    s = float(traj.order)
    n_dim = traj.grid.dimension

    ks = np.arange(1, k_max + 1)
    t_starts, cuts = _dyadic_ladder(k_max)
    p_lin = 1.0 + 2.0 * s / n_dim
    p_ind = 2.0 * (1.0 + s / n_dim)
    p_sq = 2.0 * s / n_dim
    high = 2.0 * (1.0 + s / n_dim)
    _, nodes, psi = _truncation_box(
        traj, traj.window(t_starts[0]),
        barrier(traj.grid.origin_distance(), 0.5 * s))

    lin = np.empty(ks.size)
    ind = np.empty(ks.size)
    sq = np.empty(ks.size)
    base = np.empty(ks.size)
    for i, k in enumerate(ks):
        rows = traj.window(t_starts[k - 1])
        below, level = cuts[k - 1] + psi, cuts[k] + psi
        sums = np.empty((4, rows.size))
        for part, block in _chunks(traj, rows, nodes):
            # pow is slow at 0, and 0 ** high = 0: raise the others only
            low = np.maximum(block - below, 0.0)
            sums[0, part] = np.power(low, high, out=np.zeros_like(low),
                                     where=low != 0.0).sum(axis=-1)
            pos = np.maximum(block - level, 0.0)
            sums[1, part] = pos.sum(axis=-1)
            sums[2, part] = (pos > 0.0).sum(axis=-1)
            sums[3, part] = (pos * pos).sum(axis=-1)
        base[i], lin[i], ind[i], sq[i] = (_time_integral(traj, row, rows)
                                          for row in sums)

    factors = 2.0 ** (ks + 1)
    slack = np.stack([
        factors ** p_lin * base - lin,
        factors ** p_ind * base - ind,
        factors ** p_sq * base - sq,
    ], axis=1)
    return ChebyshevReport(
        linear_lhs=lin, indicator_lhs=ind, quadratic_lhs=sq,
        base_integral=base, slack=slack,
        all_nonnegative=bool(np.all(slack >= 0.0)))


# ---------------------------------------------------------------------------
# space-time level-set measures

def _time_integral(traj: Trajectory, sums: np.ndarray,
                   idx: np.ndarray) -> float:
    """Trapezoid-in-time integral of the node sums of the samples idx, a
    window of two samples or more (`Trajectory.window`), each times h^N."""
    h_n = traj.grid.spacing ** traj.grid.dimension
    return float(np.trapezoid(sums * h_n, traj.times[idx]))


def _window_measure(traj: Trajectory, idx: np.ndarray, integrand) -> float:
    """Trapezoid-in-time integral of the spatial integral of
    integrand(traj.fields[idx]), taking the integrand of a chunk of samples
    at a time.  Boolean integrands give the measure of a level set, real
    ones the integral of a function such as (w - psi)_+^2."""
    sums = np.empty(idx.size)
    for rows, block in _chunks(traj, idx):
        sums[rows] = integrand(block).sum(axis=-1)
    return _time_integral(traj, sums, idx)


@dataclass(frozen=True)
class LevelSetMeasures:
    below_phi0: float        # |{w < phi0} ^ ((-3,-2) x B_1)|
    above_phi2: float        # |{w > phi2} ^ ((-2,0) x torus)|
    intermediate: float      # |{phi0 < w < phi2} ^ ((-3,0) x torus)|


def level_set_measures(traj: Trajectory, lam: float) -> LevelSetMeasures:
    """The three level-set measures entering the measure-gain dichotomy."""
    raise_first(constant_errors(lam=lam))
    s, r = float(traj.order), traj.grid.origin_distance()
    phi0, phi2 = phi_barrier(r, s, lam, 0), phi_barrier(r, s, lam, 2)
    ball1 = traj.grid.ball(1.0)

    below = _window_measure(traj, traj.window(-3.0, -2.0),
                            lambda w: (w < phi0) & ball1)
    above = _window_measure(traj, traj.window(-2.0), lambda w: w > phi2)
    mid = _window_measure(traj, traj.window(-3.0),
                          lambda w: (w > phi0) & (w < phi2))
    return LevelSetMeasures(below_phi0=below, above_phi2=above,
                            intermediate=mid)


# ---------------------------------------------------------------------------
# lemma / corollary detectors

@dataclass(frozen=True)
class LemmaReport:
    name: str
    verdict: str                 # "pass" | "fail" | "hypothesis-violated"
    precondition_ok: bool
    hypothesis_ok: bool
    conclusion_ok: bool
    numbers: dict = dataclass_field(default_factory=dict)
    first_violation: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _graded(name: str, precondition_ok: bool, hypothesis_ok: bool,
            conclusion_ok: bool, numbers: dict,
            first_violation: dict | None) -> LemmaReport:
    """A detector's report, graded conclusion first as every detector is.

    A run whose conclusion holds passes outright — the statements are
    implications, so a true consequent can never witness a violation.  A
    broken conclusion counts as "fail" only when the premises actually held;
    otherwise the run is outside the statement's scope.
    """
    if conclusion_ok:
        verdict = "pass"
    elif precondition_ok and hypothesis_ok:
        verdict = "fail"
    else:
        verdict = "hypothesis-violated"
    return LemmaReport(name, verdict, precondition_ok, hypothesis_ok,
                       conclusion_ok, numbers, first_violation)


def _first_exceedance(traj: Trajectory, t_lo: float, bound: np.ndarray,
                      two_sided: bool = False) -> dict | None:
    """Earliest (time, node) of the samples in [t_lo, 0] where w, or |w|
    when `two_sided`, exceeds `bound`; None when the envelope holds."""
    idx = traj.window(t_lo)
    block = traj.samples(idx)
    over = block > bound
    if two_sided:
        over |= block < -bound
    if not np.any(over):
        return None
    row, node = divmod(int(np.argmax(over)), over.shape[1])
    return {"time": float(traj.times[idx[row]]), "node": node,
            "value": float(block[row, node]), "bound": float(bound[node])}


def verify_lemma1(traj: Trajectory, eps0: float) -> LemmaReport:
    """Small truncated energy on [-2,0] forces w <= 1/2 + psi on [-1,0].

    Hypothesis: int_{-2}^0 int (w - psi)_+^2 dx dt <= eps0.
    """
    raise_first(constant_errors(eps0=eps0))
    s = float(traj.order)
    psi = barrier(traj.grid.origin_distance(), 0.5 * s)

    idx = traj.window(-2.0)
    truncated_mass = _window_measure(
        traj, idx, lambda w: np.square(np.maximum(w - psi, 0.0)))
    hypothesis_ok = truncated_mass <= eps0

    violation = _first_exceedance(traj, -1.0, 0.5 + psi)

    # On a torus the barrier only grows out to distance L/2; record whether
    # psi(L/2) dominates the data, the validity condition for reading the
    # whole-space statement on periodic geometry.
    psi_at_half = float(barrier(0.5 * traj.grid.side_length, 0.5 * s))
    block = traj.samples(idx)
    sup_w = max(abs(float(block.min())), abs(float(block.max())))
    return _graded(
        "lemma1", True, hypothesis_ok, violation is None,
        {"truncated_mass": truncated_mass, "eps0": eps0, "order": s,
         "far_field_margin": psi_at_half - 2.0 * sup_w,
         "far_field_ok": bool(psi_at_half >= 2.0 * sup_w)},
        violation)


def verify_corollary1(traj: Trajectory, t0: float,
                      eps0: float) -> LemmaReport:
    """Sup bound from the initial L2 mass after a waiting time t0.

    For tau = t - t_start >= t0 the sampled sup norm is checked against
    ||w(0)||_2 / (2 sqrt(eps0) (t0/2)^{(N/s + 1)/2}).
    """
    raise_first(constant_errors(eps0=eps0))
    span = float(traj.times[-1] - traj.times[0])
    if not (0.0 < t0 < 2.0) or t0 > span:
        raise NlflowError(
            f"waiting time t0={t0} must lie in (0, 2) within the sampled "
            f"span {span}")
    s = float(traj.order)
    n_dim = traj.grid.dimension
    l2_initial = traj.field(0).l2_norm()
    exponent = 0.5 * (n_dim / s + 1.0)
    bound = l2_initial / (2.0 * math.sqrt(eps0) * (0.5 * t0) ** exponent)

    idx = traj.window(traj.times[0] + t0, traj.times[-1], need=1)
    block = traj.samples(idx)
    sup_curve = np.maximum(np.abs(block.min(axis=1)),
                           np.abs(block.max(axis=1)))
    measured = float(np.max(sup_curve))
    conclusion_ok = measured <= bound
    worst = int(np.argmax(sup_curve))

    # dimensionless decay profile r(t0) over a dyadic ladder of waiting times
    tau = traj.times - traj.times[0]
    ladder, ratios = [], []
    if l2_initial > 0.0:
        for t_d in 0.5 ** np.arange(1, 7):
            if t_d > span:
                continue
            j = int(np.argmin(np.abs(tau - t_d)))
            sup_here = float(np.max(np.abs(traj.fields[j])))
            ladder.append(float(t_d))
            ratios.append(sup_here * t_d ** exponent / l2_initial)
    worst_time = float(traj.times[idx[worst]])
    return _graded(
        "corollary1", True, True, conclusion_ok,
        {"bound": bound, "measured_sup": measured, "l2_initial": l2_initial,
         "t0": t0, "eps0": eps0, "worst_time": worst_time,
         "ratio_t0": ladder, "ratio_r": ratios},
        None if conclusion_ok else {
            "time": worst_time, "value": measured, "bound": bound})


def verify_corollary2(traj: Trajectory, delta: float) -> LemmaReport:
    """Small positivity set plus a one-scale barrier forces w <= 1/2 inside.

    Precondition: w <= 1 + psi1 at every sample in [-2, 0].
    Hypothesis:   |{w > 0} ^ ([-2,0] x B_2)| <= delta.
    Conclusion:   w <= 1/2 on [-1,0] x B_1.
    """
    raise_first(constant_errors(delta=delta))
    grid = traj.grid
    envelope_breach = _first_exceedance(
        traj, -2.0,
        1.0 + barrier(grid.origin_distance(), 0.25 * float(traj.order)))

    ball2 = grid.ball(2.0)
    positivity = _window_measure(traj, traj.window(-2.0),
                                 lambda w: (w > 0.0) & ball2)

    violation = _first_exceedance(traj, -1.0,
                                  np.where(grid.ball(1.0), 0.5, np.inf))
    return _graded(
        "corollary2", envelope_breach is None, positivity <= delta,
        violation is None,
        {"positivity_measure": positivity, "delta": delta,
         "order": float(traj.order)},
        violation if violation is not None else envelope_breach)


def verify_lemma2(traj: Trajectory, mu: float, delta: float, gamma: float,
                  lam: float) -> LemmaReport:
    """Measure-gain dichotomy between the phi0 and phi2 level sets.

    Precondition: w <= 1 + psi_lambda at every sample in [-3, 0].
    Hypothesis:   |{w < phi0} ^ ((-3,-2) x B_1)| >= mu.
    Conclusion:   |{w > phi2} ^ ((-2,0) x torus)| <= delta   (first branch)
                  or |{phi0 < w < phi2} ^ ((-3,0) x torus)| >= gamma.
    """
    raise_first(constant_errors(mu=mu, delta=delta, gamma=gamma, lam=lam))
    s = float(traj.order)
    envelope_breach = _first_exceedance(traj, -3.0, 1.0 + barrier(
        traj.grid.origin_distance(), 0.25 * s, lambda_support(lam, s)))

    measures = level_set_measures(traj, lam)
    first_branch = measures.above_phi2 <= delta
    second_branch = measures.intermediate >= gamma
    branch = ("small-upper-set" if first_branch
              else "mass-gained" if second_branch else "violated")
    return _graded(
        "lemma2", envelope_breach is None, measures.below_phi0 >= mu,
        first_branch or second_branch,
        {"below_phi0": measures.below_phi0, "above_phi2": measures.above_phi2,
         "intermediate": measures.intermediate, "mu": mu, "delta": delta,
         "gamma": gamma, "lam": lam, "branch": branch},
        envelope_breach)
