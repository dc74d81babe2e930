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

from .errors import InsufficientCoverageError, InvalidParameterError, \
    raise_first, violations
from .flow import Trajectory
from .grid import BLOCK_BUDGET, SEMINORM_CUTOFF, Grid, seminorm_sq, \
    seminorm_stencil

__all__ = [
    "BARRIER_KINDS",
    "BarrierFamily",
    "eval_barrier",
    "barrier_on_grid",
    "TruncatedEnergySequence",
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


# ---------------------------------------------------------------------------
# barriers

BARRIER_KINDS = (
    "psi",              # (|x|^{s/2} - 1)_+
    "psi1",             # (|x|^{s/4} - 1)_+
    "psi_lambda",       # ((|x| - lam^{-4/s})^{s/4} - 1)_+ past its support radius
    "psi_eps_lambda",   # same support, exponent eps instead of s/4
    "F",                # sup(-1, inf(0, |x|^2 - 9))
    "phi0",             # 1 + psi_lambda + F
    "phi1",             # 1 + psi_lambda + lam   * F
    "phi2",             # 1 + psi_lambda + lam^2 * F
)

_LAMBDA_KINDS = ("psi_lambda", "psi_eps_lambda", "phi0", "phi1", "phi2")

# Values of one chunk of samples: the detectors read a window of samples a
# chunk at a time, so their temporaries stay a few chunks large however long
# the window is.
WINDOW_CHUNK = 1 << 13


@dataclass(frozen=True)
class BarrierFamily:
    """A radial barrier profile; `eval_barrier` consumes |x|."""

    kind: str
    order: float = 1.0       # s
    lam: float = 0.25        # lambda, used by the psi_lambda family
    eps: float = 0.05        # exponent of psi_eps_lambda

    def __post_init__(self):
        if self.kind not in BARRIER_KINDS:
            raise InvalidParameterError(
                f"unknown barrier kind {self.kind!r}; expected one of "
                f"{BARRIER_KINDS}")
        if not (0.0 < self.order < 2.0):
            raise InvalidParameterError(
                f"barrier order must lie in (0, 2), got {self.order}")
        if self.kind in _LAMBDA_KINDS and not (0.0 < self.lam < 1.0 / 3.0):
            raise InvalidParameterError(
                f"lambda must lie in (0, 1/3), got {self.lam}")
        if self.kind == "psi_eps_lambda" and not (self.eps > 0.0):
            raise InvalidParameterError(
                f"eps must be positive, got {self.eps}")

    @property
    def support_radius(self) -> float:
        """Radius below which the lambda-family barriers vanish."""
        if self.kind in _LAMBDA_KINDS:
            return self.lam ** (-4.0 / self.order)
        if self.kind in ("psi", "psi1"):
            return 1.0
        return 0.0


def _ramp(r: np.ndarray, offset: float, exponent: float) -> np.ndarray:
    # ((r - offset)^exponent - 1)_+ with the power only taken past the offset
    shifted = np.maximum(r - offset, 0.0)
    return np.maximum(shifted ** exponent - 1.0, 0.0)


def eval_barrier(b: BarrierFamily, x) -> np.ndarray:
    """Evaluate a barrier at radial coordinates |x| (scalar or array).

    All barriers are radial and even; callers on a grid pass periodic node
    distances (see `barrier_on_grid`).
    """
    r = np.abs(np.asarray(x, dtype=np.float64))
    s = b.order
    if b.kind == "psi":
        return _ramp(r, 0.0, 0.5 * s)
    if b.kind == "psi1":
        return _ramp(r, 0.0, 0.25 * s)
    if b.kind == "psi_lambda":
        return _ramp(r, b.support_radius, 0.25 * s)
    if b.kind == "psi_eps_lambda":
        return _ramp(r, b.support_radius, b.eps)
    hump = np.maximum(-1.0, np.minimum(0.0, r * r - 9.0))
    if b.kind == "F":
        return hump
    base = BarrierFamily("psi_lambda", order=s, lam=b.lam)
    scale = {"phi0": 1.0, "phi1": b.lam, "phi2": b.lam * b.lam}[b.kind]
    return 1.0 + eval_barrier(base, r) + scale * hump


def barrier_on_grid(b: BarrierFamily, grid: Grid) -> np.ndarray:
    """Barrier values at every node (flat), measured from the origin."""
    return eval_barrier(b, grid.origin_distance())


def _barrier(traj: Trajectory, kind: str, **params) -> np.ndarray:
    """The `kind` barrier of the trajectory's order on its grid."""
    return barrier_on_grid(
        BarrierFamily(kind, order=float(traj.order), **params), traj.grid)


def _chunks(traj: Trajectory, idx: np.ndarray,
            nodes: np.ndarray | None = None):
    """Yield (rows, block) over the window `idx` a WINDOW_CHUNK of values at
    a time: `rows` a slice of idx, `block` the fields of its samples as a
    view of the trajectory or, with `nodes`, gathered at those nodes."""
    fields = traj.samples(idx)
    step = max(1, WINDOW_CHUNK // (fields.shape[1] if nodes is None
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


@dataclass(frozen=True)
class TruncatedEnergySequence:
    levels: np.ndarray          # k = 0..k_max
    window_starts: np.ndarray   # T_k = -1 - 2^-k
    cut_levels: np.ndarray      # L_k = (1 - 2^-k) / 2
    sup_part: np.ndarray        # sup_t int (w - psi_{L_k})_+^2 dx
    integral_part: np.ndarray   # int_t seminorm((w - psi_{L_k})_+)^2 dt
    values: np.ndarray          # U_k = sup_part + integral_part
    order: float
    cutoff: float
    n_samples: int
    dimension: int              # N of the trajectory's grid

    @property
    def k_max(self) -> int:
        return int(self.levels[-1])


def ladder_errors(k_max: int) -> list:
    """(field, error) pairs of the rules a ladder depth breaks."""
    return violations(("k_max", k_max >= 1, "need at least one rung"))


def truncated_energies(traj: Trajectory,
                       k_max: int) -> TruncatedEnergySequence:
    """Level-truncated energies U_k over the shrinking windows [T_k, 0].

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
    raise_first(ladder_errors(k_max))
    s = float(traj.order)
    if not (0.0 < s < 2.0):
        raise InvalidParameterError(f"order must lie in (0, 2), got {s}")
    grid = traj.grid
    for edge in (-2.0, 0.0):            # samples reach both ends of [-2, 0]
        traj.window(edge, edge, need=1)
    idx = traj.window(-2.0)
    times = traj.times[idx]
    max_gap = float(np.max(np.diff(times)))
    cadence = 2.0 ** (-k_max) / 4.0
    if max_gap > cadence * (1.0 + 1e-9):
        raise InsufficientCoverageError(
            f"sample spacing {max_gap:.3e} exceeds {cadence:.3e}; the "
            f"[T_{k_max}, 0] window would be under-resolved")

    ks = np.arange(k_max + 1)
    t_starts, cuts = _dyadic_ladder(k_max)
    points, nodes, psi = _truncation_box(traj, idx, _barrier(traj, "psi"))
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
    sup_part = np.empty(ks.size)
    int_part = np.empty(ks.size)
    for j, first in enumerate(firsts):
        l2_mass, seminorm = sums[:, j, first:]
        # accumulate from t = 0 backwards, in order
        gaps = -np.diff(traj.times[idx[first:]][::-1])
        sup_part[j] = np.max(l2_mass)
        int_part[j] = np.cumsum(gaps * 0.5 * (seminorm[::-1][:-1]
                                              + seminorm[::-1][1:]))[-1]
    values = sup_part + int_part
    return TruncatedEnergySequence(
        levels=ks, window_starts=t_starts, cut_levels=cuts,
        sup_part=sup_part, integral_part=int_part, values=values,
        order=s, cutoff=SEMINORM_CUTOFF, n_samples=idx.size,
        dimension=grid.dimension)


@dataclass(frozen=True)
class RecurrenceReport:
    levels: np.ndarray         # k = 1..k_max
    ratios: np.ndarray         # c_k = (U_k / U_{k-1}^{1+s/N})^{1/k}
    constant: float            # max over defined c_k
    decayed: bool              # U_{k_max} < 1e-14
    degenerate: bool           # some U_{k-1} vanished, ratio undefined
    vacuous: bool              # every U_k is zero; recurrence holds trivially


def check_recurrence(seq: TruncatedEnergySequence) -> RecurrenceReport:
    """Fit the smallest constant certifying U_k <= (C 2^k)^k U_{k-1}^{1+s/N},
    with N the dimension the sequence was measured in."""
    u = seq.values
    expo = 1.0 + seq.order / seq.dimension
    ks = seq.levels[1:]
    ratios = np.full(ks.size, np.nan)
    degenerate = False
    for i, k in enumerate(ks):
        prev = u[k - 1]
        if prev <= 0.0:
            degenerate = True
            continue
        ratios[i] = (u[k] / prev ** expo) ** (1.0 / k)
    defined = ratios[np.isfinite(ratios)]
    constant = float(np.max(defined)) if defined.size else math.nan
    return RecurrenceReport(
        levels=ks, ratios=ratios, constant=constant,
        decayed=bool(u[-1] < 1e-14), degenerate=degenerate,
        vacuous=bool(np.all(u == 0.0)))


# ---------------------------------------------------------------------------
# Chebyshev-type interpolation chain

@dataclass(frozen=True)
class ChebyshevReport:
    levels: np.ndarray           # k = 1..k_max
    linear_lhs: np.ndarray       # iint (w - psi_{L_k})_+
    indicator_lhs: np.ndarray    # iint 1_{w > psi_{L_k}}
    quadratic_lhs: np.ndarray    # iint (w - psi_{L_k})_+^2
    base_integral: np.ndarray    # iint (w - psi_{L_{k-1}})_+^{2(1+s/N)}
    exponents: tuple             # powers of 2^{k+1} in the three bounds
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
    _, nodes, psi = _truncation_box(traj, traj.window(t_starts[0]),
                                    _barrier(traj, "psi"))

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
        levels=ks, linear_lhs=lin, indicator_lhs=ind, quadratic_lhs=sq,
        base_integral=base, exponents=(p_lin, p_ind, p_sq), slack=slack,
        all_nonnegative=bool(np.all(slack >= 0.0)))


# ---------------------------------------------------------------------------
# space-time level-set measures

def _time_integral(traj: Trajectory, sums: np.ndarray,
                   idx: np.ndarray) -> float:
    """Trapezoid-in-time integral of the node sums of the samples idx, each
    times h^N."""
    if idx.size < 2:
        raise InsufficientCoverageError(
            f"need >= 2 samples for a space-time measure, got {idx.size}")
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
    lam: float
    order: float


def level_set_measures(traj: Trajectory, lam: float) -> LevelSetMeasures:
    """The three level-set measures entering the measure-gain dichotomy."""
    phi0 = _barrier(traj, "phi0", lam=lam)
    phi2 = _barrier(traj, "phi2", lam=lam)
    ball1 = traj.grid.ball(1.0)

    below = _window_measure(traj, traj.window(-3.0, -2.0),
                            lambda w: (w < phi0) & ball1)
    above = _window_measure(traj, traj.window(-2.0), lambda w: w > phi2)
    mid = _window_measure(traj, traj.window(-3.0),
                          lambda w: (w > phi0) & (w < phi2))
    return LevelSetMeasures(below_phi0=below, above_phi2=above,
                            intermediate=mid, lam=lam,
                            order=float(traj.order))


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
    if not (eps0 > 0.0):
        raise InvalidParameterError(f"eps0 must be positive, got {eps0}")
    s = float(traj.order)
    psi = _barrier(traj, "psi")

    idx = traj.window(-2.0)
    truncated_mass = _window_measure(
        traj, idx, lambda w: np.square(np.maximum(w - psi, 0.0)))
    hypothesis_ok = truncated_mass <= eps0

    violation = _first_exceedance(traj, -1.0, 0.5 + psi)

    # On a torus the barrier only grows out to distance L/2; record whether
    # psi(L/2) dominates the data, the validity condition for reading the
    # whole-space statement on periodic geometry.
    psi_at_half = float(eval_barrier(BarrierFamily("psi", order=s),
                                     0.5 * traj.grid.side_length))
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
    if not (eps0 > 0.0):
        raise InvalidParameterError(f"eps0 must be positive, got {eps0}")
    span = float(traj.times[-1] - traj.times[0])
    if not (0.0 < t0 < 2.0) or t0 > span:
        raise InvalidParameterError(
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
    if not (delta > 0.0):
        raise InvalidParameterError(f"delta must be positive, got {delta}")
    grid = traj.grid
    envelope_breach = _first_exceedance(traj, -2.0,
                                        1.0 + _barrier(traj, "psi1"))

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
    for name, val in (("mu", mu), ("delta", delta), ("gamma", gamma)):
        if not (val > 0.0):
            raise InvalidParameterError(f"{name} must be positive, got {val}")
    envelope_breach = _first_exceedance(
        traj, -3.0, 1.0 + _barrier(traj, "psi_lambda", lam=lam))

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
