"""Explicit monotone time stepping for nonlocal flows.

Linear runs integrate  w_t = (L w)(t);  nonlinear runs integrate

    theta_t(x) = sum_{z != 0} phi'(theta(x+z) - theta(x)) K(t, z) h^N

with a translation-invariant kernel.  Every run sums the half-stencil
fluxes F_d(x) = K(x, x+d) g(w(x+d) - w(x)) of `grid.OffsetStencil`, g the
identity or phi' (odd, as K is symmetric): rhs = sum_d [F_d(x) - F_d(x-d)]
h^N, and the energy of the state comes out of the same pass
(`_rhs_and_energy`).  Both kinds of run use the step bound

    stable_dt = 0.9 / max_x ( lambda_phi * sum_{y != x} K(t, x, y) h^N )

where lambda_phi is the potential's certified sup of phi'' (1 for linear
runs and the quadratic potential).  Every flow takes explicit Euler steps
w' = w + dt rhs(w), the one discrete flow the detectors reason about: under
that bound each step is a convex combination of node values, so min/max
brackets, comparison, and L^2/energy dissipation all hold.  A
quadratic-potential nonlinear run steps as the linear run does, bitwise:
both go through the one flux routine `_offset_rhs`, and phi'(x) = 1.0 x +
0.0 arctan(x) is x bit for bit.  Its energy V, summed through psi, is half
the linear run's B up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import NlflowError, raise_first, violations
from .grid import BLOCK_BUDGET, COUNTERS, RUN_MAX_BYTES, \
    RUN_MAX_PAIR_UPDATES, DiscreteOperator, Field, Grid
from .kernels import TRANSLATION_INVARIANT_FAMILIES, Kernel, order_errors
from .potentials import Potential


def stable_dt(op: DiscreteOperator, potential: Potential | None = None,
              t: float = 0.0, multiplier: float | None = None) -> float:
    """0.9 / max_x (lambda_phi * row sum) of `op` at time t: 0.9 times the
    largest dt that keeps the explicit step a convex combination; raises on
    a degenerate kernel.  With a `multiplier` the row sums are those of the
    envelope (1-s/2) |x-y|^-(N+s) times it, built with no offset table; if
    they underflow (1/Lambda = 1e-308), no step is bounded: inf."""
    if op.kernel.time_dependent and multiplier is None:
        # kernel resamples over epochs; bound the row sums by the envelope
        multiplier = op.kernel.upper_multiplier
    rs_max = float(op.rowsums(t).max()) if multiplier is None else \
        multiplier * float(np.dot(op.stencil.multiplicity,
                                  op.kernel.envelope_profile(op.dists))) \
        * op.grid.spacing ** op.grid.dimension
    denom = (1.0 if potential is None else potential.sup_d2) * rs_max
    if not (denom > 0.0 or multiplier):
        raise NlflowError(
            "kernel row sums vanish; no finite stable step exists")
    return 0.9 * (1.0 / denom) if denom > 0.0 else math.inf


def _offset_rhs(op: DiscreteOperator, wg: np.ndarray, t: float,
                d1=None) -> np.ndarray:
    """`op.offset_rhs`, which the banded `apply` also calls, under the one
    name every step looks up.  The linear and nonlinear paths share this sum
    so a quadratic-potential step is the linear step, bitwise."""
    return op.offset_rhs(wg, t, d1)


def _rhs_and_energy(op: DiscreteOperator, pot: Potential | None,
                    v: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """The RHS at v and the energy of v from one pass over the offsets.

    For a symmetric table and an odd g the fluxes sum to the pair sum of
    x g(x): sum_d mult_d sum_x F_d(x) (v(x+d) - v(x)) = -2 h^N <rhs, v>.
    That is B[v, v] for linear runs (pot None; `bilinear_form`'s identity);
    with a potential V(v) = -2 h^N <rhs, v> -
    2 sum_d sum_x K_d psi(v(x+d) - v(x)) h^(2N), phi = x phi' - psi, psi
    summed on each block of the pass.
    """
    h_n = op.grid.spacing ** op.grid.dimension
    if pot is None:
        r = _offset_rhs(op, v.reshape(op.grid.shape), t).ravel()
        return r, -2.0 * h_n * float(np.dot(r, v))
    table, psi_total, done = op.offset_values(t), 0.0, 0

    def d1(diffs):
        nonlocal psi_total, done
        rows, done = slice(done, done + diffs.shape[0]), done + diffs.shape[0]
        flux = pot.d1(diffs)
        psi_total += pot.psi(diffs, lambda values: op.stencil.pair_total(
            rows, table, values))
        return flux

    r = _offset_rhs(op, v.reshape(op.grid.shape), t, d1=d1).ravel()
    return r, -2.0 * h_n * float(np.dot(r, v)) - psi_total * h_n * h_n


def linear_energy(op: DiscreteOperator, w: np.ndarray, t: float = 0.0) -> float:
    """B[w, w] = sum over ordered pairs of K (w(x)-w(y))^2 h^(2N)."""
    return _rhs_and_energy(op, None, w, t)[1]


def nonlinear_energy(op: DiscreteOperator, potential: Potential,
                     w: np.ndarray, t: float = 0.0) -> float:
    """V(theta) = sum over ordered pairs of phi(theta(y)-theta(x)) K h^(2N)."""
    return _rhs_and_energy(op, potential, w, t)[1]


def problem_errors(kind: str, t_start: float, t_end: float) -> list:
    """(field, error) pairs of the rules a flow's kind and span break."""
    return violations(
        ("kind", kind in ("linear", "nonlinear"),
         "flow kind must be linear or nonlinear"),
        ("t_start", math.isfinite(t_start), "start time must be finite"),
        ("t_end", math.isfinite(t_end), "end time must be finite"),
        ("t_end", 0.0 < t_end - t_start < math.inf or math.isinf(t_start)
         or math.isinf(t_end), f"end time must exceed the start time "
         f"{t_start!r} by a finite span"))


def kind_errors(kind: str, family: str) -> list:
    """(field, error) pairs of the rules a flow's kind puts on its kernel
    family."""
    return violations(
        ("family", kind != "nonlinear"
         or family in TRANSLATION_INVARIANT_FAMILIES,
         f"the nonlinear flow needs the translation-invariant "
         f"{' or '.join(TRANSLATION_INVARIANT_FAMILIES)} kernel family"))


def stepping_errors(dt_max: float | None, sample_every: int) -> list:
    """(field, error) pairs of the rules `run_flow`'s step cap and sampling
    break."""
    return violations(
        ("dt_max", dt_max is None or dt_max > 0.0,
         "dt_max must be positive when set"),
        ("sample_every", sample_every >= 1,
         "sample interval must be a positive integer"))


def run_steps(t_start: float, t_end: float, dt: float, dt_max: float | None,
              sample_every: int, n_nodes: int) -> tuple:
    """The step count of a run from t_start to t_end in steps of `dt` (inf:
    one step) or `dt_max` if smaller, and the pairs of its rules: it holds at
    most RUN_MAX_BYTES on n_nodes nodes, under the field that set the count
    (points_per_axis if one step does not fit, dt_max if it set the step),
    and a run that fits takes one step or steps over 4 float spacings at t."""
    span, step = t_end - t_start, dt if dt_max is None else min(dt, dt_max)
    ratio = span / step - 1e-12 if step > 0.0 else math.inf
    n_steps = max(1, math.ceil(ratio)) if ratio < math.inf else ratio
    one, held = (8.0 * (n_nodes * ((steps + 1.0) / sample_every + 2.0)
                        + 7.0 * (steps + 2.0)) for steps in (1.0, n_steps))
    field = "points_per_axis" if one > RUN_MAX_BYTES else \
        "t_end" if step == dt else "dt_max"
    ulps = 4.0 * math.ulp(max(abs(t_start), abs(t_end)))
    return n_steps, violations((field, held <= RUN_MAX_BYTES, f"{n_steps:.3g} "
        f"steps on {n_nodes} nodes hold {held / 2 ** 30:.3g} GiB, above the "
        f"{RUN_MAX_BYTES >> 30} GiB a run may take"), ("t_start", n_steps == 1
        or held > RUN_MAX_BYTES or span > n_steps * ulps, f"steps of "
        f"{span / n_steps:.3g} must exceed 4 float spacings at t, {ulps:.3g}"))


def work_errors(n_steps: int, op: DiscreteOperator) -> list:
    """(field, error) pairs of the rule that `n_steps` steps on `op` make at
    most RUN_MAX_PAIR_UPDATES pair-updates, under the radius of an
    untruncated kernel, which keeps every offset, else the resolution."""
    kept, nodes = op.deltas.shape[0], op.grid.n_nodes
    pairs = n_steps * kept * nodes
    return violations((
        "truncation_radius" if math.isinf(op.kernel.spec.truncation_radius)
        else "points_per_axis", pairs <= RUN_MAX_PAIR_UPDATES,
        f"{n_steps} steps x {kept} kept offsets x {nodes} nodes make "
        f"{pairs:.3g} pair-updates, above the {RUN_MAX_PAIR_UPDATES:.3g} a "
        f"run may take"))


@dataclass
class FlowProblem:
    """One flow specification; `initial` is a Field on `grid`."""

    kind: str                      # "linear" | "nonlinear"
    grid: Grid
    kernel: Kernel
    initial: Field
    t_start: float = 0.0
    t_end: float = 1.0
    potential: Potential | None = None
    dt_max: float | None = None    # optional extra cap (convergence studies)

    def __post_init__(self):
        raise_first(problem_errors(self.kind, self.t_start, self.t_end)
                    + kind_errors(self.kind, self.kernel.spec.family))
        if self.kind == "nonlinear" and self.potential is None:
            raise NlflowError("nonlinear flow needs a potential")
        if self.grid != self.initial.grid:
            raise NlflowError("initial field grid != problem grid")


@dataclass
class Trajectory:
    """Flow output: sampled fields plus per-step dissipation records
    (None for `from_fields` data, which has no steps)."""

    grid: Grid
    kind: str
    times: np.ndarray              # sample times, strictly increasing
    fields: np.ndarray             # (n_samples, n_nodes)
    step_times: np.ndarray | None = None   # (n_steps + 1,) state times
    l2: np.ndarray | None = None           # per-state records, (n_steps + 1,)
    energy: np.ndarray | None = None
    vmin: np.ndarray | None = None
    vmax: np.ndarray | None = None
    mass: np.ndarray | None = None
    kernel: Kernel | None = None
    potential: Potential | None = None
    meta: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.fields = np.asarray(self.fields, dtype=np.float64)
        if self.fields.ndim != 2 or self.fields.shape[0] != self.times.size:
            raise NlflowError(
                "fields must be (n_samples, n_nodes) matching times")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise NlflowError("sample times must strictly increase")

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    @property
    def order(self) -> float:
        """The flow's order s, the one every detector reads."""
        if self.kernel is None:
            return float(self.meta.get("order", 1.0))
        return self.kernel.spec.order

    def field(self, index: int) -> Field:
        return Field(self.grid, self.fields[index])

    def window(self, t_lo: float, t_hi: float = 0.0,
               need: int = 2) -> np.ndarray:
        """Indices of the samples with t in [t_lo, t_hi], closed up to
        1e-9 of the sampled span; raises unless there are `need` of them
        (two by default, the least a trapezoid in time takes).

        Sample times strictly increase, so a window is a contiguous run of
        samples, and `samples` reads its fields as a view, without a copy.
        """
        tol = 1e-9 * max(1.0, float(self.times[-1] - self.times[0]))
        idx = np.arange(np.searchsorted(self.times, t_lo - tol, "left"),
                        np.searchsorted(self.times, t_hi + tol, "right"))
        if idx.size < need:
            raise NlflowError(
                f"only {idx.size} samples cover [{t_lo}, {t_hi}]; "
                f"need >= {need}")
        return idx

    def samples(self, idx: np.ndarray) -> np.ndarray:
        """`fields[idx]` of a window's indices, as a view of `fields`."""
        return self.fields[idx[0]:idx[-1] + 1] if idx.size else \
            self.fields[:0]

    @staticmethod
    def from_fields(grid: Grid, times, values, kind: str = "synthetic",
                    kernel: Kernel | None = None,
                    order: float | None = None) -> "Trajectory":
        """Wrap explicit (times, fields) data — used for injected diagnostics."""
        if order is not None:
            raise_first(order_errors(order))
        return Trajectory(grid=grid, kind=kind, times=times, fields=values,
                          kernel=kernel,
                          meta={} if order is None else {"order": order})


def run_flow(problem: FlowProblem, sample_every: int = 1) -> Trajectory:
    """Integrate the flow; samples every `sample_every`-th state (plus the
    final one) and records L2 / energy / min / max / mass per state.

    Steps write states into a reused buffer of BLOCK_BUDGET values, whose
    rows give L2, min, max and mass as row reductions, bit for bit the
    per-state sums.  The energy comes with the RHS; only a non-finite
    energy, which a non-finite state makes, is followed by a look for
    non-finite entries."""
    raise_first(stepping_errors(problem.dt_max, sample_every))
    grid, kernel = problem.grid, problem.kernel
    op = DiscreteOperator(grid, kernel)
    pot = problem.potential if problem.kind == "nonlinear" else None

    n_steps, too_big = run_steps(problem.t_start, problem.t_end,
                                 stable_dt(op, pot, problem.t_start),
                                 problem.dt_max, sample_every, grid.n_nodes)
    raise_first(too_big)
    step_times = np.linspace(problem.t_start, problem.t_end, n_steps + 1)
    COUNTERS["steps"] += n_steps

    n, h_n = grid.n_nodes, grid.spacing ** grid.dimension
    sampled = np.arange(0, n_steps + 1, sample_every)
    if sampled[-1] != n_steps:
        sampled = np.append(sampled, n_steps)
    fields = np.empty((sampled.size, n))
    energy, l2, vmin, vmax, mass = np.empty((5, n_steps + 1))
    buf = np.empty((min(n_steps + 1, max(2, BLOCK_BUDGET // n)), n))
    buf[0] = problem.initial.values
    first = 0                           # the state in buf[0]
    for i in range(n_steps + 1):
        w, t = buf[i - first], float(step_times[i])
        k1, energy[i] = _rhs_and_energy(op, pot, w, t)
        if not math.isfinite(energy[i]) and not np.all(np.isfinite(w)):
            # non-finite initial data makes state 1 non-finite as well
            raise NlflowError(f"non-finite state after step {max(i, 1)}")
        if i == n_steps or i - first == buf.shape[0] - 1:
            done, recs = buf[:i - first + 1], slice(first, i + 1)
            l2[recs] = np.sqrt(np.add.reduce(done * done, axis=1) * h_n)
            vmin[recs], vmax[recs] = done.min(axis=1), done.max(axis=1)
            mass[recs] = np.add.reduce(done, axis=1) * h_n
            rows = slice(*np.searchsorted(sampled, (first, i + 1)))
            fields[rows] = done[sampled[rows] - first]
            first = i + 1
        if i == n_steps:
            break
        # w + dt k1, as a product then a sum
        nxt, dt = buf[i + 1 - first], float(step_times[i + 1]) - t
        np.add(np.multiply(k1, dt, out=nxt), w, out=nxt)

    return Trajectory(
        grid=grid, kind=problem.kind, times=step_times[sampled],
        fields=fields, step_times=step_times, l2=l2, energy=energy,
        vmin=vmin, vmax=vmax, mass=mass, kernel=kernel,
        potential=problem.potential, meta={"n_steps": n_steps})
