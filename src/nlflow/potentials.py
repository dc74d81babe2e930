"""Convex even interaction potentials with certified curvature bounds.

Admissible potentials satisfy phi(0) = 0, phi even and convex, and

    Lambda^-1/2 <= phi''(x) <= Lambda^1/2   for all x.

Families:

  quadratic        phi(x) = x^2 / 2                (phi'' = 1; the linear flow)
  smoothed-huber   phi''(x) = a + b / (1 + x^2),   a = Lambda^-1/2,
                   b = Lambda^1/2 - Lambda^-1/2    (curvature 2 at 0 for Lambda=4)

`d2_bounds` are certified analytically per family, not measured, so callers
(time-step bounds, derived-kernel clamps) can rely on them exactly.

phi(x) = x phi'(x) - psi(x) with psi(x) = (a x^2 + b log1p(x^2)) / 2, the
antiderivative of x phi''(x) (a = 1, b = 0 for the quadratic): a flow's
fluxes already sum x phi'(x) over every pair, so its energy adds only the
sum of psi over the differences, and phi is never formed there
(`flow._rhs_and_energy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

POTENTIAL_FAMILIES = ("quadratic", "smoothed-huber")

# the grid `validate_potential` samples and its finite-difference tolerance
GRID_SPAN = 10.0
GRID_POINTS = 100001
FD_TOL = 1e-6


@dataclass(frozen=True)
class PotentialSpec:
    family: str = "quadratic"
    ellipticity: float = 4.0    # Lambda > 1


class Potential:
    """Evaluator bundle: value / d1 / psi / d2 plus certified d2 bounds."""

    def __init__(self, spec: PotentialSpec):
        if spec.family not in POTENTIAL_FAMILIES:
            raise InvalidParameterError(
                f"unknown potential family {spec.family!r}; expected one of "
                f"{', '.join(POTENTIAL_FAMILIES)}")
        if not (spec.ellipticity > 1.0):
            raise InvalidParameterError(
                f"ellipticity must exceed 1: {spec.ellipticity}")
        self.spec = spec
        lam = spec.ellipticity
        if spec.family == "quadratic":
            self.d2_bounds = (1.0, 1.0)
        else:
            self._a = lam ** -0.5
            self._b = lam ** 0.5 - lam ** -0.5
            self.d2_bounds = (self._a, self._a + self._b)

    @property
    def sup_d2(self) -> float:
        return self.d2_bounds[1]

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x * self.d1(x) - self.psi(x.copy())

    def d1(self, x) -> np.ndarray:
        if self.spec.family == "quadratic":
            return np.asarray(x, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        # a x + b arctan(x) in two buffers: on grid-sized blocks a temporary
        # per operation made malloc trim and regrow its heap on every block
        out, tmp = np.empty_like(x), np.empty_like(x)
        np.multiply(self._b, np.arctan(x, out=out), out=out)
        return np.add(np.multiply(self._a, x, out=tmp), out, out=out)

    def psi(self, x: np.ndarray, total=None):
        """total(psi(x)) for psi(x) = x phi'(x) - phi(x) = (a x^2 + b log1p(
        x^2)) / 2 (a = 1, b = 0 for the quadratic) and a linear `total`, the
        identity by default; x, float64, is overwritten."""
        total = total or (lambda y: y)
        np.square(x, out=x)
        if self.spec.family == "quadratic":
            return 0.5 * total(x)
        part = (0.5 * self._a) * total(x)
        return part + (0.5 * self._b) * total(np.log1p(x, out=x))

    def d2(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.spec.family == "quadratic":
            return np.ones_like(x)
        return self._a + self._b / (1.0 + x * x)


def make_potential(spec: PotentialSpec) -> Potential:
    return Potential(spec)


@dataclass
class PotentialValidationReport:
    bounds_ok: bool
    even_ok: bool
    zero_ok: bool
    fd_ok: bool
    passed: bool
    d2_min: float
    d2_max: float
    band_lo: float
    band_hi: float
    max_odd_defect: float
    value_at_zero: float
    max_fd_defect: float
    fd_step: float
    grid_span: float
    grid_points: int


def validate_potential(potential) -> PotentialValidationReport:
    """Grade curvature band, evenness, phi(0) = 0, and d1/d2 consistency on
    GRID_POINTS nodes of [-GRID_SPAN, GRID_SPAN].

    Works on any object with a `spec` and value/d1/d2 methods; the d2 band
    check uses the spec's Lambda^+-1/2 envelope, and the finite-difference
    check compares d2 against a centered difference of d1 to FD_TOL.  Its
    truncation error grows with the curvature Lambda^(1/2) and shrinks with
    the step squared, so the step 1e-3 shrinks as Lambda^(-1/2) above
    Lambda = 4.
    """
    ellipticity = potential.spec.ellipticity
    fd_step = 1e-3 * min(1.0, math.sqrt(4.0 / ellipticity))
    xs = np.linspace(-GRID_SPAN, GRID_SPAN, GRID_POINTS)
    band_lo, band_hi = ellipticity ** -0.5, ellipticity ** 0.5

    d2 = np.asarray(potential.d2(xs), dtype=np.float64)
    d2_min, d2_max = float(d2.min()), float(d2.max())
    rtol = 1e-12
    bounds_ok = (d2_min >= band_lo * (1.0 - rtol)
                 and d2_max <= band_hi * (1.0 + rtol))

    # negation is exact in binary floating point, so evenness can be asserted
    # bitwise by evaluating at +-xs rather than trusting linspace symmetry
    vals = np.asarray(potential.value(xs), dtype=np.float64)
    mirrored = np.asarray(potential.value(-xs), dtype=np.float64)
    max_odd = float(np.max(np.abs(vals - mirrored)))
    even_ok = max_odd == 0.0
    value_at_zero = float(np.asarray(potential.value(0.0)))
    zero_ok = value_at_zero == 0.0

    fd = (np.asarray(potential.d1(xs + fd_step))
          - np.asarray(potential.d1(xs - fd_step))) / (2.0 * fd_step)
    max_fd = float(np.max(np.abs(fd - d2)))
    fd_ok = max_fd <= FD_TOL

    return PotentialValidationReport(
        bounds_ok=bounds_ok, even_ok=even_ok, zero_ok=zero_ok, fd_ok=fd_ok,
        passed=bounds_ok and even_ok and zero_ok and fd_ok,
        d2_min=d2_min, d2_max=d2_max, band_lo=band_lo, band_hi=band_hi,
        max_odd_defect=max_odd, value_at_zero=value_at_zero,
        max_fd_defect=max_fd, fd_step=fd_step,
        grid_span=GRID_SPAN, grid_points=GRID_POINTS)
