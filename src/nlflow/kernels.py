"""Jump kernels for nonlocal diffusion on the torus.

A kernel K(t, x, y) is symmetric in (x, y), supported (by default) on
|x - y| <= truncation_radius, and pinched between power-law envelopes

    (1 - s/2) * m_lo * |x-y|^(-(N+s)) <= K <= (1 - s/2) * m_hi * |x-y|^(-(N+s))

with multiplier band [m_lo, m_hi] = [Lambda^-1, Lambda] for merely measurable
kernels and the tighter [Lambda^-1/2, Lambda^1/2] for translation-invariant
ones.  Families:

  power-law            K(x-y) = (1 - s/2) * c * |x-y|^(-(N+s)),  c in the tight band
  rough-static         power-law envelope times a seeded checkerboard multiplier
  rough-time-dependent same, resampled on time epochs of fixed length

The checkerboard multiplier is a stateless hash of (seed, epoch, cell(x),
cell(y)); no RNG state is carried, so evaluation is pure and bitwise
reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnsupportedDimensionError, \
    raise_first, violations

KERNEL_FAMILIES = ("power-law", "rough-static", "rough-time-dependent")
# families whose kernel depends on x - y alone (a convolution on the torus)
TRANSLATION_INVARIANT_FAMILIES = ("power-law",)

_U64 = np.uint64

# seed and count of the random samples the kernel envelope scans draw, and
# the fl-roundoff guard of their band comparison
SAMPLING_SEED = 20260817
SAMPLE_COUNT = 10000
BAND_RTOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Parameters pinning one kernel (`kernel_errors` states their rules).
    `multiplier` is the power-law constant c; `cell_size`/`epoch_length`
    shape the rough families and are ignored by power-law kernels."""

    dimension: int = 1
    order: float = 1.0            # s in (0, 2)
    ellipticity: float = 4.0      # finite Lambda > 1
    truncation_radius: float = 3.0  # math.inf disables truncation
    family: str = "power-law"
    seed: int = 0
    multiplier: float = 1.0
    cell_size: float = 0.25
    epoch_length: float = 0.1


def kernel_errors(spec: KernelSpec) -> list:
    """(field, error) pairs of the rules `spec` breaks; every family needs a
    positive cell size and epoch length, read or not."""
    return violations(
        ("dimension", spec.dimension in (1, 2), "dimension must be 1 or 2",
         UnsupportedDimensionError),
        ("order", 0.0 < spec.order < 2.0, "order out of (0,2)"),
        ("ellipticity", 1.0 < spec.ellipticity < math.inf,
         "ellipticity must be finite and exceed 1"),
        ("truncation_radius", spec.truncation_radius > 0.0,
         "truncation radius must be positive"),
        ("family", spec.family in KERNEL_FAMILIES,
         f"kernel family must be one of {', '.join(KERNEL_FAMILIES)}"),
        ("multiplier", spec.multiplier > 0.0, "multiplier must be positive"),
        ("cell_size", spec.cell_size > 0.0, "cell size must be positive"),
        ("epoch_length", spec.epoch_length > 0.0,
         "epoch length must be positive"))


def _as_points(x, dimension: int) -> np.ndarray:
    """Coerce scalars / flat arrays / (..., N) arrays to (..., N) float64."""
    a = np.asarray(x, dtype=np.float64)
    if dimension == 1 and (a.ndim == 0 or a.shape[-1] != 1):
        a = a[..., np.newaxis]
    if a.shape[-1] != dimension:
        raise InvalidParameterError(
            f"point array last axis {a.shape[-1]} != dimension {dimension}")
    return a


def _splitmix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):    # u64 wraparound is the algorithm
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _hash_fold(acc: np.ndarray, word) -> np.ndarray:
    return _splitmix64(acc ^ (np.asarray(word).astype(np.uint64)
                              + _U64(0x9E3779B97F4A7C15)))


class RoughMultiplier:
    """Seeded piecewise-constant symmetric field a(t, x, y) in [1/Lambda, Lambda].

    Space is tiled into cells of side `cell_size`; each ordered cell pair maps
    through a stateless 64-bit hash to a uniform value in the band, and the
    value for (x, y) is the average of the two ordered lookups, so symmetry is
    exact.  Time-dependent multipliers fold the epoch index floor(t / epoch)
    into the hash and are piecewise constant in t.  Built by Kernel, whose
    spec check has already bounded the ellipticity and the cell size.
    """

    def __init__(self, ellipticity: float, cell_size: float = 0.25,
                 seed: int = 0, epoch_length: float | None = None):
        self.ellipticity = float(ellipticity)
        self.cell_size = float(cell_size)
        self.seed = int(seed)
        self.epoch_length = None if epoch_length is None else float(epoch_length)
        self.time_dependent = epoch_length is not None

    def _cells(self, pts: np.ndarray) -> np.ndarray:
        return np.floor(pts / self.cell_size).astype(np.int64)

    def _ordered_value(self, epoch: np.ndarray, cells_a: np.ndarray,
                       cells_b: np.ndarray) -> np.ndarray:
        acc = np.broadcast_to(_U64(self.seed & 0xFFFFFFFFFFFFFFFF),
                              cells_a.shape[:-1]).copy()
        acc = _hash_fold(acc, np.broadcast_to(epoch, acc.shape))
        for k in range(cells_a.shape[-1]):
            acc = _hash_fold(acc, cells_a[..., k])
        for k in range(cells_b.shape[-1]):
            acc = _hash_fold(acc, cells_b[..., k])
        unit = (acc >> _U64(11)).astype(np.float64) * 2.0 ** -53
        lo = 1.0 / self.ellipticity
        return lo + unit * (self.ellipticity - lo)

    def __call__(self, t, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """a(t, x, y); t is a scalar or an array of times that broadcasts
        against the points' leading axes."""
        epoch = np.int64(0)
        if self.time_dependent:
            epoch = np.floor(np.asarray(t, dtype=np.float64)
                             / self.epoch_length).astype(np.int64)
        ca, cb = self._cells(x), self._cells(y)
        return 0.5 * (self._ordered_value(epoch, ca, cb)
                      + self._ordered_value(epoch, cb, ca))


class Kernel:
    """Concrete kernel evaluator built from a KernelSpec.

    evaluate(t, x, y, dist=None) takes absolute coordinates and a time or an
    array of times that broadcasts against them; `dist` overrides the
    Euclidean separation so grid code can supply periodic distances while
    keeping the multiplier a function of the canonical positions.
    """

    def __init__(self, spec: KernelSpec):
        raise_first(kernel_errors(spec))
        self.spec = spec
        self.translation_invariant = \
            spec.family in TRANSLATION_INVARIANT_FAMILIES
        self.time_dependent = spec.family == "rough-time-dependent"
        self._scale = 1.0 - spec.order / 2.0
        self._exponent = spec.dimension + spec.order
        if spec.family == "power-law":
            self._mult = None
            self.upper_multiplier = spec.multiplier
        else:
            self._mult = RoughMultiplier(
                spec.ellipticity, spec.cell_size, spec.seed,
                spec.epoch_length if self.time_dependent else None)
            self.upper_multiplier = spec.ellipticity

    def envelope_profile(self, dist) -> np.ndarray:
        """(1 - s/2) * dist^-(N+s) inside the truncation radius, else 0."""
        r = np.asarray(dist, dtype=np.float64)
        out = np.zeros(r.shape, dtype=np.float64)
        inside = (r > 0.0) & (r <= self.spec.truncation_radius)
        out[inside] = self._scale * r[inside] ** (-self._exponent)
        return out

    def radial_profile(self, dist) -> np.ndarray:
        """Kernel value as a function of separation (translation-invariant only)."""
        if not self.translation_invariant:
            raise InvalidParameterError(
                "radial_profile requires a translation-invariant kernel")
        return self.spec.multiplier * self.envelope_profile(dist)

    def evaluate(self, t, x, y, dist=None) -> np.ndarray:
        px = _as_points(x, self.spec.dimension)
        py = _as_points(y, self.spec.dimension)
        px, py = np.broadcast_arrays(px, py)
        if dist is None:
            r = np.linalg.norm(px - py, axis=-1)
        else:
            r = np.broadcast_to(np.asarray(dist, dtype=np.float64),
                                px.shape[:-1])
        base = self.envelope_profile(r)
        if self._mult is None:
            return self.spec.multiplier * base
        return base * self._mult(t, px, py)


def make_kernel(spec: KernelSpec) -> Kernel:
    """Build the evaluator for `spec`; raises on out-of-range parameters."""
    return Kernel(spec)


@dataclass
class KernelValidationReport:
    symmetric: bool
    envelope_ok: bool
    truncated_ok: bool
    passed: bool
    max_symmetry_defect: float
    ratio_min: float
    ratio_max: float
    band_lo: float
    band_hi: float
    tier: str                 # "translation-invariant" or "measurable"
    max_beyond_truncation: float
    sample_count: int
    band_rtol: float


def validate_kernel(kernel) -> KernelValidationReport:
    """Sample SAMPLE_COUNT (t, x, y) triples and grade symmetry, envelope
    band, truncation.

    Works on any object exposing `spec`, `translation_invariant` and
    evaluate(t, x, y), called once with one time per sample; the band tier is
    the tight [Lambda^-1/2, Lambda^1/2] for translation-invariant kernels and
    the wide [Lambda^-1, Lambda] otherwise.  Sampling is deterministic in
    SAMPLING_SEED and the spec's seed.
    """
    spec = kernel.spec
    raise_first(kernel_errors(spec))
    n = SAMPLE_COUNT
    rng = np.random.default_rng([SAMPLING_SEED, spec.seed & 0x7FFFFFFF])
    dim = spec.dimension
    r_tr = spec.truncation_radius
    r_hi = r_tr if math.isfinite(r_tr) else 8.0
    box = 4.0 * r_hi

    x = rng.uniform(0.0, box, size=(n, dim))
    # log-spaced separations cover the near-diagonal decades
    radii = np.exp(rng.uniform(math.log(1e-3), math.log(r_hi), size=n))
    direction = rng.normal(size=(n, dim))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    y = x + radii[:, None] * direction
    t = rng.uniform(0.0, 1.0, size=n)

    k_xy = np.asarray(kernel.evaluate(t, x, y), dtype=np.float64)
    k_yx = np.asarray(kernel.evaluate(t, y, x), dtype=np.float64)
    max_sym = float(np.max(np.abs(k_xy - k_yx)))

    dist = np.linalg.norm(x - y, axis=-1)
    scale = 1.0 - spec.order / 2.0
    ratio = k_xy * dist ** (dim + spec.order) / scale

    lam = spec.ellipticity
    if kernel.translation_invariant:
        band_lo, band_hi, tier = lam ** -0.5, lam ** 0.5, "translation-invariant"
    else:
        band_lo, band_hi, tier = 1.0 / lam, lam, "measurable"

    inside = dist <= r_tr
    ratio_in = ratio[inside]
    ratio_min = float(ratio_in.min()) if ratio_in.size else math.nan
    ratio_max = float(ratio_in.max()) if ratio_in.size else math.nan
    envelope_ok = bool(
        ratio_in.size == 0
        or (ratio_min >= band_lo * (1.0 - BAND_RTOL)
            and ratio_max <= band_hi * (1.0 + BAND_RTOL)))

    if math.isfinite(r_tr):
        m = 64
        far_r = rng.uniform(r_tr * 1.01, r_tr * 3.0, size=m)
        fx = rng.uniform(0.0, box, size=(m, dim))
        fdir = rng.normal(size=(m, dim))
        fdir /= np.linalg.norm(fdir, axis=-1, keepdims=True)
        fy = fx + far_r[:, None] * fdir
        ft = rng.uniform(0.0, 1.0, size=m)
        far_vals = np.abs(kernel.evaluate(ft, fx, fy))
        max_beyond = float(far_vals.max())
    else:
        max_beyond = 0.0
    truncated_ok = max_beyond == 0.0

    symmetric = max_sym == 0.0
    return KernelValidationReport(
        symmetric=symmetric, envelope_ok=envelope_ok, truncated_ok=truncated_ok,
        passed=symmetric and envelope_ok and truncated_ok,
        max_symmetry_defect=max_sym, ratio_min=ratio_min, ratio_max=ratio_max,
        band_lo=band_lo, band_hi=band_hi, tier=tier,
        max_beyond_truncation=max_beyond, sample_count=n, band_rtol=BAND_RTOL)
