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

from .errors import NlflowError, raise_first, violations

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


def order_errors(order: float) -> list:
    """(field, error) pairs of the rule an order s breaks: 0 < s < 2."""
    return violations(("order", 0.0 < order < 2.0, "order out of (0,2)"))


def kernel_errors(spec: KernelSpec) -> list:
    """(field, error) pairs of the rules `spec` breaks; every family needs a
    positive cell size and epoch length, read or not, and a
    translation-invariant one a multiplier in the tight band that
    `validate_kernel` grades it in, once Lambda and the multiplier pass."""
    found = violations(
        ("dimension", spec.dimension in (1, 2), "dimension must be 1 or 2")
    ) + order_errors(spec.order) + violations(
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
    if spec.family in TRANSLATION_INVARIANT_FAMILIES and not {
            field for field, _ in found} & {"ellipticity", "multiplier"}:
        lo, hi = spec.ellipticity ** -0.5, spec.ellipticity ** 0.5
        found += violations(("multiplier", lo <= spec.multiplier <= hi,
                             f"{spec.family} multiplier must lie in "
                             f"[Lambda^-1/2, Lambda^1/2] = [{lo:g}, {hi:g}]"))
    return found


def _sample_box(spec: KernelSpec) -> tuple:
    """`validate_kernel`'s least and largest separations and box side."""
    r_hi = min(spec.truncation_radius, 8.0)
    return 1e-3 * min(1.0, r_hi), r_hi, 4.0 * r_hi


def _as_points(x, dimension: int) -> np.ndarray:
    """Coerce scalars / flat arrays / (..., N) arrays to (..., N) float64."""
    a = np.asarray(x, dtype=np.float64)
    if dimension == 1 and (a.ndim == 0 or a.shape[-1] != 1):
        a = a[..., np.newaxis]
    if a.shape[-1] != dimension:
        raise NlflowError(
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


class Kernel:
    """Concrete kernel evaluator built from a KernelSpec.

    evaluate(t, x, y, dist=None) takes absolute coordinates and a time or an
    array of times that broadcasts against them; `dist` overrides the
    Euclidean separation so grid code can supply periodic distances while
    keeping the multiplier a function of the canonical positions.

    A rough kernel's multiplier a(t, x, y) in [1/Lambda, Lambda] is the
    average of the hashed values of the ordered cell pairs (cell(x), cell(y))
    and (cell(y), cell(x)) (`_cell_pair_value`), so symmetry is exact; a
    time-dependent kernel hashes its `kernel_epoch` too.
    """

    def __init__(self, spec: KernelSpec):
        raise_first(kernel_errors(spec))
        self.spec = spec
        self.translation_invariant = \
            spec.family in TRANSLATION_INVARIANT_FAMILIES
        self.time_dependent = spec.family == "rough-time-dependent"
        self._scale = 1.0 - spec.order / 2.0
        self._exponent = spec.dimension + spec.order
        if self.translation_invariant:
            self.lower_multiplier = self.upper_multiplier = spec.multiplier
        else:
            self.lower_multiplier = 1.0 / spec.ellipticity
            self.upper_multiplier = spec.ellipticity

    def reach_errors(self, extent: float, t_max: float) -> list:
        """(field, error) pairs of the rules the kernel breaks at
        `validate_kernel`'s samples and at coordinates and times up to `extent`
        and `t_max`: r_lo^(N+s) at the least separation r_lo is a normal
        float and, where it is, so is the largest value there, (1-s/2) m_hi
        r_lo^-(N+s), filed under the field setting m_hi; and the int64 cell
        and epoch indices hold."""
        r_lo, r_hi, box = _sample_box(self.spec)
        r_tr = self.spec.truncation_radius     # sampled 3 radii past the box
        reach = box + (3.0 * r_tr if math.isfinite(r_tr) else r_hi)
        extent, t_max = max(extent, reach), max(t_max, 1.0)
        log_power = self._exponent * math.log(r_lo)
        return violations(
            ("truncation_radius", log_power > -708.0, f"the kernel values at "
             f"separations down to {r_lo:g} must be normal floats"),
            ("multiplier" if self.translation_invariant else "ellipticity",
             log_power <= -708.0 or math.log(
                 self._scale * self.upper_multiplier) - log_power < 709.0,
             f"the kernel values at separations down to {r_lo:g} must "
             "stay below e^709"),
            ("cell_size", self.translation_invariant or extent
             / self.spec.cell_size < 2.0 ** 63, f"the cell indices of "
             f"coordinates up to {extent:g} must lie in int64"),
            ("epoch_length", not self.time_dependent or t_max
             / self.spec.epoch_length < 2.0 ** 63, f"the epoch indices of "
             f"times up to {t_max:g} must lie in int64"))

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
            raise NlflowError(
                "radial_profile requires a translation-invariant kernel")
        return self.spec.multiplier * self.envelope_profile(dist)

    def _cell_pair_value(self, epoch, cells_a: np.ndarray,
                         cells_b: np.ndarray) -> np.ndarray:
        """The band value the hash gives the ordered cell pairs (cells_a,
        cells_b) in `epoch`."""
        acc = np.broadcast_to(_U64(int(self.spec.seed) & 0xFFFFFFFFFFFFFFFF),
                              cells_a.shape[:-1]).copy()
        acc = _hash_fold(acc, np.broadcast_to(epoch, acc.shape))
        for k in range(cells_a.shape[-1]):
            acc = _hash_fold(acc, cells_a[..., k])
        for k in range(cells_b.shape[-1]):
            acc = _hash_fold(acc, cells_b[..., k])
        unit = (acc >> _U64(11)).astype(np.float64) * 2.0 ** -53
        lo = self.lower_multiplier
        return lo + unit * (self.upper_multiplier - lo)

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
        if self.translation_invariant:
            return self.spec.multiplier * base
        epoch = kernel_epoch(self, t)
        ca = np.floor(px / self.spec.cell_size).astype(np.int64)
        cb = np.floor(py / self.spec.cell_size).astype(np.int64)
        return base * (0.5 * (self._cell_pair_value(epoch, ca, cb)
                              + self._cell_pair_value(epoch, cb, ca)))


def kernel_epoch(kernel, t):
    """Index floor(t / epoch_length) of the epoch a kernel is sampled on at
    time t, elementwise over an array of times; a static kernel has the one
    epoch 0.  Reads the kernel's `time_dependent` and `spec` alone."""
    length = kernel.spec.epoch_length if kernel.time_dependent else math.inf
    return np.floor(t / length).astype(np.int64)


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
    r_lo, r_hi, box = _sample_box(spec)

    x = rng.uniform(0.0, box, size=(n, dim))
    # log-spaced separations cover the near-diagonal decades
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=n))
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

    # the separations run below r_hi <= r_tr, so some samples lie inside
    ratio_in = ratio[dist <= r_tr]
    ratio_min, ratio_max = float(ratio_in.min()), float(ratio_in.max())
    envelope_ok = bool(ratio_min >= band_lo * (1.0 - BAND_RTOL)
                       and ratio_max <= band_hi * (1.0 + BAND_RTOL))

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
