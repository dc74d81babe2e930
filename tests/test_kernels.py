"""Kernel families: point values, truncation, envelope band, symmetry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlflow.errors import InvalidParameterError, UnsupportedDimensionError
from nlflow.kernels import (
    Kernel,
    KernelSpec,
    make_kernel,
    validate_kernel,
)


def power_law(dimension=1, order=1.0, multiplier=1.0, ellipticity=4.0,
              truncation=3.0):
    return make_kernel(KernelSpec(
        dimension=dimension, order=order, ellipticity=ellipticity,
        truncation_radius=truncation, family="power-law",
        multiplier=multiplier))


def rough(family="rough-static", seed=42, dimension=1, order=1.0,
          ellipticity=4.0):
    return make_kernel(KernelSpec(
        dimension=dimension, order=order, ellipticity=ellipticity,
        truncation_radius=3.0, family=family, seed=seed))


# --------------------------------------------------------------------------
# point values and truncation

def test_power_law_unit_separation_value():
    k = power_law()
    # (1 - s/2) * c * |x-y|^{-(N+s)} = 0.5 * 1 * 1
    val = k.evaluate(0.0, np.array([0.0]), np.array([1.0]))
    assert float(val) == 0.5


def test_power_law_general_separation():
    k = power_law(order=0.5, multiplier=2.0)
    d = 1.7
    expected = (1.0 - 0.25) * 2.0 * d ** -1.5
    val = float(k.evaluate(0.0, np.array([0.0]), np.array([d])))
    assert val == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("family", ["power-law", "rough-static",
                                    "rough-time-dependent"])
def test_truncation_kills_far_pairs(family):
    k = make_kernel(KernelSpec(family=family, seed=3))
    val = k.evaluate(0.0, np.array([0.0]), np.array([3.1]))
    assert float(val) == 0.0


def test_truncation_radius_inf_supported():
    k = power_law(truncation=math.inf)
    far = float(k.evaluate(0.0, np.array([0.0]), np.array([50.0])))
    assert far == pytest.approx(0.5 * 50.0 ** -2.0, rel=1e-14)


# --------------------------------------------------------------------------
# envelope band

def test_rough_static_seed42_envelope_scan():
    rep = validate_kernel(rough(seed=42))
    assert rep.envelope_ok
    assert rep.tier == "measurable"
    assert rep.band_lo == 0.25 and rep.band_hi == 4.0
    assert rep.passed


def test_validate_power_law_ratio_is_multiplier():
    # d^{-(N+s)} * d^{N+s} cancels only to one ulp, so "ratio = 1" is exact
    # up to that rounding
    rep = validate_kernel(power_law())
    assert rep.tier == "translation-invariant"
    assert rep.ratio_min == pytest.approx(1.0, rel=1e-14)
    assert rep.ratio_max == pytest.approx(1.0, rel=1e-14)
    assert rep.passed


class _Scaled:
    """Wrapper multiplying a kernel by a constant; breaks the upper band."""

    def __init__(self, base: Kernel, factor: float):
        self.base = base
        self.factor = factor
        self.spec = base.spec
        self.translation_invariant = base.translation_invariant

    def evaluate(self, t, x, y, dist=None):
        return self.factor * self.base.evaluate(t, x, y, dist)


class _Asymmetric:
    """Adds 0.1 to one argument order only, inside the truncation radius."""

    def __init__(self, base: Kernel):
        self.base = base
        self.spec = base.spec
        self.translation_invariant = False

    def evaluate(self, t, x, y, dist=None):
        val = np.asarray(self.base.evaluate(t, x, y, dist), dtype=np.float64)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        bump = (x[..., 0] > y[..., 0]) & (val > 0.0)
        return val + 0.1 * bump


def test_validate_flags_upper_band_breach():
    base = power_law()
    rep = validate_kernel(_Scaled(base, 2.0 * 4.0))
    assert rep.tier == "translation-invariant"
    assert not rep.envelope_ok
    assert rep.ratio_max > rep.band_hi
    assert not rep.passed


def test_validate_reports_injected_asymmetry():
    base = power_law()
    rep = validate_kernel(_Asymmetric(base))
    assert rep.tier == "measurable"
    assert not rep.symmetric
    assert rep.max_symmetry_defect == pytest.approx(0.1, rel=1e-9)


# --------------------------------------------------------------------------
# symmetry, determinism, epochs

@pytest.mark.parametrize("family", ["rough-static", "rough-time-dependent"])
def test_symmetry_exact_on_samples(family):
    k = rough(family=family, seed=11)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 12.0, size=(500, 1))
    y = x + rng.uniform(-3.0, 3.0, size=(500, 1))
    t = 0.37
    assert np.array_equal(k.evaluate(t, x, y), k.evaluate(t, y, x))


def test_symmetry_exact_2d():
    k = rough(seed=9, dimension=2)
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 12.0, size=(500, 2))
    y = x + rng.uniform(-2.0, 2.0, size=(500, 2))
    assert np.array_equal(k.evaluate(0.0, x, y), k.evaluate(0.0, y, x))


def test_same_seed_bitwise_identical():
    a, b = rough(seed=123), rough(seed=123)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 10.0, size=(200, 1))
    y = x + rng.uniform(-3.0, 3.0, size=(200, 1))
    assert np.array_equal(a.evaluate(0.0, x, y), b.evaluate(0.0, x, y))


def test_different_seed_differs():
    a, b = rough(seed=1), rough(seed=2)
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 10.0, size=(200, 1))
    y = x + rng.uniform(-2.0, 2.0, size=(200, 1))
    assert not np.array_equal(a.evaluate(0.0, x, y), b.evaluate(0.0, x, y))


def test_epoch_constant_within_and_fresh_across():
    k = rough(family="rough-time-dependent", seed=21)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 10.0, size=(300, 1))
    y = x + rng.uniform(-2.0, 2.0, size=(300, 1))
    early = k.evaluate(0.01, x, y)
    assert np.array_equal(early, k.evaluate(0.09, x, y))
    assert not np.array_equal(early, k.evaluate(0.15, x, y))


def test_rough_static_ignores_time():
    k = rough(seed=33)
    rng = np.random.default_rng(10)
    x = rng.uniform(0.0, 10.0, size=(100, 1))
    y = x + rng.uniform(-2.0, 2.0, size=(100, 1))
    assert np.array_equal(k.evaluate(0.0, x, y), k.evaluate(100.0, x, y))


# --------------------------------------------------------------------------
# parameter guards

def test_order_out_of_range_rejected():
    with pytest.raises(InvalidParameterError, match=r"order out of \(0,2\)"):
        make_kernel(KernelSpec(order=2.5))
    with pytest.raises(InvalidParameterError):
        make_kernel(KernelSpec(order=0.0))


def test_ellipticity_and_dimension_guards():
    with pytest.raises(InvalidParameterError, match="ellipticity"):
        make_kernel(KernelSpec(ellipticity=1.0))
    with pytest.raises(UnsupportedDimensionError):
        make_kernel(KernelSpec(dimension=3))


def test_unknown_family_rejected():
    with pytest.raises(InvalidParameterError, match="family"):
        make_kernel(KernelSpec(family="smooth"))


# --------------------------------------------------------------------------
# property: every constructible family stays inside its certified band

@settings(max_examples=25, deadline=None)
@given(order=st.floats(0.1, 1.9), ellipticity=st.floats(1.5, 8.0),
       seed=st.integers(0, 2 ** 32))
def test_rough_family_always_in_band(order, ellipticity, seed):
    spec = KernelSpec(order=order, ellipticity=ellipticity,
                      family="rough-static", seed=seed)
    rep = validate_kernel(make_kernel(spec))
    assert rep.passed


@settings(max_examples=25, deadline=None)
@given(order=st.floats(0.1, 1.9),
       mult=st.floats(0.51, 1.9), seed=st.integers(0, 100))
def test_power_law_multiplier_recovered(order, mult, seed):
    # ratio == c whenever c is representable; compare within one ulp
    spec = KernelSpec(order=order, ellipticity=4.0, family="power-law",
                      multiplier=mult, seed=seed)
    rep = validate_kernel(make_kernel(spec))
    assert rep.ratio_min == pytest.approx(mult, rel=1e-12)
    assert rep.ratio_max == pytest.approx(mult, rel=1e-12)
    assert rep.passed
