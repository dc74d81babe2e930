"""Potential families: point values, curvature band, derivative consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlflow.potentials import (
    PotentialSpec,
    make_potential,
    validate_potential,
)


def quadratic():
    return make_potential(PotentialSpec(family="quadratic", ellipticity=4.0))


def huber(ellipticity=4.0):
    return make_potential(PotentialSpec(family="smoothed-huber",
                                        ellipticity=ellipticity))


def test_quadratic_derivative_is_identity():
    p = quadratic()
    assert float(p.d1(3.0)) == 3.0
    assert float(p.d1(0.0)) == 0.0
    assert float(p.value(2.0)) == 2.0
    assert float(p.d2(5.0)) == 1.0


@pytest.mark.parametrize("family", ["quadratic", "smoothed-huber"])
def test_zero_at_origin(family):
    p = make_potential(PotentialSpec(family=family, ellipticity=4.0))
    assert float(p.value(0.0)) == 0.0


def test_huber_curvature_endpoints():
    # a = Lambda^-1/2, b = Lambda^1/2 - Lambda^-1/2; d2(0) = Lambda^1/2,
    # d2 -> Lambda^-1/2 at infinity
    p = huber()
    assert float(p.d2(0.0)) == 2.0
    assert float(p.d2(1e8)) == pytest.approx(0.5, abs=1e-12)
    x = np.linspace(-10.0, 10.0, 100001)
    d2 = p.d2(x)
    assert float(d2.max()) == 2.0
    assert 0.5 < float(d2.min()) < 2.0


def test_huber_sup_d2_certificate():
    assert huber().sup_d2 == 2.0
    assert quadratic().sup_d2 == 1.0


def test_validate_quadratic_passes():
    rep = validate_potential(quadratic())
    assert rep.bounds_ok and rep.even_ok and rep.zero_ok and rep.fd_ok
    assert rep.passed
    assert rep.d2_min == 1.0 and rep.d2_max == 1.0


def test_validate_huber_passes_and_fd_defect_small():
    rep = validate_potential(huber())
    assert rep.passed
    assert rep.fd_step == 1e-3
    assert rep.max_fd_defect <= 1e-6
    assert rep.d2_min >= 0.5 - 1e-12
    assert rep.d2_max <= 2.0 + 1e-12


class _Quartic:
    """phi(x) = x^4: curvature 12 x^2 escapes any band on a wide span."""

    def __init__(self):
        self.spec = PotentialSpec(family="quadratic", ellipticity=4.0)

    def value(self, x):
        return np.asarray(x, dtype=np.float64) ** 4

    def d1(self, x):
        return 4.0 * np.asarray(x, dtype=np.float64) ** 3

    def d2(self, x):
        return 12.0 * np.asarray(x, dtype=np.float64) ** 2


def test_validate_quartic_fails_upper_band():
    rep = validate_potential(_Quartic())
    assert not rep.bounds_ok
    assert rep.d2_max > rep.band_hi
    assert not rep.passed


@pytest.mark.parametrize("family", ["quadratic", "smoothed-huber"])
def test_first_derivative_odd(family):
    p = make_potential(PotentialSpec(family=family, ellipticity=4.0))
    x = np.linspace(0.0, 8.0, 2001)
    assert np.max(np.abs(p.d1(-x) + p.d1(x))) == 0.0


def test_fd_convergence_order_of_d2():
    # centered difference of d1 approximates d2 at order >= 1.9
    p = huber()
    x = np.linspace(-4.0, 4.0, 101)
    defects = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = (p.d1(x + h) - p.d1(x - h)) / (2.0 * h)
        defects.append(float(np.max(np.abs(fd - p.d2(x)))))
    orders = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
    assert np.all(orders >= 1.9)


def test_unknown_family_rejected():
    from nlflow.errors import NlflowError
    with pytest.raises(NlflowError, match="family"):
        make_potential(PotentialSpec(family="tv", ellipticity=4.0))
    with pytest.raises(NlflowError, match="ellipticity must be finite"):
        make_potential(PotentialSpec(family="quadratic", ellipticity=0.9))


@settings(max_examples=25, deadline=None)
@given(ellipticity=st.floats(1.2, 16.0))
def test_huber_band_saturates_for_any_lambda(ellipticity):
    p = huber(ellipticity)
    lo, hi = ellipticity ** -0.5, ellipticity ** 0.5
    assert float(p.d2(0.0)) == pytest.approx(hi, rel=1e-12)
    assert float(p.d2(1e10)) == pytest.approx(lo, rel=1e-9)
    rep = validate_potential(p)
    assert rep.passed


@settings(max_examples=25, deadline=None)
@given(x=st.floats(-50.0, 50.0), family=st.sampled_from(
    ["quadratic", "smoothed-huber"]))
def test_convexity_pointwise(x, family):
    p = make_potential(PotentialSpec(family=family, ellipticity=4.0))
    assert float(p.d2(x)) > 0.0
