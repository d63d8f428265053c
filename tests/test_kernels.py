"""Division kernel laws: symmetry, normalization, sampling, coupling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gfdlab.kernels import (CouplingReport, DivisionKernel, check_coupling,
                            monotone_integral, support_quadrature_batch)

UNIFORM = DivisionKernel(family="uniform", l0=0.25)
BETA = DivisionKernel(family="beta_ramp", l0=0.2, beta=2.0)
CONTINUOUS = [UNIFORM, BETA]


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        DivisionKernel(family="cauchy")


def test_negative_beta_rejected():
    with pytest.raises(ValueError):
        DivisionKernel(family="beta_ramp", beta=-1.0)


@pytest.mark.parametrize("kernel", CONTINUOUS, ids=lambda k: k.family)
def test_density_symmetric_about_half(kernel):
    x = 0.7
    a = np.linspace(0.01, 0.99, 301)
    q = kernel.density(x, a)
    assert np.allclose(q, q[::-1], atol=1e-12)


@pytest.mark.parametrize("kernel", CONTINUOUS, ids=lambda k: k.family)
def test_density_normalized(kernel):
    for x in (0.1, 0.4, 0.9):
        a, w = support_quadrature_batch(kernel, np.array([x]))
        total = float(w.sum())
        assert abs(total - 1.0) < 1e-9


@pytest.mark.parametrize("kernel", CONTINUOUS, ids=lambda k: k.family)
def test_density_vanishes_outside_support(kernel):
    x = 0.5
    lo, hi = kernel.support(x)
    assert kernel.density(x, lo / 2) == 0.0
    assert kernel.density(x, (1 + hi) / 2) == 0.0


@pytest.mark.parametrize("kernel", CONTINUOUS, ids=lambda k: k.family)
def test_cdf_inverse_roundtrip_64_points(kernel):
    # the acceptance threshold; exercised on interior quantiles
    v = np.linspace(1e-6, 1 - 1e-6, 64)
    for x in (0.05, 0.5, 0.95):
        a = kernel.inverse_cdf(x, v)
        back = kernel.cdf(x, a)
        assert np.max(np.abs(back - v)) < 1e-10


@given(x=st.floats(0.01, 0.99), v=st.floats(0.001, 0.999))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property_uniform(x, v):
    a = UNIFORM.inverse_cdf(x, v)
    assert abs(UNIFORM.cdf(x, a) - v) < 1e-10


@given(x=st.floats(0.01, 0.99), v=st.floats(0.001, 0.999))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property_beta(x, v):
    a = BETA.inverse_cdf(x, v)
    assert abs(BETA.cdf(x, a) - v) < 1e-10


@pytest.mark.parametrize("kernel", CONTINUOUS, ids=lambda k: k.family)
def test_sample_matches_cdf_ks(kernel):
    rng = np.random.default_rng(42)
    x = 0.6
    draws = kernel.sample(x, rng, size=100_000)
    lo, hi = kernel.support(x)
    assert draws.min() >= lo - 1e-12 and draws.max() <= hi + 1e-12
    res = stats.kstest(draws, lambda a: kernel.cdf(x, a))
    assert res.pvalue > 0.05


def test_equal_mitosis_is_degenerate():
    k = DivisionKernel(family="equal_mitosis")
    assert k.is_degenerate
    rng = np.random.default_rng(0)
    assert float(k.sample(0.3, rng)) == 0.5
    assert k.inverse_cdf(0.3, 0.77) == 0.5


def test_margin_linear_in_mass():
    k = DivisionKernel(family="uniform", l0=0.45, l1=-0.45)
    assert k.margin(0.0) == pytest.approx(0.45)
    assert k.margin(1.0) == pytest.approx(0.0)


# -- monotone integral ---------------------------------------------------

DECREASING_FS = [
    ("const", lambda u: np.ones_like(u)),
    ("linear", lambda u: 1.0 - u),
    ("square", lambda u: (1.0 - u) ** 2),
    ("exp", lambda u: np.exp(-3.0 * u)),
]


@pytest.mark.parametrize("kernel", CONTINUOUS, ids=lambda k: k.family)
@pytest.mark.parametrize("name,f", DECREASING_FS, ids=[n for n, _ in DECREASING_FS])
def test_monotone_integral_non_increasing(kernel, name, f):
    """Non-increasing f makes x -> int q f(ax) f((1-a)x) da non-increasing."""
    u = np.linspace(0.0, 1.0, 2001)
    x = np.linspace(1e-3, 1.0 - 1e-3, 256)
    vals = monotone_integral(kernel, u, f(u), x)
    assert float(np.max(np.diff(vals))) <= 1e-10


def test_monotone_integral_scalar_matches_vector():
    u = np.linspace(0, 1, 501)
    f = 1.0 - u
    single = monotone_integral(UNIFORM, u, f, 0.37)
    batch = monotone_integral(UNIFORM, u, f, np.array([0.37]))
    assert single == pytest.approx(float(batch[0]), abs=1e-14)


# -- coupling validator --------------------------------------------------

@pytest.mark.parametrize("kernel", CONTINUOUS, ids=lambda k: k.family)
def test_coupling_holds_for_constant_margin(kernel):
    report = check_coupling(kernel)
    assert isinstance(report, CouplingReport)
    assert report.passed
    assert report.first_violation is None


def test_coupling_fails_for_shrinking_margin():
    # margin l(x) = 0.45 (1 - x): l + x l' goes negative above x = 1/2,
    # so a heavier mother can produce a strictly lighter small daughter
    k = DivisionKernel(family="uniform", l0=0.45, l1=-0.45)
    report = check_coupling(k)
    assert not report.passed
    bad = report.first_violation
    assert bad is not None
    for key in ("x", "y", "u"):
        assert key in bad
    assert bad["x"] < bad["y"]


def test_coupling_violation_is_a_real_counterexample():
    k = DivisionKernel(family="uniform", l0=0.45, l1=-0.45)
    bad = check_coupling(k).first_violation
    x, y, u = bad["x"], bad["y"], bad["u"]
    ax = float(k.inverse_cdf(x, u))
    ay = float(k.inverse_cdf(y, u))
    low = min(x * ax, x * (1 - ax))
    loy = min(y * ay, y * (1 - ay))
    assert loy < low - 1e-12
