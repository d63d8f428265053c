"""Deterministic flow, hitting times, and event-time inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfdlab import benchmarks
from gfdlab.config import (DivisionRateModel, GrowthModel, ModelDefinition)
from gfdlab.flow import JumpSampler, cumulative_rate, flow, hitting_time
from gfdlab.kernels import DivisionKernel


def tables_clone(mu_max=1.0, n=4001):
    """Same logistic field expressed through interpolation tables.

    Forces the generic ODE code paths so they can be checked against
    the closed forms.
    """
    s = np.linspace(0.0, 64.0, 257)
    mu = mu_max * s / (1.0 + s)
    x = np.linspace(0.0, 1.0, n)
    gt = x * (1.0 - x)
    growth = GrowthModel(family="separable_tables", max_mass=1.0,
                         mu_table=tuple(zip(s, mu)),
                         gtilde_table=tuple(zip(x, gt)))
    return ModelDefinition(
        max_mass=1.0, death_rate=1.0, growth=growth,
        division=DivisionRateModel(family="constant", b_bar=2.0, m_div=0.0),
        kernel=DivisionKernel(family="uniform", l0=0.25))


@pytest.fixture(scope="module")
def model():
    return benchmarks.constant_rate_model()


def test_flow_closed_form_values(model):
    # logistic: theta = ln(x/(1-x)) moves at speed mu(S)
    S, x, t = 1.0, 0.2, 3.0
    r = model.growth.mu(S)
    theta = math.log(x / (1 - x)) + r * t
    expected = 1.0 / (1.0 + math.exp(-theta))
    assert flow(model, S, x, t) == pytest.approx(expected, rel=1e-12)


def test_flow_fixes_boundaries(model):
    assert flow(model, 1.0, 0.0, 5.0) == 0.0
    assert flow(model, 1.0, 1.0, 5.0) == pytest.approx(1.0)


def test_flow_vectorizes(model):
    x = np.array([0.1, 0.5, 0.9])
    out = flow(model, 2.0, x, 1.5)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)


@given(x=st.floats(0.01, 0.99), s=st.floats(0.05, 30.0),
       t1=st.floats(0.0, 5.0), t2=st.floats(0.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_flow_semigroup(x, s, t1, t2):
    m = benchmarks.constant_rate_model()
    one = flow(m, s, flow(m, s, x, t1), t2)
    both = flow(m, s, x, t1 + t2)
    assert one == pytest.approx(both, rel=1e-9, abs=1e-12)


def test_flow_tables_matches_closed_form(model):
    clone = tables_clone()
    for x in (0.1, 0.45, 0.8):
        a = flow(model, 1.0, x, 2.0)
        b = flow(clone, 1.0, x, 2.0)
        assert b == pytest.approx(a, rel=1e-5)


def test_hitting_time_inverts_flow(model):
    S, x, y = 0.5, 0.2, 0.8
    T = hitting_time(model, S, x, y)
    assert flow(model, S, x, T) == pytest.approx(y, rel=1e-10)


def test_hitting_time_at_max_mass_is_infinite(model):
    assert hitting_time(model, 1.0, 0.3, 1.0) == math.inf
    assert hitting_time(model, 1.0, 0.3, 0.3) == 0.0


def test_hitting_time_rejects_bad_order(model):
    with pytest.raises(ValueError):
        hitting_time(model, 1.0, 0.8, 0.2)


def test_cumulative_rate_derivative_is_rate(model):
    S, D, x = 2.0, 1.0, 0.3
    t, dt = 1.2, 1e-6
    bu1, tu1 = cumulative_rate(model, S, D, x, t)
    bu2, tu2 = cumulative_rate(model, S, D, x, t + dt)
    mass = flow(model, S, x, t)
    b_here = float(model.b(S, mass))
    assert (bu2 - bu1) / dt == pytest.approx(b_here, rel=1e-4)
    assert (tu2 - tu1) / dt == pytest.approx(b_here + D, rel=1e-4)


def test_cumulative_rate_constant_division(model):
    # b constant: int b du = b t, int (b + D) du = (b + D) t
    bu, tu = cumulative_rate(model, 1.0, 1.0, 0.4, 2.5)
    assert bu == pytest.approx(2.0 * 2.5, rel=1e-12)
    assert tu == pytest.approx(3.0 * 2.5, rel=1e-12)


def test_event_time_inverts_cumulative_rate(model):
    S, D, x = 1.0, 1.0, 0.25
    for E in (0.1, 1.0, 4.0):
        T, mass = JumpSampler(model, S, D).event(x, E)
        assert mass == pytest.approx(flow(model, S, x, T), rel=1e-9)
        _, tu = cumulative_rate(model, S, D, x, T)
        assert tu == pytest.approx(E, rel=1e-9)


def test_event_time_ramp_rate():
    m = benchmarks.logramp_model()
    S, D, x = 2.0, 0.6, 0.3
    for E in (0.05, 0.8, 3.0):
        T, mass = JumpSampler(m, S, D).event(x, E)
        _, tu = cumulative_rate(m, S, D, x, T)
        assert tu == pytest.approx(E, rel=1e-8)


def test_event_time_immortal_when_total_rate_finite():
    """Decaying division rate and no death: the clock can run dry."""
    m = ModelDefinition(
        max_mass=1.0, death_rate=0.0,
        growth=GrowthModel(family="logistic_monod", mu_max=1.0,
                           half_saturation=1.0),
        division=DivisionRateModel(family="ramp_down", b_bar=0.5,
                                   m_div=0.0, gamma=1.0),
        kernel=DivisionKernel(family="uniform", l0=0.25))
    T, mass = JumpSampler(m, 1.0, 0.0).event(0.9, 50.0)
    assert T == math.inf
    assert mass == pytest.approx(1.0)


def test_jump_sampler_fast_path_active(model):
    assert JumpSampler(model, 1.0, 1.0).fast
    assert JumpSampler(benchmarks.logramp_model(), 1.0, 1.0).fast
    assert not JumpSampler(tables_clone(), 1.0, 1.0).fast


def test_jump_sampler_matches_ode_path(model):
    fast = JumpSampler(model, 1.0, 1.0)
    slow = JumpSampler(tables_clone(), 1.0, 1.0)
    for E in (0.3, 1.7):
        Tf, mf = fast.event(0.2, E)
        Ts, ms = slow.event(0.2, E)
        assert Ts == pytest.approx(Tf, rel=1e-5)
        assert ms == pytest.approx(mf, rel=1e-4)
