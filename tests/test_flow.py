"""Deterministic flow, hitting times, and event-time inversion."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import gfdlab
from gfdlab import benchmarks
from gfdlab.config import (DivisionRateModel, GrowthModel, ModelDefinition)
from gfdlab.flow import JumpSampler, cumulative_rate, flow, hitting_time
from gfdlab.kernels import DivisionKernel
from gfdlab.simulate import SimulationLimits, simulate


def tables_clone(mu_max=1.0, n=4001):
    """Same logistic field expressed through interpolation tables.

    Forces the tabulated code paths so they can be checked against the
    closed forms.
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


def closed_form_rate(model, S, D, x, T):
    """Cumulated rate of the linear ramp over [0, T] from x, in theta.

    With b = slope (m - c) above c and logistic growth, int (m - c) dtheta
    is M softplus(theta) - c theta, and theta moves at speed mu(S).
    """
    M, c = model.max_mass, model.division.m_div
    r = float(model.growth.mu(S))
    b_top = model.division.b_bar * float(model.division.multiplier(S))
    slope = b_top / (M - c)

    def softplus(t):
        return max(t, 0.0) + math.log1p(math.exp(-abs(t)))

    def logit(m):
        return math.log(m) - math.log(M - m)

    lo, hi = logit(max(x, c)), logit(x) + r * T
    if hi <= lo:
        return D * T
    ramp = M * (softplus(hi) - softplus(lo)) - c * (hi - lo)
    return D * T + slope * ramp / r


def test_closed_form_event_residual():
    model = benchmarks.logramp_model()    # ramp above m_div = 0.2
    xs = (0.01, 0.15, 0.2, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-15)
    for S, D in ((0.25, 0.3), (2.0, 0.6), (32.0, 1.5), (1.0, 0.0)):
        sampler = JumpSampler(model, S, D)
        assert sampler.fast and not sampler.constant_b
        for x in xs:
            # near M a tiny E can round theta, and T, to no change at all
            for E in np.logspace(-14, math.log10(40.0), 33).tolist():
                T, m = sampler.event(x, E)
                assert 0.0 <= T < math.inf and x - 1e-15 <= m < 1.0
                val = closed_form_rate(model, S, D, x, T)
                assert abs(val - E) <= 1e-12 * (1.0 + E), (S, D, x, E)


@pytest.mark.parametrize("family, gamma", [
    ("ramp", 0.0), ("ramp", 0.5), ("ramp", 2.0), ("ramp_down", 1.0),
    ("ramp_down", 0.5)])
def test_scalar_rate_matches_model(family, gamma):
    lr = benchmarks.logramp_model()
    model = replace(lr, division=replace(lr.division, family=family,
                                         gamma=gamma, s_multiplier="monod"))
    c = model.division.m_div
    xs = np.random.default_rng(5).uniform(0.0, 1.0, 2000).tolist()
    xs += [0.0, c, math.nextafter(c, 1.0), math.nextafter(1.0, 0.0), 1.0]
    for S in (0.5, 3.0):
        sampler = JumpSampler(model, S, 0.3)
        assert not sampler.fast
        for x in xs:
            got = sampler.b(x)
            assert type(got) is float and got == float(model.b(S, x)), x


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


# -- the tabulated sampler against quadrature written here ----------------

def tent_growth():
    """A piecewise-linear gtilde that is not logistic, with a flat stretch."""
    return GrowthModel(
        family="separable_tables", max_mass=1.0,
        mu_table=((0.0, 0.0), (1.0, 1.5), (10.0, 2.0)),
        gtilde_table=((0.0, 0.0), (0.2, 0.3), (0.5, 0.35), (0.7, 0.35),
                      (0.9, 0.1), (1.0, 0.0)))


def oracle_models():
    lr = benchmarks.logramp_model()
    ramp = lr.division
    return {
        "ramp gamma 0.5": replace(lr, division=replace(ramp, gamma=0.5)),
        "ramp gamma 2": replace(lr, division=replace(ramp, gamma=2.0)),
        "ramp gamma 0": replace(lr, division=replace(ramp, gamma=0.0)),
        "ADVERSE_BDEC": benchmarks.adversarial_bdec_model(),
        "tables": replace(lr, growth=tent_growth()),
        "tables ramp_down": replace(lr, growth=tent_growth(), division=replace(
            ramp, family="ramp_down", m_div=0.1, gamma=1.5)),
    }


def along_flow(model, S, x, m, f):
    """int f/g over the masses [x, m], which is int f(A_t) dt along the flow.

    With f = b + D this is the cumulated event rate, with f = 1 the time
    the flow takes to carry x to m. The division threshold and the gtilde
    table nodes are passed to quad as breaks.
    """
    breaks = [model.division.m_div]
    breaks += [p[0] for p in model.growth.gtilde_table]
    breaks = [p for p in breaks if x < p < m] or None
    return integrate.quad(lambda y: f(y) / float(model.g(S, y)), x, m,
                          points=breaks, limit=500, epsabs=1e-14,
                          epsrel=1e-13)[0]


def event_rate(model, S, D, x, m):
    return along_flow(model, S, x, m, lambda y: float(model.b(S, y)) + D)


@pytest.mark.parametrize("name", list(oracle_models()))
def test_tabulated_event_matches_quadrature(name):
    model = oracle_models()[name]
    assert not JumpSampler(model, 1.0, 1.0).fast
    for S, D in ((2.0, 0.6), (0.5, 0.0)):
        sampler = JumpSampler(model, S, D)
        for x in (0.05, 0.15, 0.5, 0.9):
            for E in (0.05, 0.8, 3.0):
                T, m = sampler.event(x, E)
                if T == math.inf:
                    # immortal: the whole rate along the flow is below E
                    assert m == 1.0
                    assert event_rate(model, S, D, x, 1.0) < E
                    continue
                rate = event_rate(model, S, D, x, m)
                t_flow = along_flow(model, S, x, m, lambda y: 1.0)
                assert abs(rate - E) <= 1e-8 * E
                assert abs(t_flow - T) <= 1e-8 * T
                assert hitting_time(model, S, x, m) == pytest.approx(
                    T, rel=1e-9)
                assert cumulative_rate(model, S, D, x, T)[1] == pytest.approx(
                    E, rel=1e-8)


def test_adverse_bdec_immortal_draw():
    """ramp_down with D = 0: the total rate from x is finite."""
    model = benchmarks.adversarial_bdec_model()
    sampler = JumpSampler(model, 1.0, 0.0)
    total = event_rate(model, 1.0, 0.0, 0.6, 1.0)
    assert sampler.event(0.6, total * 1.001) == (math.inf, 1.0)
    T, m = sampler.event(0.6, total * 0.999)
    assert T < math.inf
    assert event_rate(model, 1.0, 0.0, 0.6, m) == pytest.approx(
        total * 0.999, rel=1e-8)


def test_tabulated_event_times_ks():
    """First event times of the trial engine fit the rate integrated here.

    With gen_limit 1 a trial ends at its root's event, death or division.
    The cumulated rate Lambda(T) comes from an ODE solve of the flow with
    the rate as a second component, so 1 - exp(-Lambda(T)) is uniform.
    A wrong death rate must be rejected.
    """
    model = replace(benchmarks.logramp_model(), growth=tent_growth())
    S, D, x0 = 2.0, 0.6, 0.3
    times = np.array([
        simulate(model, S, D, x0, limits=SimulationLimits(gen_limit=1),
                 seed=21, trial=t).time for t in range(2000)])

    def rhs(_, y):
        m = min(max(y[0], 0.0), 1.0)
        return [float(model.g(S, m)), float(model.b(S, m)) + D]

    sol = integrate.solve_ivp(rhs, (0.0, times.max()), [x0, 0.0],
                              dense_output=True, rtol=1e-10, atol=1e-12)
    rate = sol.sol(times)[1]
    assert stats.kstest(-np.expm1(-rate), "uniform").pvalue > 1e-3
    wrong = rate + 0.5 * times
    assert stats.kstest(-np.expm1(-wrong), "uniform").pvalue < 1e-6


def test_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(gfdlab.__file__))
    code = "import sys, gfdlab; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
