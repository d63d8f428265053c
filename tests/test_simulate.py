"""Branching simulation: determinism, censoring, interval calibration."""

import math

import numpy as np
import pytest

from gfdlab import benchmarks
from gfdlab.config import DivisionRateModel, GrowthModel, ModelDefinition
from gfdlab.kernels import DivisionKernel
from gfdlab.flow import JumpSampler
from gfdlab.simulate import (SimulationLimits, _make_fraction_sampler,
                             _trial_uniforms, estimate_survival,
                             martingale_check, simulate, trial_keys,
                             trial_seed, wilson_interval)
from gfdlab.spectral import principal_eigenpair


@pytest.fixture(scope="module")
def model():
    return benchmarks.constant_rate_model()


def test_wilson_endpoints():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert lo > 0.95 and hi == 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_wilson_known_value():
    # 8/10 with z = 1.959964: classic textbook interval
    lo, hi = wilson_interval(8, 10)
    assert lo == pytest.approx(0.49016, abs=1e-4)
    assert hi == pytest.approx(0.94335, abs=1e-4)


def test_trial_seed_streams_differ():
    a = np.random.default_rng(trial_seed(7, 0)).random(4)
    b = np.random.default_rng(trial_seed(7, 1)).random(4)
    c = np.random.default_rng(trial_seed(7, 0)).random(4)
    assert not np.allclose(a, b)
    assert np.allclose(a, c)


@pytest.mark.parametrize("seed", [0, 41, 2**32 + 3, 2**130 + 5])
def test_trial_keys_match_seed_sequence(seed):
    trials = [0, 1, 7, 10**6, 2**32 - 1, 2**32, 2**40 + 9]
    keys = trial_keys(seed, trials)
    assert keys.dtype == np.uint64 and keys.shape == (len(trials), 2)
    for trial, key in zip(trials, keys):
        assert key.tolist() == trial_seed(seed, trial).generate_state(
            2, np.uint64).tolist()
    with pytest.raises(ValueError):
        trial_keys(seed, [3, -1])
    with pytest.raises(ValueError):
        trial_keys(-1, [0])


@pytest.mark.parametrize("seed", [0, 41, 2**32 + 3])
def test_trial_streams_match_numpy(seed):
    # the sources share one Philox; drawing from them in turn crosses
    # every buffer refill (fills of 32, 32, 64, ..., 1024 uniforms)
    trials = [0, 7, 10**6]
    sources = list(_trial_uniforms(seed, trials))
    got = [[], [], []]
    for _ in range(3000):
        for k, u in enumerate(sources):
            got[k].append(u())
    for trial, draws in zip(trials, got):
        expected = np.random.Generator(
            np.random.Philox(trial_seed(seed, trial))).random(3000)
        assert draws == expected.tolist()
        assert all(type(v) is float for v in draws)


def test_first_event_distribution(model):
    # constant total rate b + D = 3: the first event time is Exp(3) and a
    # division (the trial's survival at gen_limit=1) has chance 2/3
    limits = SimulationLimits(gen_limit=1)
    outs = [simulate(model, 1.0, 1.0, 0.4, limits=limits, seed=5, trial=t)
            for t in range(4000)]
    assert np.mean([o.time for o in outs]) == pytest.approx(1.0 / 3.0, abs=0.02)
    assert np.mean([o.survived for o in outs]) == pytest.approx(2.0 / 3.0,
                                                                abs=0.03)


@pytest.mark.parametrize("family, beta", [
    ("uniform", 0.0), ("beta_ramp", 0.5), ("beta_ramp", 2.0),
    ("equal_mitosis", 0.0), ("asymmetric_debug", 0.0)])
@pytest.mark.parametrize("l0, l1", [(0.25, 0.0), (0.1, 0.3), (0.45, -0.45)])
def test_fraction_sampler_is_the_inverse_cdf(family, beta, l0, l1):
    # the trial engine draws fractions through this closure, not through
    # the kernel's inverse_cdf or sample
    k = DivisionKernel(family=family, l0=l0, l1=l1, beta=beta, max_mass=2.0)
    fraction_of = _make_fraction_sampler(k)
    rng = np.random.default_rng(7)
    us = np.concatenate([[0.0, 0.25, 0.5, 0.75], rng.random(200)])
    for m in (1e-3, 0.5, 1.0, 1.999):
        for u in us:
            assert abs(fraction_of(m, u) - k.inverse_cdf(m, u)) <= 2.2e-16


def test_simulate_deterministic(model):
    a = simulate(model, 1.0, 1.0, 0.5, seed=11, trial=3)
    b = simulate(model, 1.0, 1.0, 0.5, seed=11, trial=3)
    assert a == b
    c = simulate(model, 1.0, 1.0, 0.5, seed=11, trial=4)
    assert a != c


def test_estimate_deterministic_and_worker_independent(model):
    kw = dict(limits=SimulationLimits(gen_limit=60), seed=3)
    one = estimate_survival(model, 1.0, 1.0, 0.5, 600, workers=1, **kw)
    three = estimate_survival(model, 1.0, 1.0, 0.5, 600, workers=3, **kw)
    assert one.estimate == three.estimate
    assert one.n_survived == three.n_survived
    assert one.censored == three.censored


@pytest.mark.parametrize("S, D, gen_limit, seed, n, survived", [
    (1.0, 0.6, 200, 10, 400, 42),
    (2.0, 0.6, 200, 14, 400, 166),
    (16.0, 1.0, 1600, 27, 100, 1),
])
def test_logramp_counts_pinned(S, D, gen_limit, seed, n, survived):
    # cells of the LOGRAMP sweep at seed 1, where cell k has seed 1 + k;
    # the counts only move if the streams or the sampled events do. The
    # near-critical S=16 D=1.0 cell walks one trial of about 140k events
    model = benchmarks.logramp_model()
    est = estimate_survival(model, S, D, 0.5, n, seed=seed,
                            limits=SimulationLimits(gen_limit=gen_limit,
                                                    pop_cap=10_000))
    assert est.n_survived == survived
    assert est.censored == {"generation_limit": survived}


def test_supercritical_interval_contains_oracle(model):
    est = estimate_survival(model, 1.0, 1.0, 0.5, 4000, seed=0,
                            limits=SimulationLimits(gen_limit=200))
    assert est.wilson_low <= 0.5 <= est.wilson_high


def test_subcritical_all_extinct():
    m = benchmarks.constant_rate_model(b_bar=2.0, D=4.0)
    est = estimate_survival(m, 1.0, 4.0, 0.5, 1500, seed=1)
    assert est.n_survived == 0
    assert est.estimate == 0.0
    assert sum(est.censored.values()) == 0


def test_generation_limit_censor(model):
    out = simulate(model, 1.0, 1.0, 0.5, seed=2, trial=8,
                   limits=SimulationLimits(gen_limit=1, pop_cap=100))
    if out.survived:
        assert out.reason in ("generation_limit", "population_cap")
    # across many trials the survivors of this supercritical model are
    # all flagged as generation-limit censors
    est = estimate_survival(model, 1.0, 1.0, 0.5, 300, seed=2,
                            limits=SimulationLimits(gen_limit=1))
    assert est.censored.get("generation_limit", 0) == est.n_survived
    assert est.n_survived > 0


def test_population_cap_censor(model):
    est = estimate_survival(model, 1.0, 1.0, 0.5, 200, seed=4,
                            limits=SimulationLimits(gen_limit=10_000,
                                                    pop_cap=30))
    assert est.censored.get("population_cap", 0) > 0


def test_time_horizon_censor(model):
    limits = SimulationLimits(time_horizon=3.0)
    out = simulate(model, 1.0, 1.0, 0.5, seed=6, trial=0, limits=limits)
    assert out.time <= 3.0 + 1e-12
    est = estimate_survival(model, 1.0, 1.0, 0.5, 400, seed=6, limits=limits)
    assert est.censored.get("time_horizon", 0) == est.n_survived
    assert est.n_survived > 0


def test_distant_horizon_matches_no_horizon():
    # a subcritical tree dies out long before t = 1e6, so the horizon
    # changes nothing: same draws, same outcome
    m = benchmarks.constant_rate_model(b_bar=2.0, D=4.0)
    far = SimulationLimits(time_horizon=1e6)
    for t in range(300):
        assert (simulate(m, 1.0, 4.0, 0.5, limits=far, seed=9, trial=t)
                == simulate(m, 1.0, 4.0, 0.5, seed=9, trial=t))


def test_event_budget_censor(model):
    est = estimate_survival(model, 1.0, 1.0, 0.5, 100, seed=7,
                            limits=SimulationLimits(gen_limit=10_000,
                                                    max_events=50))
    assert est.censored.get("event_budget", 0) > 0


def test_immortal_censor():
    # no death and a division clock that can run dry along the flow
    m = ModelDefinition(
        max_mass=1.0, death_rate=0.0,
        growth=GrowthModel(family="logistic_monod", mu_max=1.0,
                           half_saturation=1.0),
        division=DivisionRateModel(family="ramp_down", b_bar=0.5,
                                   m_div=0.0, gamma=1.0),
        kernel=DivisionKernel(family="uniform", l0=0.25))
    est = estimate_survival(m, 1.0, 0.0, 0.9, 50, seed=8,
                            limits=SimulationLimits(gen_limit=10_000))
    assert est.censored.get("immortal", 0) > 0
    assert est.estimate == 1.0


def test_event_log_consistency(model):
    log = []
    out = simulate(model, 1.0, 1.0, 0.5, seed=12, trial=1,
                   limits=SimulationLimits(gen_limit=40), log=log)
    assert len(log) == out.divisions + out.deaths
    tags = [rec[2] for rec in log]
    assert tags.count(0) == out.divisions
    assert tags.count(1) == out.deaths
    # ids: root is 0, nobody acts twice, and each division mints the next
    # two ids in depth-first order. The log is sorted by time, so replay
    # that walk over the records: it must meet every record once, each
    # no earlier than its parent's division.
    by_id = {ident: (t, tag, frac) for t, ident, tag, frac in log}
    assert len(by_id) == len(log)
    stack = [(0, 0.0)]
    next_id = 1
    met = 0
    while stack:
        ident, born = stack.pop()
        if ident not in by_id:
            continue
        t, tag, frac = by_id[ident]
        met += 1
        assert t >= born
        if tag == 0:
            assert 0.25 <= frac <= 0.75      # uniform kernel support
            stack.append((next_id, t))
            stack.append((next_id + 1, t))
            next_id += 2
        else:
            assert math.isnan(frac)
    assert met == len(log)


def test_event_log_horizon_engine_chronological(model):
    log = []
    simulate(model, 1.0, 1.0, 0.5, seed=12, trial=1,
             limits=SimulationLimits(time_horizon=4.0), log=log)
    times = [rec[0] for rec in log]
    assert times == sorted(times)
    assert all(t <= 4.0 for t in times)


def events_before(model, S, D, x0, horizon, seed, trial):
    """Every event of a trial before the horizon, by a plain depth-first
    walk on the trial's stream that drops each lineage past the horizon."""
    sampler = JumpSampler(model, S, D)
    fraction_of = _make_fraction_sampler(model.kernel)
    u = np.random.Generator(np.random.Philox(trial_seed(seed, trial))).random
    stack, next_id, log = [(x0, 0.0, 0)], 1, []
    while stack:
        m, tb, ident = stack.pop()
        T, mT = sampler.event(m, -math.log1p(-u()))
        te = tb + T
        if te >= horizon:
            continue
        if u() * (sampler.b(mT) + D) < D:
            log.append((te, ident, 1, -1.0))
            continue
        a = fraction_of(mT, u())
        log.append((te, ident, 0, a))
        stack += [(a * mT, te, next_id), ((1.0 - a) * mT, te, next_id + 1)]
        next_id += 2
    return sorted(log)


def test_event_log_with_horizon_is_complete(model):
    limits = SimulationLimits(time_horizon=4.0)
    for t in range(200):
        log = []
        out = simulate(model, 1.0, 1.0, 0.5, limits=limits, seed=12, trial=t,
                       log=log)
        assert [(te, i, tag, -1.0 if tag else a) for te, i, tag, a in log] \
            == events_before(model, 1.0, 1.0, 0.5, 4.0, 12, t)
        assert out.survived == simulate(model, 1.0, 1.0, 0.5, limits=limits,
                                        seed=12, trial=t).survived


def test_outcome_status(model):
    out = simulate(model, 1.0, 4.0, 0.5, seed=1, trial=5)
    assert out.status in ("EXTINCT", "SURVIVED_CENSORED")
    assert (out.status == "EXTINCT") == (not out.survived)


def test_martingale_constant_model(model):
    sol = principal_eigenpair(model, 1.0, 1.0, grid_n=256)
    report = martingale_check(model, 1.0, 1.0, 0.5, sol, (0.5, 1.0),
                              n_trials=2000, seed=0)
    assert report.n_trials == 2000
    assert report.target == pytest.approx(1.0, abs=1e-6)
    assert report.max_abs_z < 4.0


def test_martingale_detects_wrong_eigenvalue(model):
    from dataclasses import replace
    sol = principal_eigenpair(model, 1.0, 1.0, grid_n=256)
    wrong = replace(sol, eigenvalue=sol.eigenvalue + 0.5)
    report = martingale_check(model, 1.0, 1.0, 0.5, wrong, (2.0,),
                              n_trials=2000, seed=0)
    assert report.max_abs_z > 4.0


def test_martingale_event_budget_raises(model):
    sol = principal_eigenpair(model, 1.0, 1.0, grid_n=64)
    with pytest.raises(RuntimeError):
        martingale_check(model, 1.0, 1.0, 0.5, sol, (1.0,), n_trials=20,
                         seed=0, max_events=1)
