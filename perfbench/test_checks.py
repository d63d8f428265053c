"""Each output check of the benchmark passes good input and rejects bad.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checks  # noqa: E402


@pytest.fixture(scope="module")
def lattice():
    """(S, D) -> (Lambda, p) on a lattice that obeys every claim.

    Lambda rises with S and shifts exactly with D; p falls with S and
    rises with D, and is 1 wherever Lambda < 0.
    """
    table = {}
    for i, S in enumerate((0.5, 1.0, 2.0)):
        for D in (0.3, 0.6, 1.0):
            lam = 0.1 * i + 0.5 - D
            table[(S, D)] = (lam, 1.0 if lam < 0 else 0.3 + 0.2 * D - 0.1 * i)
    return table


def _cells(table):
    return [(f"S={S} D={D}", lam, p) for (S, D), (lam, p) in table.items()]


def test_sign_rule(lattice):
    assert checks.sign_rule(_cells(lattice)) == []
    flipped = dict(lattice)
    lam, p = flipped[(2.0, 0.3)]
    flipped[(2.0, 0.3)] = (lam, 1.0)          # survival sign flipped
    assert checks.sign_rule(_cells(flipped))
    flipped[(2.0, 0.3)] = (-lam, p)           # Lambda sign flipped
    assert checks.sign_rule(_cells(flipped))


def test_sign_rule_leaves_the_band_unclassified():
    assert checks.sign_rule([("edge", 0.5 * checks.EPS_LAMBDA, 1.0)]) == []


def test_monotonicity(lattice):
    assert checks.monotonicity(lattice) == []
    bad = dict(lattice)
    bad[(1.0, 0.6)] = (bad[(0.5, 0.6)][0] - 1e-3, bad[(1.0, 0.6)][1])
    assert any("Lambda decreases in S" in m for m in checks.monotonicity(bad))
    bad = dict(lattice)
    bad[(2.0, 0.3)] = (bad[(2.0, 0.3)][0], bad[(1.0, 0.3)][1] + 1e-3)
    assert any("increases in S" in m for m in checks.monotonicity(bad))
    bad = dict(lattice)
    bad[(1.0, 0.3)] = (bad[(1.0, 0.3)][0], bad[(1.0, 0.6)][1] + 1e-3)
    assert any("decreases in D" in m for m in checks.monotonicity(bad))


def test_shift_identity(lattice):
    assert checks.shift_identity(lattice) == []
    bad = dict(lattice)
    lam, p = bad[(1.0, 0.6)]
    bad[(1.0, 0.6)] = (lam + 1e-3, p)
    assert checks.shift_identity(bad)


def test_binomial_band():
    assert checks.binomial_band("fair", 500, 1000, 0.5, 0.5) == []
    assert checks.binomial_band("bias", 505, 1000, 0.48, 0.52) == []
    assert checks.binomial_band("none", 0, 100, 5e-9, 5e-4) == []
    assert checks.binomial_band("high", 650, 1000, 0.5, 0.5005)
    assert checks.binomial_band("low", 350, 1000, 0.5, 0.5005)
    # a flipped survival sign: a dying cell whose trials all survive
    assert checks.binomial_band("flip", 100, 100, 0.0, 5e-4)


def test_at_least():
    assert checks.at_least("above", 600, 1000, 0.5) == []
    assert checks.at_least("below", 380, 1000, 0.5)


def test_close_to():
    assert checks.close_to("exact", 1.0 + 1e-9, 1.0) == []
    assert checks.close_to("shifted", 1.0 + 1e-3, 1.0)


def test_refinement_shrinks():
    first_order = [0.1837204, 0.1832396, 0.1829985, 0.1828766]
    assert checks.refinement_shrinks("ladder", first_order) == []
    assert checks.refinement_shrinks("rounding", [1.0, 1.0 + 1e-14, 1.0]) == []
    stalled = first_order[:3] + [first_order[2] - 3e-4]
    assert checks.refinement_shrinks("stalled", stalled)


def test_z_within():
    assert checks.z_within("calm", np.array([0.5, -1.2, 3.9])) == []
    assert checks.z_within("drift", np.array([0.5, -4.2, 1.0]))


def test_cumulated_rate_matches_a_constant_rate_closed_form():
    # m_div = 0 and gamma = 0 make b constant: the integral is (b + D) T
    got = checks.cumulated_rate(0.3, 1.7, M=1.0, r=1.0, b_top=2.0, m_div=0.0,
                                gamma=0.0, D=0.5)
    assert got == pytest.approx(2.5 * 1.7, rel=1e-10)


def test_event_times_ks():
    """Event times from gfdlab's sampler fit the rate integrated here."""
    import gfdlab
    model = gfdlab.benchmarks.logramp_model()
    S, D = 2.0, 0.6
    rng = np.random.default_rng(7)
    starts = rng.uniform(0.05, 0.95, 400)
    sampler = gfdlab.JumpSampler(model, S, D)
    times = [sampler.event(x, E)[0]
             for x, E in zip(starts, rng.exponential(1.0, starts.size))]
    div = model.division
    rate = dict(M=model.max_mass, r=float(model.growth.mu(S)),
                b_top=div.b_bar, m_div=div.m_div, gamma=div.gamma, D=D)
    assert checks.event_times_ks("right rate", starts, times, rate) == []
    wrong = dict(rate, b_top=2.0 * div.b_bar)
    assert checks.event_times_ks("wrong rate", starts, times, wrong)
    wrong = dict(rate, D=D + 1.0)
    assert checks.event_times_ks("wrong death rate", starts, times, wrong)


def test_sweep_csv_matches():
    class Row:
        def __init__(self, S, D, lam, p, survived):
            self.S, self.D, self.eigenvalue = S, D, lam
            self.p_x0, self.survived = p, survived

    rows = [Row(1.0, 0.3, 0.25, 0.5, 40), Row(1.0, 0.6, -0.05, 1.0, 0)]
    text = ("# gfdlab sweep config_hash=x x0=0.5\nS,D,lambda,p_x0,survived\n"
            + "".join(f"{r.S!r},{r.D!r},{r.eigenvalue!r},{r.p_x0!r},"
                      f"{r.survived}\n" for r in rows))
    assert checks.sweep_csv_matches(text, rows) == []
    rows[0].eigenvalue += 1e-3
    assert checks.sweep_csv_matches(text, rows)
    assert checks.sweep_csv_matches(text, rows[:1])


def test_logistic_flow_solves_its_equation():
    x, t, M, r, h = 0.2, 0.7, 1.0, 1.5, 1e-6
    m = checks.logistic_flow(x, t, M, r)
    slope = (checks.logistic_flow(x, t + h, M, r)
             - checks.logistic_flow(x, t - h, M, r)) / (2 * h)
    assert slope == pytest.approx(r * m * (1 - m / M), rel=1e-6)
    assert math.isclose(checks.logistic_flow(x, 0.0, M, r), x)
