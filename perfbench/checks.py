"""Checks of gfdlab's outputs that need no stored copy of earlier output.

Each check returns a list of failure messages; an empty list passes.
They test properties the method must have (the paper's sign rule and
monotonicity, the shift identity, convergence under refinement), closed
forms the benchmark computes itself, and agreement between independent
paths (Monte Carlo against the extinction fixed point, sampled event
times against a rate integrated here along the closed-form flow).

Statistical checks reject at a per-tail level ``ALPHA``; the README
adds these up into a false-alarm rate per run.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import integrate, stats

EPS_LAMBDA = 1e-4   # |Lambda| at or below this is not classified
EPS_P = 1e-4        # survival at or below this counts as zero
ALPHA = 1e-7        # per-tail false-alarm level of each statistical check
MONOTONE_SLACK = 1e-8   # the extinction iteration stops at tol 1e-8
SHIFT_TOL = 1e-9        # ten times the power iteration's residual tolerance
ORACLE_TOL = 1e-6
Z_LIMIT = 4.0


def sign_rule(cells, eps_lambda=EPS_LAMBDA, eps_p=EPS_P):
    """Lambda > 0 iff survival 1 - p(x0) > 0, outside the |Lambda| band.

    ``cells`` holds (label, Lambda, p_x0) triples.
    """
    bad = []
    for label, lam, p in cells:
        survival = 1.0 - p
        if lam > eps_lambda and not survival > eps_p:
            bad.append(f"sign rule {label}: Lambda={lam!r} > 0 but "
                       f"survival={survival!r}")
        elif lam < -eps_lambda and not survival < eps_p:
            bad.append(f"sign rule {label}: Lambda={lam!r} < 0 but "
                       f"survival={survival!r}")
    return bad


def monotonicity(table, slack=MONOTONE_SLACK):
    """The paper's theorem on the (S, D) lattice.

    ``table`` maps (S, D) to (Lambda, p_x0). Lambda must not decrease
    in S; p(x0) must not increase in S nor decrease in D.
    """
    s_values = sorted({s for s, _ in table})
    d_values = sorted({d for _, d in table})
    bad = []
    for D in d_values:
        for s1, s2 in zip(s_values, s_values[1:]):
            (lam1, p1), (lam2, p2) = table[(s1, D)], table[(s2, D)]
            if lam1 > lam2 + slack:
                bad.append(f"Lambda decreases in S at D={D!r}: "
                           f"S={s1!r} {lam1!r} > S={s2!r} {lam2!r}")
            if p2 > p1 + slack:
                bad.append(f"p(x0) increases in S at D={D!r}: "
                           f"S={s1!r} {p1!r} < S={s2!r} {p2!r}")
    for S in s_values:
        for d1, d2 in zip(d_values, d_values[1:]):
            p1, p2 = table[(S, d1)][1], table[(S, d2)][1]
            if p1 > p2 + slack:
                bad.append(f"p(x0) decreases in D at S={S!r}: "
                           f"D={d1!r} {p1!r} > D={d2!r} {p2!r}")
    return bad


def shift_identity(table, tol=SHIFT_TOL):
    """Lambda(S, D1) - Lambda(S, D2) = D2 - D1, so Lambda + D is flat in D."""
    bad = []
    for S in sorted({s for s, _ in table}):
        shifted = [table[(s, d)][0] + d for s, d in sorted(table) if s == S]
        gap = max(shifted) - min(shifted)
        if gap > tol:
            bad.append(f"shift identity at S={S!r}: Lambda + D spreads "
                       f"{gap:.3e} > {tol:.0e}")
    return bad


def binomial_band(label, survived, trials, low, high, alpha=ALPHA):
    """A survival count must fit Binomial(trials, s) for some s in [low, high].

    ``low`` is the survival 1 - p(x0) the fixed point gives and ``high``
    adds the censor bias bound: censored trials count as survivors, so
    the estimate can only sit above the true survival.
    """
    low, high = min(max(low, 0.0), 1.0), min(max(high, 0.0), 1.0)
    bad = []
    if stats.binom.sf(survived - 1, trials, high) < alpha:
        bad.append(f"{label}: {survived}/{trials} survived, above the "
                   f"band [{low!r}, {high!r}]")
    if stats.binom.cdf(survived, trials, low) < alpha:
        bad.append(f"{label}: {survived}/{trials} survived, below the "
                   f"band [{low!r}, {high!r}]")
    return bad


def at_least(label, survived, trials, low, alpha=ALPHA):
    """Survival to a finite horizon is at least eventual survival ``low``."""
    low = min(max(low, 0.0), 1.0)
    if stats.binom.cdf(survived, trials, low) < alpha:
        return [f"{label}: {survived}/{trials} survived, below {low!r}"]
    return []


def close_to(label, value, expected, tol=ORACLE_TOL):
    """A computed value against a closed form evaluated here."""
    if not abs(value - expected) <= tol:
        return [f"{label}: {value!r} differs from {expected!r} by "
                f"{abs(value - expected):.3e} > {tol:.0e}"]
    return []


def refinement_shrinks(label, lambdas, floor=1e-10):
    """Successive differences of Lambda on a doubling ladder must shrink.

    Differences at or below ``floor`` are rounding, not grid error, and
    are not compared.
    """
    diffs = [abs(b - a) for a, b in zip(lambdas, lambdas[1:])]
    bad = []
    for d1, d2 in zip(diffs, diffs[1:]):
        if d1 > floor and not d2 < d1:
            bad.append(f"{label}: Lambda differences {diffs} do not shrink")
            break
    return bad


def logistic_flow(x, t, M, r):
    """Closed-form mass after time t under g = r x (1 - x/M)."""
    return M / (1.0 + (M - x) / x * math.exp(-r * t))


def cumulated_rate(x, T, M, r, b_top, m_div, gamma, D):
    """int_0^T (b + D) along the logistic flow from x, b a power ramp."""
    def b(t):
        m = logistic_flow(x, t, M, r)
        return b_top * max(0.0, (m - m_div) / (M - m_div)) ** gamma

    # b is zero until the flow crosses m_div; integrate from there
    t_div = 0.0
    if x < m_div:
        t_div = (math.log(m_div / (M - m_div)) - math.log(x / (M - x))) / r
    ib = 0.0
    if T > t_div:
        ib, _ = integrate.quad(b, t_div, T, epsabs=1e-12, epsrel=1e-10,
                               limit=200)
    return ib + D * T


def event_times_ks(label, starts, times, rate, alpha=ALPHA):
    """KS test of event times against F(T) = 1 - exp(-int_0^T (b + D)).

    ``rate`` holds the keyword arguments of ``cumulated_rate`` other
    than x and T.
    """
    u = [1.0 - math.exp(-cumulated_rate(x, T, **rate))
         for x, T in zip(starts, times)]
    p = stats.kstest(u, "uniform").pvalue
    if p < alpha:
        return [f"{label}: KS p-value {p:.3e} < {alpha:.0e}"]
    return []


def z_within(label, z, limit=Z_LIMIT):
    """Every studentized martingale deviation within +-limit."""
    worst = float(np.max(np.abs(z)))
    if not worst <= limit:
        return [f"{label}: max |z| = {worst:.3f} > {limit}"]
    return []


def sweep_csv_matches(text, rows):
    """sweep.csv holds one row per cell, equal to what run_sweep returned."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    table = list(csv.DictReader(lines))
    if len(table) != len(rows):
        return [f"sweep.csv: {len(table)} rows, expected {len(rows)}"]
    bad = []
    for rec, row in zip(table, rows):
        got = (float(rec["S"]), float(rec["D"]), float(rec["lambda"]),
               float(rec["p_x0"]), int(rec["survived"]))
        want = (row.S, row.D, row.eigenvalue, row.p_x0, row.survived)
        if got != want:
            bad.append(f"sweep.csv row {got} differs from the result {want}")
    return bad
