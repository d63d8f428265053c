"""Monte Carlo branching simulation of the growth-division-death process.

Each cell grows along the flow, divides at rate b into fractions drawn
from the kernel, or dies at rate D. Survival questions only need the
genealogy, so one engine runs every trial depth first over lineages with
O(tree depth) memory. Generation and pending-population caps censor
trials that are effectively immortal, and censored trials count as
survival (from a cap of pending lineages the chance that all of them die
out is negligible for any supercritical model, and the generation cap
estimates survival to that generation, which converges to the true
survival probability). A time horizon asks for survival to that time: a
lineage alive at the horizon ends the trial as survival. Martingale
checkpoints and event logs are read off the same walk, which then
follows every lineage up to the last checkpoint or the horizon.

Randomness: one Philox stream per trial, derived from the master seed by
the counter construction SeedSequence(seed, spawn_key=(trial,)), so any
worker can reproduce any trial and results do not depend on how trials
are distributed over workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .flow import JumpSampler

_INF = math.inf
_WILSON_Z = 1.959963984540054   # two-sided 95%


@dataclass(frozen=True)
class SimulationLimits:
    """Censoring policy: any limit reached stops the trial as survival."""

    gen_limit: int = 200
    pop_cap: int = 10000
    time_horizon: float | None = None
    max_events: int = 10_000_000


@dataclass
class SimulationOutcome:
    """End state of one trial.

    Extinct trials report the first empty generation and the time the
    last cell died. Censored trials report the censor reason, the deepest
    generation seen, and in ``final_size`` the number of lineages still
    pending in the depth-first walk when it stopped, for every reason,
    ``time_horizon`` included; a trial with an event log walks on past the
    horizon and reports the population alive there instead.
    """

    survived: bool
    reason: str | None
    generation: int
    time: float
    final_size: int
    divisions: int
    deaths: int

    @property
    def status(self):
        return "SURVIVED_CENSORED" if self.survived else "EXTINCT"


@dataclass
class SurvivalEstimate:
    estimate: float
    wilson_low: float
    wilson_high: float
    n_trials: int
    n_survived: int
    censored: dict
    seed: int
    limits: SimulationLimits


@dataclass
class MartingaleReport:
    """Compensated weighted-population means against their target.

    At each checkpoint t the statistic exp(-Lambda t) sum_i v(X_i)
    should average to v(x0); ``z`` holds the studentized deviations.
    """

    checkpoints: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    z: np.ndarray
    target: float
    n_trials: int
    eigenvalue: float

    @property
    def max_abs_z(self):
        return float(np.max(np.abs(self.z)))


def wilson_interval(successes, n, z=_WILSON_Z):
    """Two-sided Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    # at 0 or n successes, center and half agree exactly in exact
    # arithmetic; pin the touching endpoint so rounding cannot leak past it
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


class _Draws:
    """Buffered uniforms from one Philox stream; refills in blocks."""

    __slots__ = ("gen", "buf", "i")

    def __init__(self, seed_seq, block=256):
        self.gen = np.random.Generator(np.random.Philox(seed_seq))
        self.buf = self.gen.random(block)
        self.i = 0

    def u(self):
        i = self.i
        buf = self.buf
        if i >= buf.shape[0]:
            self.buf = buf = self.gen.random(buf.shape[0])
            i = 0
        self.i = i + 1
        return buf[i]


def trial_seed(seed, trial):
    """Counter-style per-trial stream: SeedSequence(seed, spawn_key=(trial,))."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(trial,))


def _make_fraction_sampler(kernel):
    """Scalar closure mapping (parent mass, uniform) to a daughter fraction."""
    fam = kernel.family
    if fam == "equal_mitosis":
        return lambda m, u: 0.5
    if fam == "asymmetric_debug":
        return lambda m, u: 0.5 * u
    l0, l1, M = kernel.l0, kernel.l1, kernel.max_mass
    if fam == "uniform":
        if l1 == 0.0:
            l = l0

            def sample(m, u, l=l):
                return (1.0 - 2.0 * u) * l + u
        else:
            def sample(m, u):
                l = l0 + l1 * m / M
                return (1.0 - 2.0 * u) * l + u
        return sample
    p = 1.0 / (kernel.beta + 1.0)

    def sample(m, u):
        l = l0 + l1 * m / M
        s = 0.5 - l
        if u <= 0.5:
            return l + s * (2.0 * u) ** p
        return 1.0 - l - s * (2.0 * (1.0 - u)) ** p

    return sample


def _run_trial(sampler, fraction_of, x0, limits, draws, log=None, visit=None):
    """Depth-first trial over lineages.

    A lineage whose next event falls at or past the time horizon is alive
    at the horizon and stops the trial as survival; with no horizon that
    only happens to a cell that will never have another event. With an
    event ``log`` or with ``visit(m, tb, te)``, which is shown every cell
    (mass at birth, birth and event times), a lineage past a finite
    horizon is dropped instead, so the walk sees every event before the
    horizon; the outcome then counts the lineages alive at the horizon.
    """
    D = sampler.D
    gen_limit = limits.gen_limit
    pop_cap = limits.pop_cap
    max_events = limits.max_events
    horizon = _INF if limits.time_horizon is None else limits.time_horizon
    event = sampler.event
    brate = sampler.b
    u = draws.u
    log1p = math.log1p
    stack = [(x0, 0, 0.0, 0)]
    push = stack.append
    pop = stack.pop
    next_id = 1
    divisions = deaths = 0
    max_gen = 0
    t_last = 0.0
    events = 0
    walk_on = horizon < _INF and (log is not None or visit is not None)
    alive = 0   # lineages dropped at the horizon
    while stack:
        m, gen, tb, ident = pop()
        events += 1
        if events > max_events:
            return SimulationOutcome(True, "event_budget", max_gen, tb,
                                     len(stack) + 1, divisions, deaths)
        T, mT = event(m, -log1p(-u()))
        te = tb + T
        if visit is not None:
            visit(m, tb, te)
        if te >= horizon:
            if walk_on:
                alive += 1
                continue
            if horizon == _INF:
                return SimulationOutcome(True, "immortal", max_gen, tb,
                                         len(stack) + 1, divisions, deaths)
            return SimulationOutcome(True, "time_horizon", max_gen, horizon,
                                     len(stack) + 1, divisions, deaths)
        bT = brate(mT)
        if u() * (bT + D) < D:
            deaths += 1
            if te > t_last:
                t_last = te
            if log is not None:
                log.append((te, ident, 1, float("nan")))
            continue
        divisions += 1
        gen += 1
        if gen > max_gen:
            max_gen = gen
        if gen >= gen_limit:
            return SimulationOutcome(True, "generation_limit", max_gen, te,
                                     len(stack) + 2, divisions, deaths)
        a = fraction_of(mT, u())
        if log is not None:
            log.append((te, ident, 0, a))
        push((a * mT, gen, te, next_id))
        push(((1.0 - a) * mT, gen, te, next_id + 1))
        next_id += 2
        if len(stack) > pop_cap:
            return SimulationOutcome(True, "population_cap", max_gen, te,
                                     len(stack), divisions, deaths)
    if alive:
        return SimulationOutcome(True, "time_horizon", max_gen, horizon,
                                 alive, divisions, deaths)
    return SimulationOutcome(False, None, max_gen + 1, t_last, 0,
                             divisions, deaths)


def simulate(model, S, D, x0, limits=None, seed=0, trial=0, sampler=None,
             log=None):
    """Run one trial; the (seed, trial) pair fixes the random stream.

    ``log``, if given, is a list collecting one record per realized
    event, sorted by time: (time, individual id, tag, fraction) with tag
    0 for division (fraction is the sampled daughter ratio) and 1 for
    death (fraction is nan). Ids count individuals in depth-first
    traversal order from the root 0.
    """
    if limits is None:
        limits = SimulationLimits()
    if sampler is None:
        sampler = JumpSampler(model, S, D)
    out = _run_trial(sampler, _make_fraction_sampler(model.kernel), x0, limits,
                     _Draws(trial_seed(seed, trial)), log)
    if log is not None:
        log.sort(key=lambda rec: rec[0])
    return out


def _survival_chunk(args):
    model, S, D, x0, limits, seed, start, stop = args
    sampler = JumpSampler(model, S, D)
    fraction_of = _make_fraction_sampler(model.kernel)
    survived = 0
    censored = {}
    for trial in range(start, stop):
        out = _run_trial(sampler, fraction_of, x0, limits,
                         _Draws(trial_seed(seed, trial)))
        if out.survived:
            survived += 1
            censored[out.reason] = censored.get(out.reason, 0) + 1
    return survived, censored


def estimate_survival(model, S, D, x0, n_trials, limits=None, seed=0,
                      workers=1):
    """Monte Carlo survival probability with a Wilson 95% interval.

    Censored trials (any limit reached) count as survivals and their
    reasons are tallied in ``censored``. The result is identical for any
    worker count because every trial owns stream (seed, trial index).
    """
    if limits is None:
        limits = SimulationLimits()
    chunks = []
    n_chunks = max(1, min(n_trials, workers * 4))
    bounds = np.linspace(0, n_trials, n_chunks + 1).astype(int)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            chunks.append((model, S, D, x0, limits, seed, int(a), int(b)))
    survived = 0
    censored = {}
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_survival_chunk, chunks))
    else:
        results = [_survival_chunk(c) for c in chunks]
    for s, cens in results:
        survived += s
        for key, cnt in cens.items():
            censored[key] = censored.get(key, 0) + cnt
    low, high = wilson_interval(survived, n_trials)
    return SurvivalEstimate(
        estimate=survived / n_trials, wilson_low=low, wilson_high=high,
        n_trials=n_trials, n_survived=survived, censored=censored,
        seed=seed, limits=limits)


def martingale_check(model, S, D, x0, solution, checkpoints, n_trials,
                     seed=0, max_events=200_000):
    """Empirical test that exp(-Lambda t) sum_i v(X_t^i) keeps its mean.

    ``solution`` provides the eigenvalue and the adjoint weight v (from
    a spectral solve). Each trial walks every lineage up to the last
    checkpoint; a cell born at tb with event at te contributes v(mass at
    c) to every checkpoint c in [tb, te). Returns studentized deviations
    from v(x0) per checkpoint; a trial that needs more than
    ``max_events`` events raises RuntimeError.
    """
    lam = solution.eigenvalue
    grid_x = solution.grid.x
    vvals = solution.v
    cps = np.sort(np.asarray(checkpoints, dtype=float))
    sampler = JumpSampler(model, S, D)
    fraction_of = _make_fraction_sampler(model.kernel)
    limits = SimulationLimits(gen_limit=_INF, pop_cap=_INF,
                              time_horizon=float(cps[-1]),
                              max_events=max_events)
    n_cp = cps.size
    sums = np.zeros((n_trials, n_cp))

    def visit(m, tb, te):
        for k in range(n_cp):
            c = cps[k]
            if c < tb:
                continue
            if c >= te:
                break
            acc[k] += np.interp(sampler.mass_after(m, c - tb), grid_x, vvals)

    for trial in range(n_trials):
        acc = sums[trial]
        out = _run_trial(sampler, fraction_of, x0, limits,
                         _Draws(trial_seed(seed, trial)), visit=visit)
        if out.reason == "event_budget":
            raise RuntimeError("martingale trial exceeded the event budget")
    weights = np.exp(-lam * cps)
    stats = sums * weights[None, :]
    target = float(np.interp(x0, grid_x, vvals))
    means = stats.mean(axis=0)
    stds = stats.std(axis=0, ddof=1)
    se = stds / math.sqrt(n_trials)
    z = (means - target) / np.where(se > 0, se, np.inf)
    return MartingaleReport(checkpoints=cps, means=means, stds=stds, z=z,
                            target=target, n_trials=n_trials, eigenvalue=lam)
