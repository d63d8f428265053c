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
are distributed over workers. The keys of a chunk of trials are mixed at
once, and one Philox, pointed at a trial's key and counter at each buffer
fill, draws every stream.
"""

from __future__ import annotations

import math
import os
from array import array
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


def trial_seed(seed, trial):
    """Counter-style per-trial stream: SeedSequence(seed, spawn_key=(trial,))."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(trial,))


# SeedSequence's hash constants (numpy.random.bit_generator), on uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _mixed_keys(entropy):
    """Philox keys from SeedSequence's pool mix of uint32 entropy columns."""
    u32 = np.uint32
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ u32(h)
        h = h * _MULT_A & _MASK32
        value = value * u32(h)
        return value ^ (value >> u32(16))

    def mix(x, y):
        out = u32(_MIX_L) * x - u32(_MIX_R) * y
        return out ^ (out >> u32(16))

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for i in range(_POOL):
        for j in range(_POOL):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for word in entropy[_POOL:]:
        for j in range(_POOL):
            pool[j] = mix(pool[j], hashmix(word))
    h = _INIT_B
    state = []
    for word in pool:     # generate_state(2, np.uint64): 4 words, 2 keys
        word = word ^ u32(h)
        h = h * _MULT_B & _MASK32
        word = word * u32(h)
        state.append((word ^ (word >> u32(16))).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def trial_keys(seed, trials):
    """Philox keys of the trial streams, one row per trial.

    Row k equals trial_seed(seed, trials[k]).generate_state(2, np.uint64),
    the key that ``np.random.Philox(trial_seed(seed, trials[k]))`` takes;
    SeedSequence's mix runs once over the whole array of trials.
    """
    t = np.asarray(trials, dtype=np.int64).reshape(-1)
    if seed < 0 or (t.size and t.min() < 0):
        raise ValueError("expected non-negative integer")
    run = [seed & _MASK32]
    seed >>= 32
    while seed:
        run.append(seed & _MASK32)
        seed >>= 32
    run += [0] * (_POOL - len(run))
    lo, hi = (t & _MASK32).astype(np.uint32), (t >> 32).astype(np.uint32)
    keys = np.empty((t.size, 2), dtype=np.uint64)
    # a trial index below 2^32 is one entropy word, a larger one two
    for rows, words in ((hi == 0, [lo]), (hi != 0, [lo, hi])):
        n = int(rows.sum())
        if n:
            entropy = [np.full(n, w, dtype=np.uint32) for w in run]
            keys[rows] = _mixed_keys(entropy + [w[rows] for w in words])
    return keys


def _trial_uniforms(seed, trials):
    """Yield each trial's uniform source, in the order of ``trials``.

    A source is a no-argument callable returning the next draw of
    ``np.random.Generator(np.random.Philox(trial_seed(seed, trial))).random``
    as a Python float. The keys come from ``trial_keys``, and one Philox
    serves every trial: each buffer fill sets its key and counter.
    """
    bitgen = np.random.Philox(0)
    random = np.random.Generator(bitgen).random

    def stream(key):
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        counter = state["state"]["counter"]
        n = 32    # short trials stay cheap, long ones fill 1024 at a time
        while True:
            bitgen.state = state
            yield from random(n).tolist()
            counter[0] += n // 4    # a Philox block holds 4 uniforms
            n = min(2 * n, 1024)

    for key in trial_keys(seed, trials).tolist():
        yield stream(key).__next__


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


def _run_trial(sampler, fraction_of, x0, limits, u, log=None, visit=None):
    """Depth-first trial over lineages; ``u()`` draws the next uniform.

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
    u = next(_trial_uniforms(seed, [trial]))
    out = _run_trial(sampler, _make_fraction_sampler(model.kernel), x0, limits,
                     u, log)
    if log is not None:
        log.sort(key=lambda rec: rec[0])
    return out


def _survival_chunk(args):
    model, S, D, x0, limits, seed, start, stop = args
    sampler = JumpSampler(model, S, D)
    fraction_of = _make_fraction_sampler(model.kernel)
    survived = 0
    censored = {}
    for u in _trial_uniforms(seed, range(start, stop)):
        out = _run_trial(sampler, fraction_of, x0, limits, u)
        if out.survived:
            survived += 1
            censored[out.reason] = censored.get(out.reason, 0) + 1
    return survived, censored


def _worker_pool(workers):
    """A process pool of ``workers``, capped at the CPUs this process may use.

    The count comes from outside (``--threads``, ``GFDLAB_THREADS``,
    ``[simulation] workers``), and the pool forks a worker for each chunk
    submitted while none is idle. Counts do not depend on the cap.
    """
    return ProcessPoolExecutor(
        max_workers=min(workers, len(os.sched_getaffinity(0))))


def estimate_survival(model, S, D, x0, n_trials, limits=None, seed=0,
                      workers=1, pool=None):
    """Monte Carlo survival probability with a Wilson 95% interval.

    Censored trials (any limit reached) count as survivals and their
    reasons are tallied in ``censored``. The result is identical for any
    worker count because every trial owns stream (seed, trial index).
    Chunks of trials run on ``pool``, an executor the caller keeps open
    across calls, or else on a pool of ``workers`` processes started here
    when ``workers`` > 1.
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
    if pool is None and workers > 1 and len(chunks) > 1:
        with _worker_pool(workers) as pool:
            results = list(pool.map(_survival_chunk, chunks))
    else:
        results = list((map if pool is None else pool.map)(_survival_chunk,
                                                           chunks))
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
    c) to every checkpoint c in [tb, te). The walks collect (trial,
    checkpoint, mass); v is interpolated once and summed per trial and
    checkpoint in walk order. Returns studentized deviations from v(x0)
    per checkpoint; a trial that needs more than ``max_events`` events
    raises RuntimeError.
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
    cells, masses = array("q"), array("d")   # trial * n_cp + checkpoint, mass
    mass_after = sampler.mass_after

    def visit(m, tb, te):
        for k, c in enumerate(cp_list):
            if c < tb:
                continue
            if c >= te:
                break
            cells.append(row + k)
            masses.append(mass_after(m, c - tb))

    cp_list = cps.tolist()
    for trial, u in enumerate(_trial_uniforms(seed, range(n_trials))):
        row = trial * n_cp
        out = _run_trial(sampler, fraction_of, x0, limits, u, visit=visit)
        if out.reason == "event_budget":
            raise RuntimeError("martingale trial exceeded the event budget")
    sums = np.zeros((n_trials, n_cp))
    np.add.at(sums.reshape(-1), np.frombuffer(cells, dtype=np.int64),
              np.interp(np.frombuffer(masses), grid_x, vvals))
    weights = np.exp(-lam * cps)
    stats = sums * weights[None, :]
    target = float(np.interp(x0, grid_x, vvals))
    means = stats.mean(axis=0)
    stds = stats.std(axis=0, ddof=1)
    se = stds / math.sqrt(n_trials)
    z = (means - target) / np.where(se > 0, se, np.inf)
    return MartingaleReport(checkpoints=cps, means=means, stds=stds, z=z,
                            target=target, n_trials=n_trials, eigenvalue=lam)
