"""The benchmark's workloads, driven through gfdlab's public API only.

A workload's constructor is its set-up: it writes its model files, loads
them with ``load_config`` and checks them with ``validate_assumptions``.
``round`` runs the workload's fixed work once and returns its outputs;
every round of a run does the same operations on the same inputs.
``op(name)`` brackets each operation so a traced run can attribute its
time; it yields a dict for figures the benchmark measures itself.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import replace

import numpy as np

# --- logramp-sweep: the user's unit of work, with the trial count cut
SWEEP_TRIALS = 100

# --- solver-ladder: Lambda to a stated accuracy, plus near-critical solves
LADDER_TOL = 1.5e-4          # Richardson estimate |Lambda_n - Lambda_{n/2}|
LADDER_START, LADDER_CAP = 256, 2048
LADDER_CELLS = (("LOGRAMP", 2.0, 0.6), ("CONSTANT", 1.0, 1.0))
NEAR_CRITICAL = (("CONSTANT", 1.0, 1.99), ("LOGRAMP", 0.25, 0.29))

# --- mc-paths: paths the sweep never takes
GENERIC_GAMMA = 2.0          # a ramp the fast sampler does not cover
GENERIC_CELL = (4.0, 0.3)
GENERIC_DRAWS = 200
GENERIC_TRIALS = 100
GENERIC_GEN_LIMIT = 2
HORIZON_CELL = (2.0, 0.6)
HORIZON = 5.0
HORIZON_TRIALS = 3000
MARTINGALE_CELL = (2.0, 0.6)
MARTINGALE_GRID = 256
MARTINGALE_TRIALS = 3000
CHECKPOINTS = (0.5, 1.0, 2.0)


def _load(gfdlab, work_dir, name, label=None, model=None, **simulation):
    """Write a builtin config as INI, load it back and validate it."""
    cfg = gfdlab.benchmarks.named_config(name)
    if model is not None:
        cfg = replace(cfg, model=model)
    cfg = replace(cfg, simulation=replace(cfg.simulation, **simulation))
    path = os.path.join(work_dir, f"{label or name.lower()}.ini")
    with open(path, "w") as fh:
        fh.write(gfdlab.write_config(cfg))
    cfg = gfdlab.load_config(path)
    report = gfdlab.validate_assumptions(cfg.model, cfg.env)
    failed = [f"{name}: assumption {c.name} fails" for c in report.failed()]
    return cfg, failed


def _x0(cfg):
    sim = cfg.simulation
    return sim.x0 if sim.x0 is not None else cfg.model.max_mass / 2.0


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class LogrampSweep:
    """run_sweep over the 32-cell LOGRAMP lattice, writing its outputs."""

    ops_per_round = 32
    calibrated = False

    def __init__(self, gfdlab, work_dir, seed):
        self.gfdlab = gfdlab
        self.out = os.path.join(work_dir, "sweep")
        self.cfg, self.setup_failures = _load(
            gfdlab, work_dir, "LOGRAMP", trials=SWEEP_TRIALS, seed=seed,
            workers=1)

    def round(self, op):
        shutil.rmtree(self.out, ignore_errors=True)
        with op("sweep") as attrs:
            result = self.gfdlab.run_sweep(self.cfg, out_dir=self.out)
            attrs["bytes_written"] = _dir_bytes(self.out)
        with open(os.path.join(self.out, "sweep.csv")) as fh:
            return result.rows, fh.read()

    def failed(self, output):
        return sum(not row.converged for row in output[0])

    def check(self, outputs):
        import checks
        bad = list(self.setup_failures)
        bias = self.gfdlab.cli.CENSOR_BIAS_TOL
        for rows, csv_text in outputs:
            bad += checks.sweep_csv_matches(csv_text, rows)
            table = {(r.S, r.D): (r.eigenvalue, r.p_x0) for r in rows}
            bad += checks.sign_rule(
                (f"S={r.S!r} D={r.D!r}", r.eigenvalue, r.p_x0) for r in rows)
            bad += checks.monotonicity(table)
            bad += checks.shift_identity(table)
            for r in rows:
                bad += checks.binomial_band(
                    f"MC S={r.S!r} D={r.D!r}", r.survived, r.trials,
                    1.0 - r.p_x0, 1.0 - r.p_x0 + bias)
        return bad


class SolverLadder:
    """Deterministic solves: Lambda to a stated accuracy, near-critical p."""

    ops_per_round = len(LADDER_CELLS) + len(NEAR_CRITICAL)
    calibrated = False

    def __init__(self, gfdlab, work_dir, seed):
        # deterministic: the seed changes nothing here
        self.gfdlab = gfdlab
        self.cfgs = {}
        self.setup_failures = []
        for name in ("LOGRAMP", "CONSTANT"):
            self.cfgs[name], bad = _load(gfdlab, work_dir, name)
            self.setup_failures += bad

    def _ladder(self, name, S, D):
        cfg = self.cfgs[name]
        solver = cfg.solver
        lambdas, n = [], LADDER_START
        while n <= LADDER_CAP:
            sol = self.gfdlab.principal_eigenpair(
                cfg.model, S, D, grid_n=n, tol=solver.power_tol,
                max_iter=solver.power_max_iter)
            lambdas.append(sol.eigenvalue)
            if len(lambdas) > 1 and abs(lambdas[-1] - lambdas[-2]) < LADDER_TOL:
                return lambdas, True
            n *= 2
        return lambdas, False

    def round(self, op):
        ladders, profiles = [], []
        for name, S, D in LADDER_CELLS:
            with op(f"ladder-{name}"):
                ladders.append(self._ladder(name, S, D))
        for name, S, D in NEAR_CRITICAL:
            cfg = self.cfgs[name]
            solver = cfg.solver
            with op(f"extinction-{name}"):
                profiles.append(self.gfdlab.solve_extinction(
                    cfg.model, S, D, grid_n=solver.grid_n,
                    tol=solver.extinction_tol,
                    max_generations=solver.max_generations,
                    alpha_nodes=solver.alpha_nodes))
        return ladders, profiles

    def failed(self, output):
        ladders, profiles = output
        return (sum(not met for _, met in ladders)
                + sum(p.tag != "fixed_point" for p in profiles))

    def check(self, outputs):
        import checks
        bad = list(self.setup_failures)
        const = self.cfgs["CONSTANT"].model
        b_bar = const.division.b_bar
        for ladders, profiles in outputs:
            for (name, S, D), (lambdas, _) in zip(LADDER_CELLS, ladders):
                bad += checks.refinement_shrinks(f"ladder {name}", lambdas)
                if name == "CONSTANT":
                    for lam in lambdas:
                        bad += checks.close_to("CONSTANT Lambda", lam, b_bar - D)
            for (name, S, D), prof in zip(NEAR_CRITICAL, profiles):
                if prof.tag != "fixed_point":
                    continue    # counted as a failed operation
                p = prof.at(_x0(self.cfgs[name]))
                if name == "CONSTANT":
                    bad += checks.close_to(f"CONSTANT p D={D!r}", p,
                                           min(1.0, D / b_bar))
                else:
                    lam = self.gfdlab.principal_eigenpair(
                        self.cfgs[name].model, S, D,
                        grid_n=self.cfgs[name].solver.grid_n).eigenvalue
                    bad += checks.sign_rule([(f"{name} S={S!r} D={D!r}", lam, p)])
        return bad


class McPaths:
    """Monte Carlo and flow paths the sweep never takes."""

    ops_per_round = 4
    # Interpreter-bound and short: its rounds are timed against the host
    # speed probe (see run.py), which the long, partly BLAS-bound rounds
    # of the other workloads do not need and would track badly.
    calibrated = True

    def __init__(self, gfdlab, work_dir, seed):
        self.gfdlab = gfdlab
        self.seed = seed
        self.lr, bad = _load(gfdlab, work_dir, "LOGRAMP", seed=seed, workers=1)
        lr = self.lr.model
        generic = replace(lr, division=replace(lr.division, gamma=GENERIC_GAMMA))
        self.generic, bad2 = _load(gfdlab, work_dir, "LOGRAMP", "generic",
                                   model=generic, seed=seed, workers=1)
        self.setup_failures = bad + bad2
        # Stratified draws: one uniform per stratum of starting mass and of
        # the exponential's quantile, paired by a random permutation. Every
        # seed then asks the sampler for work of nearly the same make-up,
        # which keeps the seed out of the round's time; the KS test on
        # stratified draws is conservative.
        rng = np.random.default_rng(seed)
        strata = (np.arange(GENERIC_DRAWS) + rng.random((2, GENERIC_DRAWS)))
        strata /= GENERIC_DRAWS
        self.starts = (0.05 + 0.9 * strata[0]).tolist()
        self.draws = (-np.log1p(-rng.permutation(strata[1]))).tolist()

    def round(self, op):
        g = self.gfdlab
        sim = self.lr.simulation
        x0 = _x0(self.lr)
        with op("generic-events"):
            sampler = g.JumpSampler(self.generic.model, *GENERIC_CELL)
            times = [sampler.event(x, E)[0]
                     for x, E in zip(self.starts, self.draws)]
        with op("generic-survival"):
            generic = g.estimate_survival(
                self.generic.model, *GENERIC_CELL, x0, GENERIC_TRIALS,
                limits=g.SimulationLimits(gen_limit=GENERIC_GEN_LIMIT,
                                          pop_cap=sim.pop_cap),
                seed=self.seed)
        with op("horizon-survival"):
            horizon = g.estimate_survival(
                self.lr.model, *HORIZON_CELL, x0, HORIZON_TRIALS,
                limits=g.SimulationLimits(gen_limit=sim.gen_limit,
                                          pop_cap=sim.pop_cap,
                                          time_horizon=HORIZON),
                seed=self.seed)
        with op("martingale"):
            sol = g.principal_eigenpair(self.lr.model, *MARTINGALE_CELL,
                                        grid_n=MARTINGALE_GRID)
            mart = g.martingale_check(self.lr.model, *MARTINGALE_CELL, x0, sol,
                                      CHECKPOINTS, n_trials=MARTINGALE_TRIALS,
                                      seed=self.seed)
        return times, generic, horizon, mart

    def failed(self, output):
        return 0

    def check(self, outputs):
        import checks
        g = self.gfdlab
        bad = list(self.setup_failures)
        x0 = _x0(self.lr)
        model = self.generic.model
        S, D = GENERIC_CELL
        rate = dict(M=model.max_mass, r=float(model.growth.mu(S)),
                    b_top=model.division.b_bar * float(model.division.multiplier(S)),
                    m_div=model.division.m_div, gamma=model.division.gamma, D=D)
        prof, curve = g.generation_curve(model, S, D, x0, [GENERIC_GEN_LIMIT])
        p_generic = prof.at(x0)
        p_horizon = g.solve_extinction(self.lr.model, *HORIZON_CELL).at(x0)
        for times, generic, horizon, mart in outputs:
            bad += checks.event_times_ks("generic event times", self.starts,
                                         times, rate)
            bad += checks.binomial_band(
                "generic MC", generic.n_survived, generic.n_trials,
                1.0 - p_generic, 1.0 - curve[GENERIC_GEN_LIMIT])
            bad += checks.at_least("horizon MC", horizon.n_survived,
                                   horizon.n_trials, 1.0 - p_horizon)
            bad += checks.z_within("martingale", mart.z)
        return bad


WORKLOADS = {
    "logramp-sweep": LogrampSweep,
    "solver-ladder": SolverLadder,
    "mc-paths": McPaths,
}
