"""Command-line experiments: sweeps, consistency checks, reports.

``run_sweep`` computes, for every (S, D) cell of the configured
environment range, the principal eigenpair, the extinction profile,
and a Monte Carlo survival estimate, and renders one CSV row per cell.
``check_consistency`` classifies each row by the sign rule (positive
growth rate must come with positive survival and vice versa) and
``check_monotonicity`` tests the ordering claims across the grid.

The sweep CSV is byte-deterministic for a fixed config and seed: rows
are emitted in ladder order, floats are written with repr, and wall
times go to the side report only.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import struct
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import benchmarks
from .config import (ConfigError, config_hash, load_config,
                     validate_assumptions)
from .extinction import fixed_point_residual, generation_curve
from .simulate import (SimulationLimits, estimate_survival, martingale_check,
                       simulate, _worker_pool)
from .spectral import principal_eigenpair

log = logging.getLogger("gfdlab")

# ladder of candidate generation limits for the sweep censor; a cell's
# limit is raised along it until the recursion's own tail bound says
# censoring at that generation misstates survival by less than this
CENSOR_LADDER = (100, 200, 400, 800, 1600, 3200)
CENSOR_BIAS_TOL = 5e-4

EPS_LAMBDA = 1e-4
EPS_P = 1e-4

_CENSOR_KEYS = ("generation_limit", "population_cap", "time_horizon",
                "immortal", "event_budget")

_CSV_COLUMNS = (
    "S", "D", "lambda", "res_primal", "res_adjoint", "power_iters",
    "power_converged", "p_x0", "generations", "extinction_tag", "gen_limit",
    "survival", "wilson_low", "wilson_high", "trials", "survived",
    "cens_generation_limit", "cens_population_cap", "cens_time_horizon",
    "cens_immortal", "cens_event_budget", "consistency", "censor_bias",
)

_EVENT_RECORD = struct.Struct("<dQBd")   # time, individual id, tag, fraction


@dataclass
class SweepRow:
    """One (S, D) cell of a sweep: solver outputs plus the MC estimate."""

    S: float
    D: float
    eigenvalue: float
    res_primal: float
    res_adjoint: float
    power_iters: int
    power_converged: bool
    p_x0: float
    generations: int
    extinction_tag: str
    gen_limit: int
    survival: float
    wilson_low: float
    wilson_high: float
    trials: int
    survived: int
    censored: dict
    consistency: str = "INCONCLUSIVE"
    # |p(x0) - p_G(x0)| at the ladder rung G taken for the censor
    censor_bias: float = float("nan")

    @property
    def converged(self):
        return self.power_converged and self.extinction_tag == "fixed_point"


@dataclass
class SweepResult:
    config: object
    x0: float
    rows: list = field(default_factory=list)
    profiles: dict = field(default_factory=dict)
    solutions: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)

    @property
    def all_converged(self):
        return all(r.converged for r in self.rows)


@dataclass
class CheckReport:
    """Per-claim verdicts; ``informational`` marks an ungated run."""

    name: str
    claims: list = field(default_factory=list)   # (claim, passed, worst, note)
    informational: bool = False

    @property
    def passed(self):
        return all(ok for _, ok, _, _ in self.claims)

    def lines(self):
        tag = " [informational]" if self.informational else ""
        out = [f"{self.name}{tag}: {'PASS' if self.passed else 'FAIL'}"]
        for claim, ok, worst, note in self.claims:
            word = "PASS" if ok else "FAIL"
            extra = f" ({note})" if note else ""
            out.append(f"  {claim}: {word} worst={worst:.3e}{extra}")
        return out


def _f(x):
    return repr(float(x))


def classify_row(eigenvalue, p_x0, wilson_low, eps_lambda=EPS_LAMBDA,
                 eps_p=EPS_P):
    """Sign rule: growth rate and survival must agree, boundary is open.

    Positive rate requires deterministic survival above eps_p and a
    Wilson interval excluding zero; negative rate requires survival
    below eps_p and an interval reaching down to zero. Rates within
    eps_lambda of zero are not classified.
    """
    survival = 1.0 - p_x0
    if abs(eigenvalue) <= eps_lambda:
        return "INCONCLUSIVE"
    if eigenvalue > eps_lambda:
        ok = survival > eps_p and wilson_low > 0.0
    else:
        ok = survival < eps_p and wilson_low <= eps_p
    return "PASS" if ok else "FAIL"


def _sweep_cell(model, solver, sim, S, D, x0, seed, workers, pool):
    timings = {}
    t0 = time.perf_counter()
    sol = principal_eigenpair(model, S, D, grid_n=solver.grid_n,
                              tol=solver.power_tol,
                              max_iter=solver.power_max_iter)
    timings["spectral"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    prof, curve = generation_curve(
        model, S, D, x0, CENSOR_LADDER, grid_n=solver.grid_n,
        tol=solver.extinction_tol, max_generations=solver.max_generations,
        alpha_nodes=solver.alpha_nodes, stop_gap=CENSOR_BIAS_TOL)
    p_x0 = prof.at(x0)
    timings["extinction"] = time.perf_counter() - t0

    need = next((g for g in CENSOR_LADDER
                 if abs(p_x0 - curve[g]) < CENSOR_BIAS_TOL), CENSOR_LADDER[-1])
    censor_bias = abs(p_x0 - curve[need])
    if not censor_bias < CENSOR_BIAS_TOL:
        log.warning("S=%r D=%r: censoring at generation %d misstates survival "
                    "by %.3e, above the tolerance %.1e", S, D, need,
                    censor_bias, CENSOR_BIAS_TOL)
    gen_limit = max(sim.gen_limit, need)
    limits = SimulationLimits(gen_limit=gen_limit, pop_cap=sim.pop_cap,
                              time_horizon=sim.time_horizon)
    t0 = time.perf_counter()
    est = estimate_survival(model, S, D, x0, sim.trials, limits=limits,
                            seed=seed, workers=workers, pool=pool)
    timings["mc"] = time.perf_counter() - t0

    row = SweepRow(
        S=S, D=D, eigenvalue=sol.eigenvalue,
        res_primal=sol.residual_primal, res_adjoint=sol.residual_adjoint,
        power_iters=sol.iterations, power_converged=sol.converged,
        p_x0=p_x0, generations=prof.generations,
        extinction_tag=prof.tag, gen_limit=gen_limit,
        survival=est.estimate, wilson_low=est.wilson_low,
        wilson_high=est.wilson_high, trials=est.n_trials,
        survived=est.n_survived, censored=dict(est.censored),
        censor_bias=censor_bias)
    row.consistency = classify_row(row.eigenvalue, row.p_x0, row.wilson_low)
    return row, sol, prof, timings


def _row_csv(row):
    cens = [row.censored.get(k, 0) for k in _CENSOR_KEYS]
    cells = [_f(row.S), _f(row.D), _f(row.eigenvalue), _f(row.res_primal),
             _f(row.res_adjoint), str(row.power_iters),
             "true" if row.power_converged else "false",
             _f(row.p_x0), str(row.generations), row.extinction_tag,
             str(row.gen_limit), _f(row.survival), _f(row.wilson_low),
             _f(row.wilson_high), str(row.trials), str(row.survived),
             *[str(c) for c in cens], row.consistency, _f(row.censor_bias)]
    return ",".join(cells)


def run_sweep(config, out_dir=None, workers=None):
    """Solve and simulate every cell; optionally write CSV artifacts.

    Returns a SweepResult; with ``out_dir`` also writes sweep.csv
    (append-only, header first, one row per finished cell), a wall-time
    report, and per-cell profile CSVs under profiles/.
    """
    model, env = config.model, config.env
    solver, sim = config.solver, config.simulation
    if workers is None:
        workers = sim.workers
    x0 = sim.x0 if sim.x0 is not None else model.max_mass / 2.0
    result = SweepResult(config=config, x0=x0)

    csv_fh = None
    profile_dir = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        profile_dir = os.path.join(out_dir, "profiles")
        os.makedirs(profile_dir, exist_ok=True)
        csv_fh = open(os.path.join(out_dir, "sweep.csv"), "w")
        csv_fh.write(f"# gfdlab sweep config_hash={config_hash(config)}"
                     f" x0={_f(x0)}\n")
        csv_fh.write(",".join(_CSV_COLUMNS) + "\n")
        csv_fh.flush()

    # one pool of MC workers serves every cell
    pool = _worker_pool(workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        for cell, (S, D) in enumerate((S, D) for S in env.s_values
                                      for D in env.d_values):
            row, sol, prof, timings = _sweep_cell(
                model, solver, sim, S, D, x0, seed=sim.seed + cell,
                workers=workers, pool=pool)
            result.rows.append(row)
            result.profiles[(S, D)] = prof
            result.solutions[(S, D)] = sol
            result.wall_times[(S, D)] = timings
            if csv_fh is not None:
                csv_fh.write(_row_csv(row) + "\n")
                csv_fh.flush()
            if profile_dir is not None:
                stem = f"S{S!r}_D{D!r}"
                res = fixed_point_residual(prof, model, S, D,
                                           alpha_nodes=solver.alpha_nodes)
                prof.to_csv(os.path.join(profile_dir, f"extinction_{stem}.csv"),
                            residual=res,
                            extra={"config_hash": config_hash(config)})
                sol.to_csv(os.path.join(profile_dir, f"spectral_{stem}.csv"))
    if csv_fh is not None:
        csv_fh.close()
        _write_report(os.path.join(out_dir, "report.txt"), config, result)
    return result


def _write_report(path, config, result, checks=()):
    with open(path, "w") as fh:
        fh.write("gfdlab sweep report\n")
        fh.write(f"config_hash={config_hash(config)}\n")
        fh.write(f"cells={len(result.rows)} x0={result.x0!r}\n")
        total = 0.0
        for row in result.rows:
            t = result.wall_times[(row.S, row.D)]
            spent = sum(t.values())
            total += spent
            fh.write(
                f"S={row.S!r} D={row.D!r} lambda={row.eigenvalue!r} "
                f"p_x0={row.p_x0!r} survival={row.survival!r} "
                f"gen_limit={row.gen_limit} {row.consistency}"
                f" [spectral={t['spectral']:.2f}s extinction="
                f"{t['extinction']:.2f}s mc={t['mc']:.2f}s]\n")
        fh.write(f"total_wall_time={total:.2f}s\n")
        for report in checks:
            fh.write("\n")
            for line in report.lines():
                fh.write(line + "\n")


def check_consistency(result, eps_lambda=EPS_LAMBDA, eps_p=EPS_P):
    """Classify every sweep row by the sign rule; FAIL rows are listed."""
    report = CheckReport(name="consistency")
    n_pass = n_inc = 0
    for row in result.rows:
        flag = classify_row(row.eigenvalue, row.p_x0, row.wilson_low,
                            eps_lambda, eps_p)
        if flag == "FAIL":
            report.claims.append(
                (f"S={row.S!r} D={row.D!r}", False, abs(row.eigenvalue),
                 f"lambda={row.eigenvalue!r} survival={1 - row.p_x0!r} "
                 f"wilson_low={row.wilson_low!r}"))
        elif flag == "PASS":
            n_pass += 1
        else:
            n_inc += 1
    report.claims.append(("classified rows", True, 0.0,
                          f"{n_pass} pass, {n_inc} inconclusive, "
                          f"{len(result.rows)} total"))
    return report


def _by_cell(result):
    lam = {(r.S, r.D): r.eigenvalue for r in result.rows}
    rows = {(r.S, r.D): r for r in result.rows}
    return lam, rows


def check_monotonicity(result, slack=1e-8, informational=False):
    """Ordering claims across the (S, D) grid.

    Deterministic claims compare profiles pointwise with a small slack;
    the Monte Carlo ordering only flags cells whose Wilson intervals
    are disjoint in the wrong order.
    """
    config = result.config
    s_values = list(config.env.s_values)
    d_values = list(config.env.d_values)
    lam, rows = _by_cell(result)
    prof = {k: np.asarray(v.values) for k, v in result.profiles.items()}
    report = CheckReport(name="monotonicity", informational=informational)

    worst = 0.0
    for p in prof.values():
        if p.size > 1:
            worst = max(worst, float(np.max(np.diff(p))))
    report.claims.append(("p non-increasing in x", worst <= slack, worst, ""))

    worst = 0.0
    for S in s_values:
        for d1, d2 in zip(d_values, d_values[1:]):
            worst = max(worst, float(np.max(prof[(S, d1)] - prof[(S, d2)])))
    report.claims.append(("p non-decreasing in D", worst <= slack, worst, ""))

    worst = 0.0
    for D in d_values:
        for s1, s2 in zip(s_values, s_values[1:]):
            worst = max(worst, float(np.max(prof[(s2, D)] - prof[(s1, D)])))
    report.claims.append(("p non-increasing in S", worst <= slack, worst, ""))

    worst = 0.0
    for D in d_values:
        for s1, s2 in zip(s_values, s_values[1:]):
            worst = max(worst, lam[(s1, D)] - lam[(s2, D)])
    report.claims.append(("Lambda non-decreasing in S", worst <= slack,
                          worst, ""))

    # separable growth: the mu(S) ordering must be the Lambda ordering
    # and the deterministic survival ordering
    worst = 0.0
    mu = config.model.growth.mu
    for D in d_values:
        for s1, s2 in zip(s_values, s_values[1:]):
            dmu = mu(s2) - mu(s1)
            if dmu > 0:
                worst = max(worst, lam[(s1, D)] - lam[(s2, D)])
                worst = max(worst, (1 - rows[(s1, D)].p_x0)
                            - (1 - rows[(s2, D)].p_x0))
            elif dmu < 0:
                worst = max(worst, lam[(s2, D)] - lam[(s1, D)])
                worst = max(worst, (1 - rows[(s2, D)].p_x0)
                            - (1 - rows[(s1, D)].p_x0))
    report.claims.append(("mu ordering carries to Lambda and survival",
                          worst <= slack, worst, ""))

    # survival ordered at every D for an S pair -> Lambda ordered there
    worst = 0.0
    pairs = 0
    for s1, s2 in zip(s_values, s_values[1:]):
        surv_ordered = all(
            1 - rows[(s1, D)].p_x0 <= (1 - rows[(s2, D)].p_x0) + slack
            for D in d_values)
        if surv_ordered:
            pairs += 1
            for D in d_values:
                worst = max(worst, lam[(s1, D)] - lam[(s2, D)])
    report.claims.append(("survival ordering implies Lambda ordering",
                          worst <= slack, worst, f"{pairs} ordered pairs"))

    # MC ordering: only disjoint intervals in the wrong order count
    worst = 0.0
    for D in d_values:
        for s1, s2 in zip(s_values, s_values[1:]):
            gap = rows[(s1, D)].wilson_low - rows[(s2, D)].wilson_high
            worst = max(worst, gap)
    for S in s_values:
        for d1, d2 in zip(d_values, d_values[1:]):
            gap = rows[(S, d2)].wilson_low - rows[(S, d1)].wilson_high
            worst = max(worst, gap)
    report.claims.append(("MC survival ordering up to CI overlap",
                          worst <= 0.0, worst, ""))
    return report


# ---------------------------------------------------------------- CLI --

def _load_named_or_file(source):
    # an explicit builtin: prefix always dispatches to the registry so a
    # typo reports the known names instead of a file-not-found
    if source.lower().startswith("builtin:"):
        return benchmarks.named_config(source[8:])
    if source.upper() in benchmarks.builtin_names():
        return benchmarks.named_config(source)
    return load_config(source)


def _pick(flag, env_key, fallback, cast):
    if flag is not None:
        return cast(flag)
    raw = os.environ.get(env_key)
    if raw is not None:
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad {env_key}={raw!r}: {exc}") from exc
    return fallback


def _effective(args):
    """Config resolved with flag > environment > file > default."""
    source = _pick(args.config, "GFDLAB_CONFIG", "builtin:LOGRAMP", str)
    cfg = _load_named_or_file(source)
    seed = _pick(args.seed, "GFDLAB_SEED", cfg.simulation.seed, int)
    trials = _pick(args.trials, "GFDLAB_TRIALS", cfg.simulation.trials, int)
    threads = _pick(args.threads, "GFDLAB_THREADS", cfg.simulation.workers, int)
    grid = _pick(args.grid, "GFDLAB_GRID", cfg.solver.grid_n, int)
    out = _pick(args.out, "GFDLAB_OUT", "out", str)
    cfg = replace(cfg,
                  solver=replace(cfg.solver, grid_n=grid),
                  simulation=replace(cfg.simulation, seed=seed,
                                     trials=trials, workers=threads))
    return cfg, out


def _cell_args(args, cfg):
    S = args.S if args.S is not None else cfg.env.s_values[0]
    D = args.D if args.D is not None else cfg.env.d_values[0]
    x0 = cfg.simulation.x0
    if getattr(args, "x0", None) is not None:
        x0 = args.x0
    if x0 is None:
        x0 = cfg.model.max_mass / 2.0
    S, D, x0 = float(S), float(D), float(x0)
    M = cfg.model.max_mass
    # written so that NaN fails every test
    if not 0.0 < S < math.inf:
        raise ConfigError(f"--S must be positive and finite, got {S!r}")
    if not 0.0 <= D < math.inf:
        raise ConfigError(f"--D must be >= 0 and finite, got {D!r}")
    if not 0.0 < x0 < M:
        raise ConfigError(f"--x0 must lie in (0, {M!r}), got {x0!r}")
    return S, D, x0


def cmd_validate(args):
    cfg, _ = _effective(args)
    report = validate_assumptions(cfg.model, cfg.env)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_sweep(args):
    cfg, out = _effective(args)
    result = run_sweep(cfg, out_dir=out)
    print(f"wrote {os.path.join(out, 'sweep.csv')} "
          f"({len(result.rows)} rows, config {config_hash(cfg)})")
    if not result.all_converged:
        bad = [(r.S, r.D) for r in result.rows if not r.converged]
        print(f"unconverged cells: {bad}", file=sys.stderr)
        return 1
    return 0


def cmd_check(args):
    cfg, out = _effective(args)
    assumptions = validate_assumptions(cfg.model, cfg.env)
    result = run_sweep(cfg, out_dir=out)
    cons = check_consistency(result)
    mono = check_monotonicity(result, informational=not assumptions.passed)
    _write_report(os.path.join(out, "report.txt"), cfg, result,
                  checks=(cons, mono))
    for report in (cons, mono):
        for line in report.lines():
            print(line)
    if not assumptions.passed:
        print("assumption checks failed; monotonicity is informational:",
              ", ".join(c.name for c in assumptions.failed()))
    gated_ok = cons.passed and (mono.passed or mono.informational)
    return 0 if (gated_ok and result.all_converged) else 1


def cmd_extinction(args):
    cfg, out = _effective(args)
    S, D, x0 = _cell_args(args, cfg)
    from .extinction import solve_extinction
    prof = solve_extinction(cfg.model, S, D, grid_n=cfg.solver.grid_n,
                            tol=cfg.solver.extinction_tol,
                            max_generations=cfg.solver.max_generations,
                            alpha_nodes=cfg.solver.alpha_nodes)
    res = fixed_point_residual(prof, cfg.model, S, D,
                               alpha_nodes=cfg.solver.alpha_nodes)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"extinction_S{S!r}_D{D!r}.csv")
    prof.to_csv(path, residual=res,
                extra={"config_hash": config_hash(cfg)})
    print(f"S={S!r} D={D!r}: p(x0={x0!r})={prof.at(x0)!r} "
          f"generations={prof.generations} tag={prof.tag} residual={res!r}")
    print(f"wrote {path}")
    return 0 if prof.tag == "fixed_point" else 1


def cmd_spectral(args):
    cfg, out = _effective(args)
    S, D, _ = _cell_args(args, cfg)
    sol = principal_eigenpair(cfg.model, S, D, grid_n=cfg.solver.grid_n,
                              tol=cfg.solver.power_tol,
                              max_iter=cfg.solver.power_max_iter)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spectral_S{S!r}_D{D!r}.csv")
    sol.to_csv(path)
    print(f"S={S!r} D={D!r}: lambda={sol.eigenvalue!r} "
          f"iters={sol.iterations} converged={sol.converged} "
          f"residuals=({sol.residual_primal!r}, {sol.residual_adjoint!r})")
    print(f"wrote {path}")
    return 0 if sol.converged else 1


def cmd_simulate(args):
    cfg, out = _effective(args)
    S, D, x0 = _cell_args(args, cfg)
    sim = cfg.simulation
    limits = SimulationLimits(gen_limit=sim.gen_limit, pop_cap=sim.pop_cap,
                              time_horizon=sim.time_horizon)
    if args.event_log is not None:
        if args.trial < 0:
            raise ConfigError(f"--trial must be >= 0, got {args.trial}")
        log = []
        outcome = simulate(cfg.model, S, D, x0, limits=limits,
                           seed=sim.seed, trial=args.trial, log=log)
        with open(args.event_log, "wb") as fh:
            for rec in log:
                fh.write(_EVENT_RECORD.pack(*rec))
        print(f"trial {args.trial}: survived={outcome.survived} "
              f"reason={outcome.reason} events={len(log)} "
              f"-> {args.event_log}")
        return 0
    est = estimate_survival(cfg.model, S, D, x0, sim.trials, limits=limits,
                            seed=sim.seed, workers=sim.workers)
    print(f"S={S!r} D={D!r} x0={x0!r}: survival={est.estimate!r} "
          f"wilson=({est.wilson_low!r}, {est.wilson_high!r}) "
          f"trials={est.n_trials} censored={est.censored}")
    return 0


def _checkpoints(text):
    """Comma-separated checkpoint times, each positive and finite."""
    try:
        times = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        times = ()
    # written so that NaN fails the test
    if not times or not all(0.0 < t < math.inf for t in times):
        raise ConfigError(f"--checkpoints needs positive finite times, "
                          f"got {text!r}")
    return times


def cmd_martingale(args):
    cfg, _ = _effective(args)
    S, D, x0 = _cell_args(args, cfg)
    checkpoints = _checkpoints(args.checkpoints)
    sol = principal_eigenpair(cfg.model, S, D, grid_n=cfg.solver.grid_n,
                              tol=cfg.solver.power_tol,
                              max_iter=cfg.solver.power_max_iter)
    report = martingale_check(cfg.model, S, D, x0, sol, checkpoints,
                              n_trials=cfg.simulation.trials,
                              seed=cfg.simulation.seed)
    print(f"S={S!r} D={D!r} lambda={sol.eigenvalue!r} "
          f"target v(x0)={report.target!r}")
    for t, mean, std, z in zip(report.checkpoints, report.means,
                               report.stds, report.z):
        print(f"  t={float(t)!r}: mean={float(mean)!r} "
              f"std={float(std)!r} z={z:+.3f}")
    print(f"max |z| = {report.max_abs_z:.3f}")
    return 0 if report.max_abs_z <= 4.0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gfdlab",
        description="growth-fragmentation-death model laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cell=False):
        p.add_argument("--config", help="config file path or builtin:NAME")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--threads", type=int)
        p.add_argument("--grid", type=int)
        p.add_argument("--trials", type=int)
        if cell:
            p.add_argument("--S", type=float)
            p.add_argument("--D", type=float)
            p.add_argument("--x0", type=float)

    p = sub.add_parser("validate", help="run model assumption checks")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="solve and simulate the (S, D) grid")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="sweep plus consistency and "
                                     "monotonicity verdicts")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extinction", help="extinction profile at one cell")
    common(p, cell=True)
    p.set_defaults(func=cmd_extinction)

    p = sub.add_parser("spectral", help="principal eigenpair at one cell")
    common(p, cell=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("simulate", help="Monte Carlo survival at one cell")
    common(p, cell=True)
    p.add_argument("--event-log", help="write one trial's binary event log")
    p.add_argument("--trial", type=int, default=0,
                   help="trial index for --event-log")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("martingale", help="martingale diagnostic at one cell")
    common(p, cell=True)
    p.add_argument("--checkpoints", default="0.5,1.0,2.0",
                   help="comma-separated checkpoint times")
    p.set_defaults(func=cmd_martingale)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
