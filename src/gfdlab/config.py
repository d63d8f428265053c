"""Model definition, INI round-trip, and structural assumption checks.

A model couples a growth field g(S, x), a division rate b(S, x), a
division kernel q(x, alpha), a death rate D, and the mass interval
[0, M]. The environment section lists the resource levels S and death
rates D swept by experiments. Solver and simulation sections carry the
numerical knobs; every key has a default and unknown keys are errors.
"""

from __future__ import annotations

import configparser
import hashlib
import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .kernels import DivisionKernel, check_coupling

log = logging.getLogger("gfdlab")

GROWTH_FAMILIES = ("logistic_monod", "separable_tables")
DIVISION_FAMILIES = ("constant", "ramp", "ramp_down")
S_MULTIPLIERS = ("none", "monod")


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad value, bad table."""


# ---------------------------------------------------------------------------
# model pieces


@dataclass(frozen=True)
class GrowthModel:
    """Separable growth field g(S, x) = mu(S) * gtilde(x).

    ``logistic_monod`` uses mu(S) = mu_max * S / (K + S) and
    gtilde(x) = x (1 - x / M); the flow then has a closed form.
    ``separable_tables`` interpolates user tables for mu and gtilde;
    the gtilde table must vanish at x = 0 and x = M.
    """

    family: str = "logistic_monod"
    max_mass: float = 1.0
    mu_max: float = 1.0
    half_saturation: float = 1.0
    mu_table: tuple = ()        # ((S, mu), ...) for separable_tables
    gtilde_table: tuple = ()    # ((x, gtilde), ...) for separable_tables

    def __post_init__(self):
        if self.family not in GROWTH_FAMILIES:
            raise ConfigError(f"unknown growth family {self.family!r}")
        if self.mu_max <= 0:
            raise ConfigError("mu_max must be positive")
        if self.family == "separable_tables":
            if len(self.mu_table) < 2 or len(self.gtilde_table) < 2:
                raise ConfigError("separable_tables needs mu and gtilde tables")
            gx = np.array([p[0] for p in self.gtilde_table])
            gv = np.array([p[1] for p in self.gtilde_table])
            if gx[0] != 0.0 or gx[-1] != self.max_mass:
                raise ConfigError("gtilde table must span [0, M]")
            if gv[0] != 0.0 or gv[-1] != 0.0:
                raise ConfigError("gtilde must vanish at 0 and M")
            if np.any(np.diff(gx) <= 0):
                raise ConfigError("gtilde abscissae must increase")
            sx = np.array([p[0] for p in self.mu_table])
            if np.any(np.diff(sx) <= 0):
                raise ConfigError("mu table abscissae must increase")

    def mu(self, S):
        """Resource-dependent speed factor, non-decreasing in S."""
        S = np.asarray(S, dtype=float)
        if self.family == "logistic_monod":
            out = self.mu_max * S / (self.half_saturation + S)
        else:
            sx = [p[0] for p in self.mu_table]
            sv = [p[1] for p in self.mu_table]
            out = np.interp(S, sx, sv)
        return out if out.shape else float(out)

    def gtilde(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "logistic_monod":
            out = x * (1.0 - x / self.max_mass)
        else:
            gx = [p[0] for p in self.gtilde_table]
            gv = [p[1] for p in self.gtilde_table]
            out = np.interp(x, gx, gv)
        return out if out.shape else float(out)

    def g(self, S, x):
        out = np.asarray(self.mu(S)) * np.asarray(self.gtilde(x))
        return out if out.shape else float(out)

    @property
    def has_logistic_profile(self):
        """True when gtilde(x) = x (1 - x/M), enabling closed-form flow."""
        return self.family == "logistic_monod"


@dataclass(frozen=True)
class DivisionRateModel:
    """Division rate b(S, x), zero at and below the threshold m_div.

    Families: ``constant`` (b_bar above the threshold), ``ramp``
    (b_bar ((x - m_div)/(M - m_div))^gamma, non-decreasing in x), and
    ``ramp_down`` (mirrored ramp, deliberately decreasing in x, kept for
    adversarial validation runs). The optional Monod multiplier in S is
    non-decreasing and bounded by 1, so b_bar stays a global bound.
    """

    family: str = "constant"
    max_mass: float = 1.0
    b_bar: float = 1.0
    m_div: float = 0.0
    gamma: float = 1.0
    s_multiplier: str = "none"
    s_half_saturation: float = 1.0

    def __post_init__(self):
        if self.family not in DIVISION_FAMILIES:
            raise ConfigError(f"unknown division family {self.family!r}")
        if self.s_multiplier not in S_MULTIPLIERS:
            raise ConfigError(f"unknown s_multiplier {self.s_multiplier!r}")
        if self.b_bar <= 0:
            raise ConfigError("b_bar must be positive")
        if not 0.0 <= self.m_div < self.max_mass:
            raise ConfigError("m_div must lie in [0, M)")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")

    def multiplier(self, S):
        if self.s_multiplier == "none":
            out = np.ones_like(np.asarray(S, dtype=float))
        else:
            S = np.asarray(S, dtype=float)
            out = S / (self.s_half_saturation + S)
        return out if out.shape else float(out)

    def base(self, x):
        """Mass profile of the rate at multiplier 1."""
        x = np.asarray(x, dtype=float)
        M, c = self.max_mass, self.m_div
        if self.family == "constant":
            out = np.where(x > c, self.b_bar, 0.0)
        elif self.family == "ramp":
            out = np.where(x > c, self.b_bar * np.clip(
                (x - c) / (M - c), 0.0, None) ** self.gamma, 0.0)
        else:  # ramp_down
            out = np.where(x > c,
                           self.b_bar * ((M - x) / (M - c)) ** self.gamma, 0.0)
        return out if out.shape else float(out)

    def b(self, S, x):
        out = np.asarray(self.multiplier(S)) * np.asarray(self.base(x))
        return out if out.shape else float(out)


@dataclass(frozen=True)
class ModelDefinition:
    """Complete growth-fragmentation-death model on [0, M]."""

    max_mass: float = 1.0
    death_rate: float = 1.0
    growth: GrowthModel = field(default_factory=GrowthModel)
    division: DivisionRateModel = field(default_factory=DivisionRateModel)
    kernel: DivisionKernel = field(default_factory=DivisionKernel)

    def __post_init__(self):
        if self.max_mass <= 0:
            raise ConfigError("max_mass must be positive")
        if self.death_rate < 0:
            raise ConfigError("death_rate must be >= 0")
        for part in (self.growth, self.division, self.kernel):
            if part.max_mass != self.max_mass:
                raise ConfigError("component max_mass disagrees with model")

    def g(self, S, x):
        return self.growth.g(S, x)

    def b(self, S, x):
        return self.division.b(S, x)


@dataclass(frozen=True)
class EnvironmentRange:
    """Resource ladder and death-rate ladder swept by experiments."""

    s_values: tuple = (1.0,)
    d_values: tuple = (1.0,)

    def __post_init__(self):
        for name, vals in (("s_values", self.s_values), ("d_values", self.d_values)):
            if len(vals) == 0:
                raise ConfigError(f"{name} must be non-empty")
            if any(v <= 0 for v in vals) and name == "s_values":
                raise ConfigError("resource levels must be positive")
            if any(v < 0 for v in vals):
                raise ConfigError("death rates must be >= 0")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ConfigError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class SolverSettings:
    grid_n: int = 512
    extinction_tol: float = 1e-8
    max_generations: int = 10000
    # the spectral solve's inverse-iteration steps: stop once both
    # scale-relative eigen-residuals are below power_tol, give up
    # (unconverged) after power_max_iter steps
    power_tol: float = 1e-10
    power_max_iter: int = 200000
    alpha_nodes: int = 129

    def __post_init__(self):
        if self.grid_n < 8:
            raise ConfigError("grid_n too small")
        if self.grid_n > 2048:
            raise ConfigError("grid_n above the dense-solver cap 2048")
        if self.alpha_nodes % 2 == 0:
            raise ConfigError("alpha_nodes must be odd")
        if self.extinction_tol <= 0 or self.power_tol <= 0:
            raise ConfigError("extinction_tol and power_tol must be positive")
        if self.max_generations < 1 or self.power_max_iter < 1:
            raise ConfigError("max_generations and power_max_iter must be >= 1")


@dataclass(frozen=True)
class SimulationSettings:
    trials: int = 10000
    gen_limit: int = 200
    pop_cap: int = 10000
    time_horizon: float | None = None
    seed: int = 0
    x0: float | None = None
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1 or self.gen_limit < 1 or self.pop_cap < 1:
            raise ConfigError("trials, gen_limit, pop_cap must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.time_horizon is not None and self.time_horizon <= 0:
            raise ConfigError("time_horizon must be positive")


@dataclass(frozen=True)
class RunConfig:
    model: ModelDefinition = field(default_factory=ModelDefinition)
    env: EnvironmentRange = field(default_factory=EnvironmentRange)
    solver: SolverSettings = field(default_factory=SolverSettings)
    simulation: SimulationSettings = field(default_factory=SimulationSettings)

    def __post_init__(self):
        x0, M = self.simulation.x0, self.model.max_mass
        if x0 is not None and not 0.0 < x0 < M:
            raise ConfigError(f"x0 must lie in (0, M) = (0, {M!r})")


# ---------------------------------------------------------------------------
# INI round-trip: a section is a dataclass, a key is one of its fields, and
# the field's declared type picks the rule that parses and formats it

_SECTIONS = {
    "model": ModelDefinition, "growth": GrowthModel,
    "division": DivisionRateModel, "kernel": DivisionKernel,
    "environment": EnvironmentRange, "solver": SolverSettings,
    "simulation": SimulationSettings,
}
# these sections take max_mass from [model], not from a key of their own
_COMPONENTS = ("growth", "division", "kernel")


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _pair(tok):
    a, b = tok.split(":")
    return _finite(a), _finite(b)


def _fmt_float(value):
    return repr(float(value))


# declared type -> (parse INI text, format INI text)
_RULES = {
    "int": (int, str),
    "float": (_finite, _fmt_float),
    "str": (str, str),
    "float | None": (
        lambda raw: None if raw.lower() in ("none", "") else _finite(raw),
        lambda v: "none" if v is None else _fmt_float(v)),
    "tuple": (
        lambda raw: tuple(_finite(t) for t in raw.replace(",", " ").split()),
        lambda values: ", ".join(map(_fmt_float, values))),
}
# a tuple field named *_table holds (a, b) pairs written "a:b, a:b"
_TABLE = (
    lambda raw: tuple(_pair(t) for t in raw.split(",") if t.strip()),
    lambda pairs: ", ".join(f"{_fmt_float(a)}:{_fmt_float(b)}" for a, b in pairs))


def _keys(section):
    """(key, (parse, format)) for every INI key of a section, in field order."""
    for f in fields(_SECTIONS[section]):
        if f.type not in _RULES:          # nested model parts
            continue
        if section in _COMPONENTS and f.name == "max_mass":
            continue
        yield f.name, _TABLE if f.name.endswith("_table") else _RULES[f.type]


def load_config(source):
    """Parse an INI model file into a :class:`RunConfig`.

    ``source`` is a path or a file-like object. Unknown sections or keys,
    non-finite numbers and values the dataclasses reject raise
    :class:`ConfigError`; missing keys take the dataclass defaults, and the
    effective configuration is echoed to the run log.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        else:
            with open(source) as fh:
                parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    given = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        rules = dict(_keys(section))
        given[section] = {}
        for key, raw in parser.items(section):
            if key not in rules:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                given[section][key] = rules[key][0](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"[{section}] {key}: bad value {raw!r} ({exc})") from None

    def build(section, **fixed):
        return _SECTIONS[section](**given.get(section, {}), **fixed)

    try:
        M = given.get("model", {}).get("max_mass", ModelDefinition.max_mass)
        model = build("model", **{s: build(s, max_mass=M) for s in _COMPONENTS})
        given.setdefault("environment", {}).setdefault(
            "d_values", (model.death_rate,))
        cfg = RunConfig(model=model, env=build("environment"),
                        solver=build("solver"), simulation=build("simulation"))
    except ConfigError:
        raise
    except ValueError as exc:             # DivisionKernel's own checks
        raise ConfigError(str(exc)) from exc
    log.info("effective configuration:\n%s", write_config(cfg))
    return cfg


def write_config(cfg):
    """Serialize a :class:`RunConfig` to INI text; round-trips exactly."""
    m = cfg.model
    parts = {"model": m, "growth": m.growth, "division": m.division,
             "kernel": m.kernel, "environment": cfg.env,
             "solver": cfg.solver, "simulation": cfg.simulation}
    blocks = []
    for section, part in parts.items():
        lines = [f"[{section}]"]
        for key, (_, fmt) in _keys(section):
            value = getattr(part, key)
            if key.endswith("_table") and not value:
                continue                  # an empty table is left out
            lines.append(f"{key} = {fmt(value)}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def config_hash(cfg):
    """Short digest of the canonical serialization, stamped on outputs."""
    return hashlib.sha256(write_config(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# assumption validation


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst: float = 0.0
    location: str = ""
    note: str = ""


@dataclass
class AssumptionReport:
    """Named structural checks with worst violations and coordinates."""

    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def summary(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f" worst={c.worst:.3e} at {c.location}" if not c.passed else ""
            note = f" ({c.note})" if c.note else ""
            lines.append(f"{status} {c.name}{extra}{note}")
        return "\n".join(lines)


def _simpson_raw(f, lo, hi, n):
    x = np.linspace(lo, hi, n)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return float(np.sum(w * f(x)) * (hi - lo) / (n - 1) / 3.0)


def validate_assumptions(model, env, probe_n=64):
    """Probe the structural assumptions on a deterministic grid.

    Returns an :class:`AssumptionReport`. Checks cover kernel symmetry,
    normalization, domination envelope, margin range, and the two-daughter
    coupling property; growth boundary zeros, interior positivity, and a
    finite-difference smoothness probe; division-rate bounds and threshold
    behaviour; monotonicity of b in x, of b and g in S, and of b/g in S.
    Monotonicity in S compares consecutive levels of the environment
    ladder, so a single-level ladder passes those checks vacuously.
    """
    M = model.max_mass
    x = (np.arange(probe_n) + 0.5) * (M / probe_n)
    s_ladder = np.asarray(env.s_values, dtype=float)
    kernel = model.kernel
    checks = []

    # --- kernel symmetry about 1/2
    if kernel.is_degenerate:
        checks.append(AssumptionCheck("kernel_symmetry", True,
                                      note="point mass at 1/2"))
    else:
        a = (np.arange(401) + 0.5) / 401.0
        q = np.atleast_2d(kernel.density(x[:, None], a[None, :]))
        gap = np.abs(q - q[:, ::-1])
        worst = float(gap.max())
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        scale = max(1.0, float(q.max()))
        checks.append(AssumptionCheck(
            "kernel_symmetry", worst <= 1e-10 * scale, worst,
            f"x={x[i]:.6g}, alpha={a[j]:.6g}"))

    # --- kernel normalization via raw composite Simpson
    if kernel.is_degenerate:
        checks.append(AssumptionCheck("kernel_normalization", True,
                                      note="point mass"))
    else:
        worst, where = 0.0, ""
        for xi in x:
            lo, hi = kernel.support(xi)
            if hi <= lo:
                lo, hi = 0.0, 1.0
            err = abs(_simpson_raw(lambda a: kernel.density(xi, a), lo, hi, 2049) - 1.0)
            if err > worst:
                worst, where = err, f"x={xi:.6g}"
        checks.append(AssumptionCheck(
            "kernel_normalization", worst <= 1e-10, worst, where))

    # --- domination envelope, empirical: qbar(alpha) = max over probe x
    if kernel.is_degenerate:
        checks.append(AssumptionCheck("kernel_domination", True,
                                      note="point mass"))
    else:
        a = (np.arange(401) + 0.5) / 401.0
        q = np.atleast_2d(kernel.density(x[:, None], a[None, :]))
        envl = q.max(axis=0)
        finite = np.all(np.isfinite(envl))
        checks.append(AssumptionCheck(
            "kernel_domination", bool(finite), float(envl.max()),
            note="empirical envelope over the probe grid, "
                 f"max qbar={envl.max():.6g}, integral~{envl.mean():.6g}"))

    # --- margin range l(x) in (0, 1/2)
    if kernel.family in ("uniform", "beta_ramp"):
        l = np.asarray(kernel.margin(x))
        bad = (l <= 0.0) | (l >= 0.5)
        worst = float(np.abs(l - 0.25).max())
        loc = f"x={x[np.argmax(bad)]:.6g}" if bad.any() else ""
        checks.append(AssumptionCheck("kernel_margin_range", not bad.any(),
                                      worst, loc))

    # --- coupling property
    rep = check_coupling(kernel)
    loc = ""
    if rep.first_violation:
        v = rep.first_violation
        loc = f"{v['form']} at x={v['x']:.6g}, u={v['u']:.6g}"
    checks.append(AssumptionCheck(
        "kernel_coupling_two_point", rep.passed,
        location=loc, note="; ".join(rep.notes)))
    checks.append(AssumptionCheck(
        "kernel_coupling_differential", rep.differential_ok,
        location=loc if not rep.differential_ok else "",
        note="informational form of the same property"))

    # --- growth: boundary zeros, interior positivity, smoothness probe
    gmax = max(float(np.max(np.abs(model.g(S, x)))) for S in s_ladder)
    scale = max(gmax, 1e-30)
    worst = max(max(abs(model.g(S, 0.0)), abs(model.g(S, M))) for S in s_ladder)
    checks.append(AssumptionCheck(
        "growth_boundary_zeros", worst <= 1e-12 * max(1.0, scale), worst, "x in {0, M}"))

    gmin, gloc = np.inf, ""
    for S in s_ladder:
        gv = np.asarray(model.g(S, x))
        if gv.min() < gmin:
            gmin, gloc = float(gv.min()), f"S={S:.6g}, x={x[np.argmin(gv)]:.6g}"
    checks.append(AssumptionCheck("growth_interior_positive", gmin > 0.0, gmin, gloc))

    worst, wloc = 0.0, ""
    xi = x[(x > M / probe_n) & (x < M * (1 - 1.0 / probe_n))]
    for S in s_ladder:
        h1, h2 = M / 200.0, M / 400.0
        d1 = (model.g(S, xi + h1) - model.g(S, xi - h1)) / (2 * h1)
        d2 = (model.g(S, xi + h2) - model.g(S, xi - h2)) / (2 * h2)
        gap = float(np.max(np.abs(np.asarray(d1) - np.asarray(d2))))
        if gap > worst:
            worst, wloc = gap, f"S={S:.6g}"
    dscale = max(1.0, scale / M)
    checks.append(AssumptionCheck(
        "growth_smoothness_probe", worst <= 0.1 * dscale + 1e-8, worst, wloc,
        note="two-scale central-difference agreement"))

    # --- division rate: bounds and threshold
    c = model.division.m_div
    mult_max = float(np.max(model.division.multiplier(s_ladder)))
    b_cert = model.division.b_bar * max(mult_max, 1.0)
    worst, wloc, ok = 0.0, "", True
    for S in s_ladder:
        bv = np.asarray(model.b(S, x))
        if bv.min() < -1e-12 or bv.max() > b_cert * (1 + 1e-12):
            ok = False
            worst, wloc = float(bv.max()), f"S={S:.6g}"
        below = bv[x <= c]
        if below.size and np.abs(below).max() > 1e-12:
            ok = False
            worst, wloc = float(np.abs(below).max()), f"S={S:.6g}, x<=m_div"
        above = bv[x > c + M / probe_n]
        if above.size and above.min() <= 0.0:
            ok = False
            worst, wloc = float(above.min()), f"S={S:.6g}, x>m_div"
    checks.append(AssumptionCheck(
        "division_bounds", ok, worst, wloc,
        note=f"certified bound b_bar={b_cert:.6g}"))

    # --- monotonicity probes (consecutive comparisons, 1e-12 slack)
    def monotone(series_by_level, increasing, name, labels):
        worst, wloc = 0.0, ""
        for (la, va), (lb, vb) in zip(series_by_level, series_by_level[1:]):
            gap = np.asarray(va) - np.asarray(vb) if increasing else np.asarray(vb) - np.asarray(va)
            g0 = float(gap.max())
            if g0 > worst:
                k = int(np.argmax(gap))
                worst, wloc = g0, f"{labels}={la:.6g}->{lb:.6g}, x={x[k]:.6g}"
        checks.append(AssumptionCheck(name, worst <= 1e-12, worst, wloc))

    for S in s_ladder:
        bv = np.asarray(model.b(S, x))
        drop = float(np.max(bv[:-1] - bv[1:]))
        if drop > 1e-12:
            k = int(np.argmax(bv[:-1] - bv[1:]))
            checks.append(AssumptionCheck(
                "division_monotone_x", False, drop, f"S={S:.6g}, x={x[k]:.6g}"))
            break
    else:
        checks.append(AssumptionCheck("division_monotone_x", True))

    monotone([(S, model.b(S, x)) for S in s_ladder], True,
             "division_monotone_S", "S")
    monotone([(S, model.g(S, x)) for S in s_ladder], True,
             "growth_monotone_S", "S")
    ratio = [(S, np.asarray(model.b(S, xi)) / np.asarray(model.g(S, xi)))
             for S in s_ladder]
    monotone(ratio, False, "ratio_b_over_g_monotone_S", "S")

    mu = np.asarray(model.growth.mu(s_ladder))
    drop = float(np.max(mu[:-1] - mu[1:])) if mu.size > 1 else 0.0
    checks.append(AssumptionCheck("mu_monotone_S", drop <= 1e-12, drop))

    return AssumptionReport(checks=checks)
