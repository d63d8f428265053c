"""Config parsing, serialization round-trips, and assumption checks."""

import io
from dataclasses import replace

import pytest

from gfdlab import benchmarks
from gfdlab.cli import main
from gfdlab.config import (ConfigError, DivisionRateModel, EnvironmentRange,
                           GrowthModel, ModelDefinition, SimulationSettings,
                           SolverSettings, config_hash, load_config,
                           validate_assumptions, write_config)
from gfdlab.kernels import DivisionKernel

# config_hash of each builtin and variant config; a change here moves the
# header of every sweep.csv and profile written from it, so it must be
# deliberate
PINNED_HASHES = {
    "ADVERSE_BDEC": "807fb25e3a2126f3",
    "ADVERSE_KERNEL": "43cfc33f27041505",
    "CONSTANT": "c10ea34a1ca2ee82",
    "LOGRAMP": "33d6004a67a93e9f",
    "SLIDING_MARGIN": "66a634ac1327822b",
    "separable_tables": "270b155bb75d09b0",
    "limits": "77a2879c3d0acc03",
    "ramp_gamma_2": "c8f928075cb7ccf3",
}


def variant_config(name):
    """LOGRAMP with the optional keys, tables or a generic ramp set."""
    lr = benchmarks.named_config("LOGRAMP")
    if name == "separable_tables":
        xs = [i / 20 for i in range(21)]
        growth = GrowthModel(family="separable_tables",
                             mu_table=((0.0, 0.0), (1.0, 0.5), (10.0, 1.0)),
                             gtilde_table=tuple((x, x * (1.0 - x)) for x in xs))
        return replace(lr, model=replace(lr.model, growth=growth))
    if name == "limits":
        return replace(lr, simulation=replace(lr.simulation, time_horizon=5.0,
                                              x0=0.3, workers=2))
    # the gamma = 2 ramp the benchmark's generic event sampler runs on
    division = replace(lr.model.division, gamma=2.0)
    return replace(lr, model=replace(lr.model, division=division))


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_write_load_roundtrip(name):
    cfg = benchmarks.named_config(name)
    text = write_config(cfg)
    back = load_config(io.StringIO(text))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg) == PINNED_HASHES[name]
    assert write_config(back) == text


@pytest.mark.parametrize("name", ["separable_tables", "limits", "ramp_gamma_2"])
def test_write_load_roundtrip_variants(name):
    cfg = variant_config(name)
    text = write_config(cfg)
    back = load_config(io.StringIO(text))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg) == PINNED_HASHES[name]
    assert write_config(back) == text


def test_empty_tables_are_not_written():
    text = write_config(benchmarks.named_config("LOGRAMP"))
    assert "_table" not in text
    assert "mu_table = 0.0:0.0, 1.0:0.5, 10.0:1.0\n" in write_config(
        variant_config("separable_tables"))


def test_int_values_in_float_fields_keep_their_hash():
    cfg = benchmarks.named_config("CONSTANT")
    cfg = replace(cfg, env=EnvironmentRange(s_values=(1, 2), d_values=(1,)))
    text = write_config(cfg)
    assert "s_values = 1.0, 2.0\n" in text
    back = load_config(io.StringIO(text))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def test_d_values_default_to_death_rate():
    cfg = load_config(io.StringIO("[model]\ndeath_rate = 0.7\n"))
    assert cfg.env.d_values == (0.7,)


def test_max_mass_reaches_every_component():
    cfg = load_config(io.StringIO("[model]\nmax_mass = 2.0\n"))
    parts = (cfg.model.growth, cfg.model.division, cfg.model.kernel)
    assert [p.max_mass for p in parts] == [2.0, 2.0, 2.0]
    # a component has no max_mass key of its own
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(io.StringIO("[growth]\nmax_mass = 2.0\n"))


BAD_VALUES = [
    # non-finite numbers, in every shape a float field takes
    ("model", "death_rate = nan"),
    ("model", "max_mass = inf"),
    ("growth", "half_saturation = -inf"),
    ("environment", "s_values = 1.0, nan"),
    ("growth", "mu_table = 0.0:0.0, 1.0:inf"),
    ("simulation", "x0 = nan"),
    # values the dataclasses reject
    ("growth", "mu_max = -1"),
    ("simulation", "time_horizon = -1"),
    ("simulation", "time_horizon = 0"),
    ("simulation", "x0 = 2.0"),
    ("simulation", "x0 = 0.0"),
    ("simulation", "seed = -1"),
    ("solver", "extinction_tol = 0"),
    ("solver", "power_tol = -1e-10"),
    ("solver", "max_generations = 0"),
    ("solver", "power_max_iter = 0"),
]


@pytest.mark.parametrize("section, line", BAD_VALUES)
def test_bad_values_rejected(section, line):
    with pytest.raises(ConfigError):
        load_config(io.StringIO(f"[{section}]\n{line}\n"))


@pytest.mark.parametrize("command, section, line, flags", [
    ("spectral", "model", "death_rate = nan", []),
    ("simulate", "growth", "mu_max = -1", []),
    ("simulate", "simulation", "time_horizon = -1", []),
    ("simulate", "simulation", "x0 = 2.0", []),
    ("spectral", "model", "death_rate = 1.0", ["--D", "nan"]),
    ("spectral", "model", "death_rate = 1.0", ["--D", "-0.5"]),
    ("spectral", "model", "death_rate = 1.0", ["--S", "inf"]),
    ("spectral", "model", "death_rate = 1.0", ["--S", "0"]),
    ("simulate", "model", "death_rate = 1.0", ["--x0", "2.0"]),
    ("simulate", "model", "death_rate = 1.0", ["--x0", "nan"]),
    ("simulate", "model", "death_rate = 1.0", ["--seed", "-1"]),
], ids=["death_rate-nan", "mu_max-negative", "horizon-negative",
        "x0-outside", "flag-D-nan", "flag-D-negative", "flag-S-inf",
        "flag-S-zero", "flag-x0-outside", "flag-x0-nan", "flag-seed-negative"])
def test_bad_input_exits_2(tmp_path, capsys, command, section, line, flags):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out),
                 "--trials", "5", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_defaults_from_empty_config():
    cfg = load_config(io.StringIO("[model]\n"))
    assert cfg.model.max_mass == 1.0
    assert cfg.solver.grid_n == 512
    assert cfg.simulation.trials == 10000
    assert cfg.simulation.x0 is None


def test_hash_sensitive_to_values():
    a = benchmarks.named_config("CONSTANT")
    b = load_config(io.StringIO(write_config(a).replace(
        "death_rate = 1.0", "death_rate = 1.5")))
    assert config_hash(a) != config_hash(b)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(io.StringIO("[modle]\nmax_mass = 1.0\n"))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(io.StringIO("[model]\nmass_max = 1.0\n"))
    # a retired setting is no different from a typo
    with pytest.raises(ConfigError, match="unknown key 'ode_rtol'"):
        load_config(io.StringIO("[solver]\node_rtol = 1e-10\n"))


def test_bad_float_rejected():
    with pytest.raises(ConfigError):
        load_config(io.StringIO("[model]\nmax_mass = tiny\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(tmp_path / "nope.ini")


def test_bad_kernel_family_becomes_config_error():
    with pytest.raises(ConfigError):
        load_config(io.StringIO("[kernel]\nfamily = cauchy\n"))


def test_env_ladders_must_increase():
    with pytest.raises(ConfigError):
        EnvironmentRange(s_values=(2.0, 1.0))
    with pytest.raises(ConfigError):
        EnvironmentRange(d_values=(1.0, 1.0))


def test_resource_levels_positive():
    with pytest.raises(ConfigError):
        EnvironmentRange(s_values=(0.0, 1.0))


def test_solver_bounds():
    with pytest.raises(ConfigError):
        SolverSettings(grid_n=4)
    with pytest.raises(ConfigError):
        SolverSettings(grid_n=4096)
    with pytest.raises(ConfigError):
        SolverSettings(alpha_nodes=128)


def test_simulation_bounds():
    with pytest.raises(ConfigError):
        SimulationSettings(trials=0)
    with pytest.raises(ConfigError):
        SimulationSettings(workers=0)
    with pytest.raises(ConfigError):
        SimulationSettings(time_horizon=-1.0)


def test_model_component_mass_must_agree():
    with pytest.raises(ConfigError):
        ModelDefinition(
            max_mass=2.0,
            growth=GrowthModel(max_mass=1.0),
            division=DivisionRateModel(max_mass=2.0),
            kernel=DivisionKernel(max_mass=2.0))


def test_growth_tables_must_vanish_at_ends():
    with pytest.raises(ConfigError):
        GrowthModel(family="separable_tables",
                    mu_table=((0.0, 0.0), (1.0, 1.0)),
                    gtilde_table=((0.0, 0.5), (1.0, 0.0)))


@pytest.mark.parametrize("family", ["constant", "ramp", "ramp_down"])
def test_division_rate_zero_at_and_below_threshold(family):
    # gamma = 0 makes every family a step at m_div; 0**0 is 1 in numpy
    div = DivisionRateModel(family=family, b_bar=2.0, m_div=0.3, gamma=0.0)
    assert div.base([0.1, 0.3, 0.5]).tolist() == [0.0, 0.0, 2.0]


def test_mu_monotone_in_resource():
    g = GrowthModel(family="logistic_monod", mu_max=2.0, half_saturation=1.0)
    assert g.mu(1.0) == pytest.approx(1.0)
    assert g.mu(0.5) < g.mu(2.0) < 2.0


# -- assumption validator ------------------------------------------------

def test_validator_passes_clean_models():
    for name in ("CONSTANT", "LOGRAMP"):
        cfg = benchmarks.named_config(name)
        report = validate_assumptions(cfg.model, cfg.env)
        assert report.passed, report.summary()


def test_validator_catches_asymmetric_kernel():
    cfg = benchmarks.named_config("ADVERSE_KERNEL")
    report = validate_assumptions(cfg.model, cfg.env)
    assert not report.passed
    names = [c.name for c in report.failed()]
    assert any("symmetry" in n for n in names)


def test_validator_catches_decreasing_division_rate():
    cfg = benchmarks.named_config("ADVERSE_BDEC")
    report = validate_assumptions(cfg.model, cfg.env)
    assert not report.passed
    names = [c.name for c in report.failed()]
    assert any("monotone_x" in n for n in names)


def test_validator_catches_coupling_violation():
    cfg = benchmarks.named_config("SLIDING_MARGIN")
    report = validate_assumptions(cfg.model, cfg.env)
    assert not report.passed
    names = [c.name for c in report.failed()]
    assert any("coupling" in n for n in names)


def test_validator_locates_failure():
    cfg = benchmarks.named_config("ADVERSE_BDEC")
    report = validate_assumptions(cfg.model, cfg.env)
    bad = report.failed()[0]
    assert bad.worst > 0
    assert "FAIL" in report.summary()
