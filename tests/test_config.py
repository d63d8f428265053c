"""Config parsing, serialization round-trips, and assumption checks."""

import io

import pytest

from gfdlab import benchmarks
from gfdlab.config import (ConfigError, DivisionRateModel, EnvironmentRange,
                           GrowthModel, ModelDefinition, SimulationSettings,
                           SolverSettings, config_hash, load_config,
                           validate_assumptions, write_config)
from gfdlab.kernels import DivisionKernel


@pytest.mark.parametrize("name", ["CONSTANT", "LOGRAMP", "SLIDING_MARGIN"])
def test_write_load_roundtrip(name):
    cfg = benchmarks.named_config(name)
    text = write_config(cfg)
    back = load_config(io.StringIO(text))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


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
