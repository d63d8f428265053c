"""Command line driver: sweeps, checks, precedence, exit codes."""

import copy
import logging
import struct
from dataclasses import replace

import numpy as np
import pytest

from gfdlab import benchmarks, cli
from gfdlab.cli import (check_consistency, check_monotonicity, classify_row,
                        main, run_sweep)
from gfdlab.config import (EnvironmentRange, SolverSettings, config_hash,
                           write_config)

EVENT_RECORD = struct.Struct("<dQBd")


def small_config(trials=150, s_values=(0.5, 2.0), d_values=(1.0, 3.0)):
    cfg = benchmarks.named_config("CONSTANT")
    return replace(
        cfg,
        env=EnvironmentRange(s_values=s_values, d_values=d_values),
        solver=SolverSettings(grid_n=64),
        simulation=replace(cfg.simulation, trials=trials))


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(small_config())


# -- classification ------------------------------------------------------

def test_classify_supercritical():
    assert classify_row(1.0, p_x0=0.5, wilson_low=0.4) == "PASS"
    assert classify_row(1.0, p_x0=0.99999, wilson_low=0.0) == "FAIL"


def test_classify_subcritical():
    assert classify_row(-1.0, p_x0=0.99999, wilson_low=0.0) == "PASS"
    assert classify_row(-1.0, p_x0=0.4, wilson_low=0.3) == "FAIL"


def test_classify_boundary_inconclusive():
    assert classify_row(5e-5, p_x0=0.9, wilson_low=0.0) == "INCONCLUSIVE"
    assert classify_row(-9e-5, p_x0=0.9, wilson_low=0.0) == "INCONCLUSIVE"
    assert classify_row(2e-4, p_x0=0.5, wilson_low=0.1) == "PASS"


# -- sweep ---------------------------------------------------------------

def test_sweep_row_contents(small_sweep):
    assert len(small_sweep.rows) == 4
    assert small_sweep.x0 == 0.5
    for row in small_sweep.rows:
        assert row.power_converged
        assert row.extinction_tag == "fixed_point"
        assert row.trials == 150
        assert row.gen_limit >= 100
        oracle = benchmarks.gw_extinction_oracle(2.0, row.D)
        assert row.p_x0 == pytest.approx(oracle, abs=1e-5)
        assert row.eigenvalue == pytest.approx(2.0 - row.D, abs=1e-8)
        assert 0.0 <= row.censor_bias < cli.CENSOR_BIAS_TOL
    assert small_sweep.all_converged


def test_sweep_grid_order(small_sweep):
    cells = [(r.S, r.D) for r in small_sweep.rows]
    assert cells == [(0.5, 1.0), (0.5, 3.0), (2.0, 1.0), (2.0, 3.0)]


def test_sweep_artifacts(tmp_path):
    out = tmp_path / "out"
    result = run_sweep(small_config(), out_dir=str(out))
    csv = (out / "sweep.csv").read_text().splitlines()
    assert csv[0].startswith("# gfdlab sweep config_hash=")
    assert csv[1].startswith("S,D,lambda,")
    assert len(csv) == 2 + len(result.rows)
    assert (out / "report.txt").exists()
    profs = sorted(p.name for p in (out / "profiles").iterdir())
    assert len(profs) == 2 * len(result.rows)
    assert "extinction_S0.5_D1.0.csv" in profs
    assert "spectral_S2.0_D3.0.csv" in profs
    report = (out / "report.txt").read_text()
    assert "total_wall_time" in report
    assert config_hash(result.config) in report


def test_missed_censor_bound_is_reported(tmp_path, monkeypatch, caplog):
    # near criticality the recursion still moves at the last rung, so
    # with no tolerance left no rung can meet it
    monkeypatch.setattr(cli, "CENSOR_BIAS_TOL", 0.0)
    cfg = small_config(trials=20, s_values=(1.0,), d_values=(1.99,))
    with caplog.at_level(logging.WARNING, logger="gfdlab"):
        result = run_sweep(cfg, out_dir=str(tmp_path))
    row = result.rows[0]
    assert row.gen_limit == cli.CENSOR_LADDER[-1]
    assert row.censor_bias > 0.0
    assert "S=1.0 D=1.99" in caplog.text
    header, line = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert header.endswith(",censor_bias")
    assert float(line.rsplit(",", 1)[1]) == row.censor_bias


def test_sweep_csv_byte_identical(tmp_path):
    cfg = small_config()
    run_sweep(cfg, out_dir=str(tmp_path / "a"))
    run_sweep(cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
        (tmp_path / "b" / "sweep.csv").read_bytes()


def test_sweep_seed_changes_mc_only(tmp_path):
    cfg = small_config()
    other = replace(cfg, simulation=replace(cfg.simulation, seed=9))
    a = run_sweep(cfg)
    b = run_sweep(other)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.eigenvalue == rb.eigenvalue
        assert ra.p_x0 == rb.p_x0
    assert any(ra.survival != rb.survival for ra, rb in zip(a.rows, b.rows))


# -- checks --------------------------------------------------------------

def test_consistency_report(small_sweep):
    report = check_consistency(small_sweep)
    assert report.passed
    assert "4 pass" in report.claims[-1][3]


def test_consistency_flags_contradiction(small_sweep):
    bent = copy.deepcopy(small_sweep)
    bent.rows[0].eigenvalue = -2.0          # supercritical cell relabeled
    report = check_consistency(bent)
    assert not report.passed


def test_monotonicity_report(small_sweep):
    report = check_monotonicity(small_sweep)
    assert report.passed
    assert len(report.claims) == 7
    assert not report.informational
    text = "\n".join(report.lines())
    assert "monotonicity: PASS" in text


def test_monotonicity_detects_violation(small_sweep):
    bent = copy.deepcopy(small_sweep)
    key = (0.5, 1.0)
    vals = np.asarray(bent.profiles[key].values).copy()
    vals[-1] = vals[0] + 0.2                # p jumps up at the right edge
    bent.profiles[key] = replace(bent.profiles[key], values=vals)
    report = check_monotonicity(bent)
    claims = dict((c[0], c[1]) for c in report.claims)
    assert not claims["p non-increasing in x"]


def test_monotonicity_informational_mode(small_sweep):
    report = check_monotonicity(small_sweep, informational=True)
    assert report.informational
    assert "[informational]" in report.lines()[0]


# -- command line --------------------------------------------------------

def test_validate_exit_codes(capsys):
    assert main(["validate", "--config", "builtin:CONSTANT"]) == 0
    assert main(["validate", "--config", "builtin:ADVERSE_KERNEL"]) == 1
    out = capsys.readouterr().out
    assert "PASS kernel_symmetry" in out
    assert "FAIL kernel_symmetry" in out


def test_missing_config_is_exit_2(capsys):
    assert main(["validate", "--config", "/no/such/file.ini"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_builtin_is_exit_2_with_names(capsys):
    # the builtin: prefix must not fall through to the file loader
    assert main(["validate", "--config", "builtin:NOPE"]) == 2
    err = capsys.readouterr().err
    assert "unknown builtin model" in err
    assert "LOGRAMP" in err


def test_bad_env_value_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("GFDLAB_SEED", "banana")
    assert main(["simulate", "--config", "builtin:CONSTANT"]) == 2
    assert "GFDLAB_SEED" in capsys.readouterr().err


def test_flag_beats_env_beats_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(write_config(small_config(trials=150,
                                              s_values=(1.0,),
                                              d_values=(3.0,))))
    monkeypatch.setenv("GFDLAB_TRIALS", "60")
    assert main(["simulate", "--config", str(path)]) == 0
    assert "trials=60" in capsys.readouterr().out
    assert main(["simulate", "--config", str(path), "--trials", "25"]) == 0
    assert "trials=25" in capsys.readouterr().out
    monkeypatch.delenv("GFDLAB_TRIALS")
    assert main(["simulate", "--config", str(path)]) == 0
    assert "trials=150" in capsys.readouterr().out


def test_config_from_env(monkeypatch, capsys):
    monkeypatch.setenv("GFDLAB_CONFIG", "builtin:CONSTANT")
    monkeypatch.setenv("GFDLAB_TRIALS", "40")
    assert main(["simulate"]) == 0
    assert "survival=" in capsys.readouterr().out


def test_sweep_command_and_unconverged_exit(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    base = small_config(trials=60, s_values=(1.0,), d_values=(1.0,))
    path.write_text(write_config(base))
    assert main(["sweep", "--config", str(path),
                 "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()

    crippled = replace(base, solver=SolverSettings(grid_n=64,
                                                   power_max_iter=5))
    path.write_text(write_config(crippled))
    assert main(["sweep", "--config", str(path),
                 "--out", str(tmp_path / "bad")]) == 1
    assert "unconverged" in capsys.readouterr().err


def test_check_command(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(write_config(small_config(trials=60)))
    assert main(["check", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "consistency: PASS" in out
    assert "monotonicity: PASS" in out
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "consistency: PASS" in report


def test_check_informational_when_assumptions_fail(tmp_path, capsys):
    cfg = benchmarks.named_config("SLIDING_MARGIN")
    cfg = replace(cfg, solver=SolverSettings(grid_n=64),
                  simulation=replace(cfg.simulation, trials=80))
    path = tmp_path / "cfg.ini"
    path.write_text(write_config(cfg))
    code = main(["check", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert "monotonicity is informational" in out
    assert code == 0


def test_single_cell_commands(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["extinction", "--config", "builtin:CONSTANT", "--grid", "64",
                 "--out", out]) == 0
    assert main(["spectral", "--config", "builtin:CONSTANT", "--grid", "64",
                 "--out", out]) == 0
    text = capsys.readouterr().out
    assert "p(x0=0.5)=" in text
    assert "lambda=" in text
    assert (tmp_path / "out" / "extinction_S1.0_D1.0.csv").exists()
    assert (tmp_path / "out" / "spectral_S1.0_D1.0.csv").exists()


def test_event_log_file(tmp_path, capsys):
    path = tmp_path / "events.bin"
    assert main(["simulate", "--config", "builtin:CONSTANT",
                 "--event-log", str(path), "--trial", "2"]) == 0
    data = path.read_bytes()
    assert len(data) % EVENT_RECORD.size == 0
    records = list(EVENT_RECORD.iter_unpack(data))
    assert records, "expected at least one event"
    times = [r[0] for r in records]
    assert times == sorted(times)
    assert all(r[2] in (0, 1) for r in records)
    assert "events=" in capsys.readouterr().out


def test_negative_trial_is_exit_2(tmp_path, capsys):
    path = tmp_path / "events.bin"
    assert main(["simulate", "--config", "builtin:CONSTANT",
                 "--event-log", str(path), "--trial", "-3"]) == 2
    assert "--trial" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("checkpoints", ["0.5,,1.0", "0.5,nan", "-1,-0.5"])
def test_bad_checkpoints_are_exit_2(checkpoints, capsys):
    assert main(["martingale", "--config", "builtin:CONSTANT", "--grid", "64",
                 "--trials", "2", f"--checkpoints={checkpoints}"]) == 2
    assert "--checkpoints" in capsys.readouterr().err


def test_martingale_command(capsys):
    code = main(["martingale", "--config", "builtin:CONSTANT",
                 "--grid", "128", "--trials", "800",
                 "--checkpoints", "0.5,1.0"])
    out = capsys.readouterr().out
    assert "max |z|" in out
    assert code == 0
