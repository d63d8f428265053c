"""Generation recursion and its fixed point against branching oracles."""

from dataclasses import replace

import numpy as np
import pytest

from gfdlab import benchmarks
from gfdlab.cli import CENSOR_BIAS_TOL, CENSOR_LADDER
from gfdlab.extinction import (ExtinctionProfile, MassGrid, _Daughters,
                               _interp_matrix, _newton, _Stepper,
                               fixed_point_residual, generation_curve,
                               solve_extinction)


@pytest.fixture(scope="module")
def constant_profile():
    m = benchmarks.constant_rate_model()          # b = 2, D = 1
    return m, solve_extinction(m, 1.0, 1.0, grid_n=512)


def test_gw_oracle_supercritical(constant_profile):
    # mass-blind model: extinction is exactly min(1, D/b) everywhere
    _, prof = constant_profile
    assert prof.tag == "fixed_point"
    assert float(np.max(np.abs(prof.values - 0.5))) < 1e-6


def test_gw_oracle_other_ratios():
    for b, D in ((4.0, 1.0), (2.0, 3.0)):
        m = benchmarks.constant_rate_model(b_bar=b, D=D)
        prof = solve_extinction(m, 1.0, D, grid_n=256)
        oracle = benchmarks.gw_extinction_oracle(b, D)
        assert float(np.max(np.abs(prof.values - oracle))) < 1e-6


def test_profile_independent_of_kernel_margin():
    # genealogy of the mass-blind model ignores how mass is split
    a = solve_extinction(benchmarks.constant_rate_model(l0=0.25),
                         1.0, 1.0, grid_n=256)
    b = solve_extinction(benchmarks.constant_rate_model(l0=0.05),
                         1.0, 1.0, grid_n=256)
    assert float(np.max(np.abs(a.values - b.values))) < 1e-7


def test_values_are_probabilities(constant_profile):
    _, prof = constant_profile
    assert np.all(prof.values >= 0.0)
    assert np.all(prof.values <= 1.0)


def test_recursion_monotone_in_generations():
    m = benchmarks.logramp_model()
    stepper = _Stepper(m, 1.0, 0.6, MassGrid(128, 1.0))
    p = np.zeros(128)
    for _ in range(30):
        prev, p = p, stepper.step(p)
        assert np.all(p >= prev - 1e-14)


def test_unconverged_tag():
    m = benchmarks.logramp_model()
    prof = solve_extinction(m, 1.0, 0.6, grid_n=64, max_generations=3)
    assert prof.tag == "unconverged"
    assert prof.generations == 3


def test_generation_curve_matches_stepwise_recursion():
    m = benchmarks.logramp_model()
    S, D, x0 = 1.0, 1.0, 0.5
    _, curve = generation_curve(m, S, D, x0, (5, 20), grid_n=128)
    grid = MassGrid(128, 1.0)
    stepper = _Stepper(m, S, D, grid)
    walk = ExtinctionProfile(grid=grid, values=np.zeros(128), S=S, D=D,
                             generations=0, tag="start")
    for n in range(1, 21):
        walk = replace(walk, values=stepper.step(walk.values))
        if n == 5:
            assert curve[5] == pytest.approx(walk.at(x0), abs=1e-12)
    assert curve[20] == pytest.approx(walk.at(x0), abs=1e-12)


def test_generation_curve_final_value_is_fixed_point():
    m = benchmarks.constant_rate_model()
    prof, curve = generation_curve(m, 1.0, 1.0, 0.5, (10, 10_000), grid_n=256)
    assert prof.tag == "fixed_point"
    assert curve[10_000] == pytest.approx(prof.at(0.5), abs=1e-12)
    assert curve[10] < curve[10_000]


def test_curve_bias_decreases():
    """p - p_n is the exact survive-then-die mass beyond generation n."""
    m = benchmarks.logramp_model()
    prof, curve = generation_curve(m, 16.0, 1.0, 0.5, (100, 200, 400, 800),
                                   grid_n=256)
    p_inf = prof.at(0.5)
    gaps = [p_inf - curve[g] for g in (100, 200, 400, 800)]
    assert all(g >= -1e-12 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)


def test_minimal_fixed_point_from_below():
    # from p = 1 the recursion stays at the trivial fixed point, from 0
    # it finds the minimal one; the gap is the survival probability
    m = benchmarks.constant_rate_model()
    lo = solve_extinction(m, 1.0, 1.0, grid_n=128, start=0.0)
    hi = solve_extinction(m, 1.0, 1.0, grid_n=128, start=1.0)
    gap = float(np.max(np.abs(lo.values - hi.values)))
    assert float(np.max(np.abs(hi.values - 1.0))) < 1e-12
    assert gap == pytest.approx(0.5, abs=1e-6)


def test_residual_exact_constants():
    m = benchmarks.constant_rate_model()
    grid = MassGrid(512, 1.0)

    def const_profile(c):
        return ExtinctionProfile(grid=grid, values=np.full(512, c), S=1.0,
                                 D=1.0, generations=0, tag="fixed_point")

    # p = 1 and p = D/b solve the stationary equation exactly; p = 0
    # leaves exactly the death term D
    assert fixed_point_residual(const_profile(1.0), m, 1.0, 1.0) == 0.0
    assert fixed_point_residual(const_profile(0.5), m, 1.0, 1.0) < 1e-9
    assert fixed_point_residual(const_profile(0.0), m, 1.0, 1.0) == \
        pytest.approx(1.0, abs=1e-9)


def test_residual_small_on_constant_solution(constant_profile):
    m, prof = constant_profile
    assert fixed_point_residual(prof, m, 1.0, 1.0) < 1e-6


def test_monotone_in_start_mass():
    m = benchmarks.logramp_model()
    prof = solve_extinction(m, 2.0, 0.6, grid_n=256)
    assert float(np.max(np.diff(prof.values))) <= 1e-8


def test_monotone_in_death_rate():
    m = benchmarks.logramp_model()
    a = solve_extinction(m, 2.0, 0.6, grid_n=128)
    b = solve_extinction(m, 2.0, 1.0, grid_n=128)
    assert float(np.max(a.values - b.values)) <= 1e-8


def test_monotone_in_resource():
    m = benchmarks.logramp_model()
    a = solve_extinction(m, 1.0, 0.6, grid_n=128)
    b = solve_extinction(m, 4.0, 0.6, grid_n=128)
    assert float(np.max(b.values - a.values)) <= 1e-8


def test_at_interpolates_and_clamps(constant_profile):
    _, prof = constant_profile
    assert prof.at(0.5) == pytest.approx(0.5, abs=1e-6)
    assert prof.at(-1.0) == pytest.approx(prof.values[0])
    assert prof.at(2.0) == pytest.approx(prof.values[-1])
    out = prof.at(np.array([0.25, 0.75]))
    assert out.shape == (2,)


def test_csv_output(tmp_path, constant_profile):
    m, prof = constant_profile
    path = tmp_path / "prof.csv"
    prof.to_csv(path, residual=1.25e-9, extra={"note": "unit"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# S=1.0 D=1.0")
    assert "residual=1.25e-09" in lines[1]
    assert lines[3] == "x,p"
    assert len(lines) == 4 + 512
    x, p = lines[4].split(",")
    assert float(x) == pytest.approx(prof.grid.x[0])
    assert float(p) == pytest.approx(prof.values[0])


def _walked(stepper, generations):
    p = np.zeros(stepper.grid.n)
    for _ in range(generations):
        p = stepper.step(p)
    return p


def test_interp_matrix_follows_np_interp():
    x = MassGrid(64, 1.0).x
    q = np.linspace(-0.1, 1.1, 301)          # both ends and every cell
    p = np.sin(3.0 * x) + x ** 2
    assert np.max(np.abs(_interp_matrix(q, x) @ p
                         - np.interp(q, x, p))) < 1e-15


def test_daughter_tables_shared_across_cells():
    m = benchmarks.logramp_model()
    grid = MassGrid(128, 1.0)
    a = _Daughters(m, 1.0, grid)
    b = _Daughters(m, 4.0, grid)
    assert a.tables is b.tables


def test_newton_matrix_matches_finite_difference():
    m = benchmarks.logramp_model()
    stepper = _Stepper(m, 2.0, 0.6, MassGrid(64, 1.0))
    p = _walked(stepper, 20)
    # Phi is quadratic in p, so the central difference has no truncation
    # error; what is left is rounding
    eps = 1e-6
    jac = np.empty((64, 64))
    for j in range(64):
        e = np.zeros(64)
        e[j] = eps
        jac[:, j] = (stepper.step(p + e) - stepper.step(p - e)) / (2 * eps)
    ours = np.eye(64) - stepper.newton_matrix(p)
    assert np.max(np.abs(ours - jac)) <= 1e-6 * np.max(np.abs(jac))


@pytest.mark.parametrize("S, D", [(16.0, 1.0), (1.0, 0.6), (0.25, 0.3)])
def test_newton_rises_monotonically_to_fixed_point(S, D):
    m = benchmarks.logramp_model()
    stepper = _Stepper(m, S, D, MassGrid(128, 1.0))
    p = _walked(stepper, 100)
    fixed, steps, size = _newton(stepper, p, 1e-8, 50)
    assert size < 1e-8 and 1 <= steps < 50
    for _ in range(steps):
        nxt, _, _ = _newton(stepper, p, 1e-8, 1)
        assert np.all(nxt >= p - 1e-14)
        assert np.all(nxt <= fixed + 1e-12)
        p = nxt
    assert np.max(np.abs(p - fixed)) == 0.0


def test_newton_returns_exact_fixed_point_without_factoring():
    # a subcritical walk lands on a floating-point fixed point just below
    # p = 1; at p = 1 itself I - F'(p) is singular for a critical cell
    m = benchmarks.logramp_model()
    stepper = _Stepper(m, 0.25, 1.5, MassGrid(64, 1.0))
    p = _walked(stepper, 100)
    assert np.array_equal(stepper.step(p), p)
    fixed, steps, size = _newton(stepper, p, 1e-8, 50)
    assert fixed is p and steps == 0 and size == 0.0


def test_generation_curve_profile_matches_long_walk():
    m = benchmarks.logramp_model()
    walk = solve_extinction(m, 1.0, 0.6, grid_n=128, tol=0.0,
                            max_generations=20_000)
    assert walk.generations == 20_000
    for checkpoints in (CENSOR_LADDER, ()):
        prof, curve = generation_curve(m, 1.0, 0.6, 0.5, checkpoints,
                                       grid_n=128)
        assert prof.tag == "fixed_point" and prof.newton_steps >= 1
        assert np.max(np.abs(prof.values - walk.values)) < 1e-8
    assert prof.generations == 0 and curve == {}


def test_stop_gap_stops_at_the_censor_rung():
    m = benchmarks.logramp_model()
    prof, curve = generation_curve(m, 16.0, 1.0, 0.5, CENSOR_LADDER,
                                   grid_n=256, stop_gap=CENSOR_BIAS_TOL)
    p = prof.at(0.5)
    # the rung a sweep censors at, from a walk run to convergence
    assert prof.generations == 1600
    assert p - curve[800] >= CENSOR_BIAS_TOL > p - curve[1600] > 0.0
    assert curve[3200] == p
    assert prof.tag == "fixed_point"


def test_csv_header_counts_newton_steps(tmp_path):
    m = benchmarks.logramp_model()
    prof, _ = generation_curve(m, 1.0, 0.6, 0.5, (100,), grid_n=64)
    path = tmp_path / "prof.csv"
    prof.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert f"generations=100 newton_steps={prof.newton_steps} " in header
    assert prof.newton_steps >= 1
