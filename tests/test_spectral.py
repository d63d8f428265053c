"""Eigenvalue solver: oracles, matrix structure, normalizations."""

import numpy as np
import pytest

from gfdlab import benchmarks
from gfdlab.extinction import MassGrid
from gfdlab.spectral import (assemble_adjoint, assemble_operator,
                             eigen_residual, principal_eigenpair)


@pytest.fixture(scope="module")
def constant_solution():
    m = benchmarks.constant_rate_model()          # b = 2, D = 1
    return m, principal_eigenpair(m, 1.0, 1.0, grid_n=512)


@pytest.fixture(scope="module")
def logramp_solution():
    m = benchmarks.logramp_model()
    return m, principal_eigenpair(m, 2.0, 0.6, grid_n=512)


def test_mass_balance_eigenvalue(constant_solution):
    # constant division rate: growth rate is exactly b - D and the
    # renormalized fragmentation block makes the discrete identity exact
    _, sol = constant_solution
    assert sol.converged
    assert abs(sol.eigenvalue - 1.0) < 1e-9


def test_constant_adjoint_vector_is_flat(constant_solution):
    # mass-blind rates make reproductive value independent of mass
    _, sol = constant_solution
    v = sol.v / np.mean(sol.v)
    assert float(np.max(np.abs(v - 1.0))) < 1e-9


def test_normalizations(constant_solution, logramp_solution):
    for _, sol in (constant_solution, logramp_solution):
        h = sol.grid.h
        assert float(np.sum(sol.u) * h) == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(sol.u * sol.v) * h) == pytest.approx(1.0, abs=1e-12)
        assert np.all(sol.u >= 0)
        assert np.all(sol.v >= 0)


def test_residual_contract(constant_solution, logramp_solution):
    for _, sol in (constant_solution, logramp_solution):
        assert sol.converged
        assert sol.residual_primal < 1e-9
        assert sol.residual_adjoint < 1e-9


def test_eigen_residual_scale_invariant(constant_solution):
    m, sol = constant_solution
    op = assemble_operator(m, 1.0, 1.0, sol.grid)
    r1 = eigen_residual(op, sol.eigenvalue, sol.u, sol.v)
    r2 = eigen_residual(op, sol.eigenvalue, 7.0 * sol.u, 0.1 * sol.v)
    assert r1[0] == pytest.approx(r2[0], rel=1e-12)
    assert r1[1] == pytest.approx(r2[1], rel=1e-12)


def test_shift_identity_matrix_level():
    m = benchmarks.logramp_model()
    grid = MassGrid(128, 1.0)
    base = assemble_operator(m, 1.0, 0.6, grid)
    for delta in (0.1, 1.0):
        shifted = assemble_operator(m, 1.0, 0.6 + delta, grid)
        gap = np.max(np.abs(shifted - (base - delta * np.eye(128))))
        assert gap < 1e-14


def test_shift_identity_through_solver():
    m = benchmarks.logramp_model()
    lam = principal_eigenpair(m, 1.0, 0.6, grid_n=128).eigenvalue
    lam_shift = principal_eigenpair(m, 1.0, 1.6, grid_n=128).eigenvalue
    assert lam_shift == pytest.approx(lam - 1.0, abs=1e-12)


def test_operator_is_metzler(logramp_solution):
    m, _ = logramp_solution
    A = assemble_operator(m, 2.0, 0.6, MassGrid(128, 1.0))
    off = A - np.diag(np.diag(A))
    assert float(off.min()) >= 0.0


def test_column_sums_give_birth_minus_death():
    # integrating the generator against 1: transport telescopes away,
    # each division nets one extra individual
    m = benchmarks.logramp_model()
    grid = MassGrid(128, 1.0)
    S, D = 2.0, 0.6
    A = assemble_operator(m, S, D, grid)
    b = np.asarray(m.b(S, grid.x), dtype=float)
    assert float(np.max(np.abs(A.sum(axis=0) - (b - D)))) < 1e-10


def test_adjoint_rows_give_birth_minus_death():
    m = benchmarks.logramp_model()
    grid = MassGrid(128, 1.0)
    S, D = 2.0, 0.6
    B = assemble_adjoint(m, S, D, grid)
    b = np.asarray(m.b(S, grid.x), dtype=float)
    assert float(np.max(np.abs(B @ np.ones(128) - (b - D)))) < 1e-10


def test_adjoint_eigenvalue_agrees():
    m = benchmarks.logramp_model()
    grid = MassGrid(256, 1.0)
    B = assemble_adjoint(m, 2.0, 0.6, grid)
    lam_adj = float(np.max(np.linalg.eigvals(B).real))
    lam = principal_eigenpair(m, 2.0, 0.6, grid_n=256).eigenvalue
    assert lam_adj == pytest.approx(lam, abs=5e-3)


def test_equal_mitosis_assembly():
    m = benchmarks.constant_rate_model()
    from dataclasses import replace
    from gfdlab.kernels import DivisionKernel
    m = replace(m, kernel=DivisionKernel(family="equal_mitosis"))
    sol = principal_eigenpair(m, 1.0, 1.0, grid_n=256)
    assert sol.converged
    assert abs(sol.eigenvalue - 1.0) < 1e-9


@pytest.mark.parametrize("make", [benchmarks.constant_rate_model,
                                  benchmarks.logramp_model])
def test_equal_mitosis_daughters_land_at_half_mass(make):
    # the column sums fix Lambda wherever the daughters land; the first
    # moment also pins them at x_j / 2 where that is inside the grid
    from dataclasses import replace
    from gfdlab.kernels import DivisionKernel
    m = replace(make(), kernel=DivisionKernel(family="equal_mitosis"))
    S, D = 2.0, 0.6
    grid = MassGrid(128, m.max_mass)
    n, h, x = grid.n, grid.h, grid.x
    A = assemble_operator(m, S, D, grid)
    b = np.asarray(m.b(S, x), dtype=float)
    g = np.asarray(m.g(S, np.arange(n + 1) * h), dtype=float)
    g[[0, -1]] = 0.0
    frag = A - (np.diag(-g[1:] / h - (D + b)) + np.diag(g[1:-1] / h, -1))
    divider = b > 0.0
    assert np.allclose(frag.sum(axis=0)[divider], 2.0 * b[divider],
                       rtol=1e-12, atol=0.0)
    inside = divider & (x / 2.0 >= x[0])
    assert np.count_nonzero(inside) >= n // 2
    assert np.allclose((x @ frag)[inside], (b * x)[inside],
                       rtol=1e-12, atol=0.0)


def test_lambda_monotone_in_resource():
    m = benchmarks.logramp_model()
    lams = [principal_eigenpair(m, S, 0.6, grid_n=128).eigenvalue
            for S in (0.5, 1.0, 4.0, 16.0)]
    assert all(b >= a - 1e-10 for a, b in zip(lams, lams[1:]))


def test_unconverged_flag():
    m = benchmarks.logramp_model()
    sol = principal_eigenpair(m, 2.0, 0.6, grid_n=128, max_iter=5)
    assert not sol.converged
    assert sol.iterations == 5


def test_iterations_do_not_grow_with_grid():
    m = benchmarks.logramp_model()
    coarse = principal_eigenpair(m, 2.0, 0.6, grid_n=128)
    fine = principal_eigenpair(m, 2.0, 0.6, grid_n=1024)
    assert coarse.converged and fine.converged
    assert max(coarse.iterations, fine.iterations) <= \
        2 * min(coarse.iterations, fine.iterations)


def test_shift_bounds_eigenvalue():
    m = benchmarks.logramp_model()
    sol = principal_eigenpair(m, 2.0, 0.6, grid_n=128)
    A = assemble_operator(m, 2.0, 0.6, sol.grid)
    assert sol.shift > sol.eigenvalue
    assert sol.shift >= float(np.max(A.sum(axis=0)))


def test_eigenvalue_matches_dense_eigensolver():
    m = benchmarks.logramp_model()
    sol = principal_eigenpair(m, 2.0, 0.6, grid_n=128)
    A = assemble_operator(m, 2.0, 0.6, sol.grid)
    lam_dense = float(np.max(np.linalg.eigvals(A).real))
    assert sol.eigenvalue == pytest.approx(lam_dense, abs=1e-9)


def test_sensitive_to_eigenvector_perturbation(logramp_solution):
    # the residual really measures the pair, not just the value
    m, sol = logramp_solution
    op = assemble_operator(m, 2.0, 0.6, sol.grid)
    bent = sol.u * (1.0 + 0.05 * np.sin(np.pi * sol.grid.x))
    rp, _ = eigen_residual(op, sol.eigenvalue, bent, sol.v)
    assert rp > 1e-4


def test_csv_output(tmp_path, constant_solution):
    _, sol = constant_solution
    path = tmp_path / "sol.csv"
    sol.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# S=1.0 D=1.0 eigenvalue=")
    assert lines[2] == "x,u,v"
    assert len(lines) == 3 + 512
    x, u, v = lines[3].split(",")
    assert float(u) == pytest.approx(sol.u[0])
