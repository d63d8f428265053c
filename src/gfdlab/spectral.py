"""Principal eigenvalue and eigenfunctions of the population generator.

The generator acts on mass densities f on (0, M) by
transport -(g f)', removal -(D + b) f, and a fragmentation gain term
collecting the two daughters of every division at mass above x. Its
principal eigenvalue Lambda is the long-run exponential growth rate of
the expected population; the adjoint eigenfunction weights individuals
so that the weighted population compensated by exp(-Lambda t) has
constant expectation.

Discretization: finite volumes on the midpoint grid with upwind edge
fluxes (growth is rightward, and g vanishes at both ends so no flux
enters or leaves). The fragmentation block is renormalized per column so
each divider deposits exactly two daughters of discrete unit mass; the
balance identity sum_i h (A f)_i = sum_j h (b_j - D) f_j then holds to
rounding. The resulting matrix is Metzler, so for a shift sigma above
Lambda, sigma I - A is an M-matrix with a non-negative inverse; inverse
iteration on it finds the Perron pair in steps that do not grow with n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .extinction import MassGrid, _interp_matrix
from .kernels import support_quadrature_batch


@dataclass
class SpectralSolution:
    """Perron eigenvalue with normalized direct and adjoint vectors.

    u integrates to 1 against the cell width h; v is scaled so that
    h * sum(u * v) = 1. Residuals are sup norms of A u - Lambda u and
    A^T v - Lambda v for the assembled primal matrix A.
    """

    eigenvalue: float
    u: np.ndarray
    v: np.ndarray
    grid: MassGrid
    S: float
    D: float
    residual_primal: float
    residual_adjoint: float
    iterations: int
    converged: bool
    shift: float

    def to_csv(self, path, extra=None):
        with open(path, "w") as fh:
            fh.write(f"# S={self.S!r} D={self.D!r} eigenvalue={self.eigenvalue!r}\n")
            fh.write(f"# residual_primal={self.residual_primal!r}"
                     f" residual_adjoint={self.residual_adjoint!r}"
                     f" iterations={self.iterations} converged={self.converged}\n")
            if extra:
                for key, val in extra.items():
                    fh.write(f"# {key}={val}\n")
            fh.write("x,u,v\n")
            for xi, ui, vi in zip(self.grid.x, self.u, self.v):
                fh.write(f"{float(xi)!r},{float(ui)!r},{float(vi)!r}\n")


def assemble_operator(model, S, D, grid):
    """Dense matrix of the generator on the midpoint grid.

    Fragmentation columns are rescaled so the discrete daughter count of
    column j is exactly 2 b_j. Columns whose kernel support falls
    entirely below the first cell deposit both daughters into that cell.
    Equal mitosis puts both daughters at x_j / 2 with the linear
    interpolation stencil of the extinction recursion.
    """
    n, h, x = grid.n, grid.h, grid.x
    b = np.asarray(model.b(S, x), dtype=float)
    edges = np.arange(n + 1) * h
    g_edge = np.asarray(model.g(S, edges), dtype=float)
    g_edge[0] = 0.0    # no inflow at mass 0
    g_edge[-1] = 0.0   # no outflow at mass M; g vanishes there anyway

    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, idx] -= g_edge[1:] / h
    A[idx[1:], idx[:-1]] += g_edge[1:-1] / h
    A[idx, idx] -= D + b

    divider = b > 0.0
    if np.any(divider):
        if model.kernel.is_degenerate:
            # point kernel: both daughters of column j land at x_j / 2,
            # spread by row j of the interpolation stencil
            half = _interp_matrix(x / 2.0, x).tocoo()
            keep = divider[half.row]
            i, j = half.col[keep], half.row[keep]
            A[i, j] += 2.0 * b[j] * half.data[keep]
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = x[:, None] / x[None, :]
            q = np.zeros((n, n))
            strict = np.triu(np.ones((n, n), dtype=bool), k=1)
            qv = model.kernel.density(
                np.broadcast_to(x[None, :], (n, n))[strict], alpha[strict])
            q[strict] = qv
            for j in np.nonzero(divider)[0]:
                mass = q[:, j].sum()
                if mass > 0.0:
                    # column sum is exactly 2 b_j: two daughters per division
                    A[:, j] += 2.0 * b[j] * q[:, j] / mass
                else:
                    A[0, j] += 2.0 * b[j]
    return A


def assemble_adjoint(model, S, D, grid, alpha_nodes=129):
    """Independent discretization of the adjoint generator.

    Rows carry -(D + b), the one-sided transport term g f' (biased
    right, the direction information flows from), and the daughter
    average 2 b int q(x, a) f(a x) da rendered as interpolation stencils
    with normalized Simpson weights. Agreement with the transpose of the
    primal matrix is first order in h and is measured, not assumed.
    """
    n, h, x = grid.n, grid.h, grid.x
    b = np.asarray(model.b(S, x), dtype=float)
    g = np.asarray(model.g(S, x), dtype=float)

    B = np.zeros((n, n))
    idx = np.arange(n)
    B[idx, idx] -= D + b
    B[idx[:-1], idx[:-1]] -= g[:-1] / h
    B[idx[:-1], idx[1:]] += g[:-1] / h

    divider = np.nonzero(b > 0.0)[0]
    if divider.size:
        xs = x[divider]
        alpha, wq = support_quadrature_batch(model.kernel, xs, alpha_nodes)
        pos = alpha * xs[:, None] / h - 0.5
        i0 = np.floor(pos).astype(int)
        theta = pos - i0
        theta = np.where(i0 < 0, 0.0, theta)
        i0 = np.clip(i0, 0, n - 1)
        i1 = np.clip(i0 + 1, 0, n - 1)
        scale = 2.0 * b[divider][:, None] * wq
        rows = np.broadcast_to(divider[:, None], i0.shape)
        np.add.at(B, (rows.ravel(), i0.ravel()), (scale * (1.0 - theta)).ravel())
        np.add.at(B, (rows.ravel(), i1.ravel()), (scale * theta).ravel())
    return B


def eigen_residual(A, eigenvalue, u, v):
    """Sup-norm defects of the eigenpair against an assembled matrix.

    Each defect |A w - lam w| is scaled by max|w| so the measure does
    not depend on how the vector is normalized (the stored density u
    can peak like 1/g near M, which would make a raw norm unreadable).
    """
    u = np.asarray(u, dtype=float)
    rp = float(np.max(np.abs(A @ u - eigenvalue * u)) / np.max(np.abs(u)))
    v = np.asarray(v, dtype=float)
    ra = float(np.max(np.abs(A.T @ v - eigenvalue * v)) / np.max(np.abs(v)))
    return rp, ra


def principal_eigenpair(model, S, D, grid_n=512, tol=1e-10, max_iter=200000,
                        grid=None):
    """Perron eigenvalue and eigenvectors by two-sided inverse iteration.

    The shift sigma is one above the largest column sum b_j - D of A,
    which bounds Lambda for a Metzler matrix (with equality when b is
    constant), so sigma I - A has a non-negative inverse and the pair
    stays positive. One LU factorization serves every step, u through
    the factors and v through their transpose. The eigenvalue estimate
    is the two-sided Rayleigh quotient v A u / (v u). Convergence is
    judged on the vectors, not on the quotient: the quotient can
    stabilize long before u does (for constant division rate it is
    exact from the first step), so the iteration stops only when both
    scale-relative sup residuals |A w - lam w| / max(w) fall below
    ``tol``; a run that exhausts ``max_iter`` steps is unconverged.
    """
    if grid is None:
        grid = MassGrid(grid_n, model.max_mass)
    A = assemble_operator(model, S, D, grid)
    shift = float(np.max(A.sum(axis=0))) + 1.0
    work = np.negative(A, order="F")
    work.flat[::grid.n + 1] += shift
    lu = lu_factor(work, overwrite_a=True)

    u = np.full(grid.n, 1.0 / grid.n)
    v = np.full(grid.n, 1.0 / grid.n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        u = lu_solve(lu, u, check_finite=False)
        v = lu_solve(lu, v, trans=1, check_finite=False)
        u /= u.sum()
        v /= v.sum()
        Au = A @ u
        Atv = v @ A
        lam = float(v @ Au) / float(v @ u)
        res_u = float(np.max(np.abs(Au - lam * u))) / float(np.max(u))
        res_v = float(np.max(np.abs(Atv - lam * v))) / float(np.max(v))
        converged = res_u < tol and res_v < tol
        if converged:
            break
    h = grid.h
    u = np.maximum(u, 0.0)
    u /= u.sum() * h
    v = np.maximum(v, 0.0)
    v /= (u * v).sum() * h
    lam = float(v @ (A @ u)) / float(v @ u)
    rp, ra = eigen_residual(A, lam, u, v)
    return SpectralSolution(
        eigenvalue=lam, u=u, v=v, grid=grid, S=S, D=D,
        residual_primal=rp, residual_adjoint=ra,
        iterations=iterations, converged=converged, shift=shift,
    )
