"""Extinction-probability profiles: generation recursion and Newton's method.

The probability p(x) that a lineage started from mass x dies out solves
a fixed-point equation p = F(p): integrating along the flow, the first
event at mass y is a death with weight D/g(y) or a division with weight
b(y)/g(y), discounted by the survival factor W(x, y) = exp(-int_x^y
(b+D)/g), and a division requires both daughter lines to die out.
Walking the recursion p_{n+1} = F(p_n) from p_0 = 0 gives p_n, the
probability of extinction within n generations, which increases to the
minimal fixed point.

Near criticality that walk converges slowly, so ``generation_curve``
takes the fixed point from Newton's method instead: F is monotone and
convex, and Newton's iteration started below the minimal fixed point
rises monotonically to it, quadratically when the process is
supercritical (Hautphenne, Latouche & Remiche, Linear Algebra Appl.
428, 2008). The walk then runs only as far as the censor ladder needs
its p_n. ``solve_extinction`` still walks to convergence.

Discretization: midpoint mass grid x_i = (i - 1/2) h with h = M/n. The
per-cell rate exponents c_j = h (b_j + D)/g_j accumulate in log space,
and the outer integral uses the product rule that is exact for piecewise
constant rates: cell j contributes the exact decrement of W across it
times the event split (D + b Phi)/(D + b) at the cell midpoint. A plain
midpoint rule is badly wrong near x = 0 where (b + D)/g has a pole; the
product rule keeps every weight in [0, 1] and telescopes exactly. The
two-daughter term Phi uses quadrature nodes that depend only on the
kernel and the grid; its interpolation stencils are sparse matrices
built once per (kernel, grid) and shared by every (S, D) cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import dtrmm

from .kernels import support_quadrature_batch

# Newton converges quadratically off criticality and linearly, halving
# the error each step, at it; 50 steps reach any tolerance above 1e-15
NEWTON_MAX_STEPS = 50


@dataclass(frozen=True)
class MassGrid:
    """Uniform midpoint grid on (0, M): x_i = (i - 1/2) M/n."""

    n: int
    max_mass: float

    @property
    def h(self):
        return self.max_mass / self.n

    @property
    def x(self):
        return (np.arange(self.n) + 0.5) * self.h


@dataclass
class ExtinctionProfile:
    """Tabulated extinction probability with provenance tags.

    ``tag`` is ``generation`` for one more step of the recursion,
    ``fixed_point`` for a converged solve, ``unconverged`` otherwise.
    ``generations`` counts the steps of the recursion walked,
    ``newton_steps`` the Newton steps taken, and ``last_delta`` is the
    sup norm of the last of either that produced ``values``.
    """

    grid: MassGrid
    values: np.ndarray
    S: float
    D: float
    generations: int
    tag: str
    last_delta: float = float("nan")
    newton_steps: int = 0

    def at(self, x):
        """Interpolate, constant beyond the first and last grid points."""
        out = np.interp(np.asarray(x, dtype=float), self.grid.x, self.values)
        return out if out.shape else float(out)

    def to_csv(self, path, residual=None, extra=None):
        with open(path, "w") as fh:
            fh.write(f"# S={self.S!r} D={self.D!r} generations={self.generations}"
                     f" newton_steps={self.newton_steps} tag={self.tag}\n")
            if residual is not None:
                fh.write(f"# residual={residual!r}\n")
            if extra:
                for key, val in extra.items():
                    fh.write(f"# {key}={val}\n")
            fh.write("x,p\n")
            for xi, pi in zip(self.grid.x, self.values):
                fh.write(f"{float(xi)!r},{float(pi)!r}\n")


def _interp_matrix(q, x):
    """``np.interp(q, x, p)`` as a CSR matrix acting on p.

    Two entries per row, int32 indices; past either end of x the row
    puts weight 1 on the end value, as ``np.interp`` does.
    """
    q = q.ravel()
    j = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
    t = np.clip((q - x[j]) / (x[j + 1] - x[j]), 0.0, 1.0)
    data = np.column_stack([1.0 - t, t]).ravel()
    cols = np.column_stack([j, j + 1]).ravel().astype(np.int32)
    indptr = np.arange(0, data.size + 1, 2, dtype=np.int32)
    return sparse.csr_matrix((data, cols, indptr), shape=(q.size, x.size))


@lru_cache(maxsize=8)
def _daughter_tables(kernel, n, max_mass, alpha_nodes):
    """Two-daughter quadrature of one (kernel, grid), shared across cells.

    Returns (lo, hi, wq, rows): the interpolation matrices of the daughter
    masses alpha x_i and (1 - alpha) x_i, shape (n k) x n; the flat
    quadrature weights, length n k; and the n x (n k) matrix that sums
    each grid point's k weighted nodes. The arrays are read-only because
    every caller gets the same objects.
    """
    x = MassGrid(n, max_mass).x
    alpha, wq = support_quadrature_batch(kernel, x, alpha_nodes)
    k = alpha.shape[1]
    wq = wq.ravel()
    lo = _interp_matrix(alpha * x[:, None], x)
    hi = _interp_matrix((1.0 - alpha) * x[:, None], x)
    rows = sparse.csr_matrix(
        (wq, np.arange(n * k, dtype=np.int32),
         np.arange(0, n * k + 1, k, dtype=np.int32)), shape=(n, n * k))
    wq.flags.writeable = False
    for m in (lo, hi, rows):
        for arr in (m.data, m.indices, m.indptr):
            arr.flags.writeable = False
    return lo, hi, wq, rows


class _Daughters:
    """Division rate and the two-daughter tables of a (kernel, grid)."""

    def __init__(self, model, S, grid, alpha_nodes=129):
        self.grid = grid
        self.b = np.asarray(model.b(S, grid.x), dtype=float)
        self.tables = _daughter_tables(model.kernel, grid.n, grid.max_mass,
                                       alpha_nodes)
        self.lo, self.hi, self.wq, self.rows = self.tables

    def two_daughter_term(self, p):
        """Phi(y_j) = int q(y_j, a) p(a y_j) p((1-a) y_j) da on the grid."""
        # a numpy row sum, not ``rows @``: on the CONSTANT model it gives
        # Phi(1) = 1 exactly, the sparse sum 1 - 1.1e-16
        return ((self.lo @ p) * (self.hi @ p) * self.wq).reshape(
            self.grid.n, -1).sum(axis=1)


class _Stepper(_Daughters):
    """Precomputed one-generation update for a fixed (model, S, D, grid)."""

    def __init__(self, model, S, D, grid, alpha_nodes=129):
        x, h = grid.x, grid.h
        g = np.asarray(model.g(S, x), dtype=float)
        if np.any(g <= 0):
            raise ValueError("growth must be positive on the interior grid")
        super().__init__(model, S, grid, alpha_nodes)
        rate = self.b + D
        c = h * rate / g
        cum = np.cumsum(c)
        # Survival factor W from x_i (cell midpoint) to the right edge of
        # cell j >= i, built in place so that at most two n x n arrays
        # are alive; below the diagonal exp overflows and is then zeroed
        W = cum[None, :] - cum[:, None]
        W += 0.5 * c[:, None]
        np.negative(W, out=W)
        with np.errstate(over="ignore"):
            np.exp(W, out=W)
        W[np.tri(grid.n, k=-1, dtype=bool)] = 0.0
        # The right edge of the last cell is M itself, where g vanishes.
        # With b + D positive there the exponent integral diverges, so the
        # survival factor to M is exactly zero; the truncated cumulative
        # sum would instead leak O(h) event probability out of the domain.
        if float(np.asarray(model.b(S, grid.max_mass))) + D > 0.0:
            W[:, -1] = 0.0
        # the drop of W across cell j; zero below the diagonal, as W is
        self.weights = np.empty_like(W)
        self.weights[:, 0] = 0.0
        np.subtract(W[:, :-1], W[:, 1:], out=self.weights[:, 1:])
        idx = np.arange(grid.n)
        self.weights[idx, idx] = 1.0 - W[idx, idx]
        with np.errstate(invalid="ignore", divide="ignore"):
            self.death_frac = np.where(rate > 0, D / rate, 0.0)
            self.birth_frac = np.where(rate > 0, self.b / rate, 0.0)

    def step(self, p):
        phi = self.two_daughter_term(p)
        frac = self.death_frac + self.birth_frac * phi
        return np.clip(self.weights @ frac, 0.0, 1.0)

    def newton_matrix(self, p):
        """I - F'(p) for the step F, Fortran-ordered for an in-place LU.

        F'(p) = W diag(b/(b+D)) dPhi/dp, and by the product rule
        dPhi/dp = R diag(hi p) lo + R diag(lo p) hi, with R the
        weighted row sum of the quadrature nodes.
        """
        low, high = self.lo @ p, self.hi @ p
        jac = (self.rows.multiply(high) @ self.lo
               + self.rows.multiply(low) @ self.hi).toarray(order="F")
        jac *= -self.birth_frac[:, None]
        # W is upper triangular: a triangular product in place, half a gemm
        jac = dtrmm(1.0, self.weights.T, jac, lower=1, trans_a=1,
                    overwrite_b=1)
        jac[np.diag_indices(self.grid.n)] += 1.0
        return jac


def _newton(stepper, p, tol, max_iter):
    """Newton's iteration for p = F(p) from ``p``.

    Started below the minimal fixed point (any p_n of the walk from 0)
    the iterates rise to it. Stops once the sup of a step is below
    ``tol``; returns (p, steps, sup of the last step). A start with
    F(p) = p exactly, as a walk that has settled reaches, is returned
    without factoring: at such a p = 1 of a critical cell I - F'(p) is
    singular.
    """
    size = np.inf
    for steps in range(1, max_iter + 1):
        residual = stepper.step(p) - p
        if not np.any(residual):
            return p, steps - 1, 0.0
        dp = lu_solve(lu_factor(stepper.newton_matrix(p), overwrite_a=True,
                                check_finite=False),
                      residual, check_finite=False)
        p = np.clip(p + dp, 0.0, 1.0)
        size = float(np.max(np.abs(dp)))
        if size < tol:
            return p, steps, size
    return p, max_iter, size


def solve_extinction(model, S, D, grid_n=512, tol=1e-8, max_generations=10000,
                     alpha_nodes=129, start=0.0):
    """Iterate the generation recursion to its fixed point.

    Starting from the constant profile ``start`` (0 gives the increasing
    sequence converging to the minimal fixed point). Stops when the sup
    change falls below ``tol``; the profile is tagged ``unconverged``
    when ``max_generations`` pass first.
    """
    grid = MassGrid(grid_n, model.max_mass)
    stepper = _Stepper(model, S, D, grid, alpha_nodes)
    p = np.full(grid_n, float(start))
    delta = np.inf
    delta_prev = np.inf
    gens = 0
    done = False
    for gens in range(1, max_generations + 1):
        p_next = stepper.step(p)
        delta = float(np.max(np.abs(p_next - p)))
        p = p_next
        if delta < tol:
            # geometric iteration: the remaining distance to the fixed
            # point is about delta * r / (1 - r), so stop only once that
            # projected tail is also below tol
            ratio = delta / delta_prev if delta_prev > 0 else 0.0
            done = ratio >= 1.0 or delta * ratio / (1.0 - ratio) < tol
            if done:
                break
        delta_prev = delta
    tag = "fixed_point" if done else "unconverged"
    return ExtinctionProfile(grid=grid, values=p, S=S, D=D,
                             generations=gens, tag=tag, last_delta=delta)


def generation_curve(model, S, D, x0, checkpoints, grid_n=512, tol=1e-8,
                     max_generations=10000, alpha_nodes=129, stop_gap=None):
    """Extinction-within-n-generations probabilities at one starting mass.

    Returns (profile, curve): profile is the minimal fixed point and
    curve maps each checkpoint n to p_n(x0). The recursion walks from
    p = 0 to the first checkpoint, where Newton's method started from
    that p_n gives the fixed point; the walk then goes on from checkpoint
    to checkpoint and stops once it is within ``tol`` of the fixed point
    in sup norm, or, with ``stop_gap``, at the first checkpoint whose gap
    p(x0) - p_n(x0) is below ``stop_gap``. Checkpoints past the stop read
    the fixed point. With no checkpoints Newton starts from p = 0. The
    walk never passes ``max_generations``, and it runs to the last
    checkpoint when Newton does not converge; the profile is then
    tagged ``unconverged``.

    The gap p(x0) - p_n(x0) is exactly the probability that a lineage
    is still alive at generation n yet dies out later, which is the
    bias committed by a simulation that censors at generation n and
    counts the censored trial as surviving.
    """
    grid = MassGrid(grid_n, model.max_mass)
    stepper = _Stepper(model, S, D, grid, alpha_nodes)
    checkpoints = sorted(int(c) for c in checkpoints)
    p = np.zeros(grid_n)
    gens = min(checkpoints[0], max_generations) if checkpoints else 0
    for _ in range(gens):
        p = stepper.step(p)
    fixed, steps, size = _newton(stepper, p, tol, NEWTON_MAX_STEPS)
    converged = size < tol
    p_x0 = float(np.interp(x0, grid.x, fixed))

    def reached():
        return converged and float(np.max(np.abs(p - fixed))) < tol

    curve = {}
    for c in checkpoints:
        while gens < min(c, max_generations) and not reached():
            p = stepper.step(p)
            gens += 1
        if gens < c:
            break
        curve[c] = float(np.interp(x0, grid.x, p))
        if reached() or (converged and stop_gap is not None
                         and abs(p_x0 - curve[c]) < stop_gap):
            break
    for c in checkpoints:
        curve.setdefault(c, p_x0)
    profile = ExtinctionProfile(grid=grid, values=fixed, S=S, D=D,
                                generations=gens,
                                tag="fixed_point" if converged else "unconverged",
                                last_delta=size, newton_steps=steps)
    return profile, curve


def fixed_point_residual(profile, model, S, D, alpha_nodes=129):
    """Sup-norm defect in the stationary transport form of the fixed point.

    The converged profile should satisfy
    g p' + D (1 - p) + b (Phi - p) = 0 with Phi the two-daughter term;
    the derivative is taken by central differences (one-sided at the
    ends), so the defect measures solver plus differencing error.
    """
    grid = profile.grid
    daughters = _Daughters(model, S, grid, alpha_nodes)
    p = np.asarray(profile.values, dtype=float)
    g = np.asarray(model.g(S, grid.x), dtype=float)
    dp = np.gradient(p, grid.x)
    phi = daughters.two_daughter_term(p)
    res = g * dp + D * (1.0 - p) + daughters.b * (phi - p)
    return float(np.max(np.abs(res)))
