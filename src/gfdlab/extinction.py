"""Extinction-probability profiles: generation recursion and Newton's method.

The probability p(x) that a lineage started from mass x dies out solves
a fixed-point equation p = F(p): integrating along the flow, the first
event at mass y is a death with weight D/g(y) or a division with weight
b(y)/g(y), discounted by the survival factor exp(-int_x^y (b+D)/g),
and a division requires both daughter lines to die out.
Walking the recursion p_{n+1} = F(p_n) from p_0 = 0 gives p_n, the
probability of extinction within n generations, which increases to the
minimal fixed point.

Both solvers walk it with one loop and one stop rule (``_Walk``). Near
criticality the walk is slow, so ``generation_curve`` stops it at the
first censor rung, or sooner, and Newton's method started there gives
the fixed point: F is monotone and convex, and Newton's iteration
started below the minimal fixed point rises monotonically to it,
quadratically when the process is supercritical (Hautphenne, Latouche
& Remiche, Linear Algebra Appl. 428, 2008).

Discretization: midpoint mass grid x_i = (i - 1/2) h with h = M/n. The
outer integral uses the product rule that is exact for piecewise
constant rates: cell j contributes the exact decrement of the survival
factor across it times the event split (D + b Phi)/(D + b) at the cell
midpoint. A plain midpoint rule is badly wrong near x = 0 where
(b + D)/g has a pole; the product rule keeps every weight in [0, 1] and
telescopes exactly. The weights form W = L^-1 C. With half_i =
exp(-h (b_i + D)/(2 g_i)), the survival factor over half a cell, and
rho_i = half_i half_{i+1}, L = I - rho on the superdiagonal and C is
bidiagonal (diagonal 1 - half_i, superdiagonal half_i - rho_i). So a
generation is one backward two-term sweep, and no factor can overflow.
The two-daughter term Phi uses quadrature nodes that depend only on the
kernel and the grid; its interpolation stencils are sparse matrices
built once per (kernel, grid) and shared by every (S, D) cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dtbtrs

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

    ``tag`` is ``fixed_point`` for a converged solve, ``unconverged``
    otherwise; ``generations`` counts the steps of the recursion walked
    and ``newton_steps`` the Newton steps taken.
    """

    grid: MassGrid
    values: np.ndarray
    S: float
    D: float
    generations: int
    tag: str
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


class _Stepper:
    """One-generation update for a fixed (model, S, D, grid): L, C and
    the event split, O(n) on top of the shared daughter tables."""

    def __init__(self, model, S, D, grid, alpha_nodes=129):
        x, h = grid.x, grid.h
        g = np.asarray(model.g(S, x), dtype=float)
        if np.any(g <= 0):
            raise ValueError("growth must be positive on the interior grid")
        self.grid = grid
        self.b = np.asarray(model.b(S, x), dtype=float)
        self.tables = _daughter_tables(model.kernel, grid.n, grid.max_mass,
                                       alpha_nodes)
        self.lo, self.hi, self.wq, self.rows = self.tables
        rate = self.b + D
        half = np.exp(-0.5 * h * rate / g)
        rho = half[:-1] * half[1:]
        # L in LAPACK's upper band storage, C by its two diagonals
        self.band = np.ones((2, grid.n), order="F")
        self.band[0, 1:] = -rho
        self.diag, self.upper = 1.0 - half, half[:-1] - rho
        # The right edge of the last cell is M itself, where g vanishes.
        # With b + D positive there the exponent integral diverges, so no
        # lineage reaches M; half a cell would leak O(h) event probability.
        if float(np.asarray(model.b(S, grid.max_mass))) + D > 0.0:
            self.diag[-1] = 1.0
        with np.errstate(invalid="ignore", divide="ignore"):
            self.death_frac = np.where(rate > 0, D / rate, 0.0)
            self.birth_frac = np.where(rate > 0, self.b / rate, 0.0)

    def two_daughter_term(self, p):
        """Phi(y_j) = int q(y_j, a) p(a y_j) p((1-a) y_j) da on the grid."""
        # a numpy row sum, not ``rows @``: on the CONSTANT model it gives
        # Phi(1) = 1 exactly, the sparse sum 1 - 1.1e-16
        return ((self.lo @ p) * (self.hi @ p) * self.wq).reshape(
            self.grid.n, -1).sum(axis=1)

    def step(self, p):
        frac = self.death_frac + self.birth_frac * self.two_daughter_term(p)
        cf = self.diag * frac
        cf[:-1] += self.upper * frac[1:]
        # the backward sweep z_i = (C frac)_i + rho_i z_{i+1}
        return np.clip(dtbtrs(self.band, cf, diag="U", overwrite_b=1)[0],
                       0.0, 1.0)

    def newton_matrix(self, p):
        """L (I - F'(p)) for the step F, Fortran-ordered for an in-place LU.

        F'(p) = L^-1 C diag(b/(b+D)) dPhi/dp, and by the product rule
        dPhi/dp = R diag(hi p) lo + R diag(lo p) hi, with R the
        weighted row sum of the quadrature nodes.
        """
        low, high = self.lo @ p, self.hi @ p
        jac = (self.rows.multiply(high) @ self.lo
               + self.rows.multiply(low) @ self.hi).toarray(order="F")
        # -C diag(b/(b+D)): row i becomes -(b/(b+D))_i diag_i row_i
        # - (b/(b+D))_{i+1} upper_i row_{i+1}
        nxt = (self.upper * -self.birth_frac[1:])[:, None] * jac[1:]
        jac *= (self.diag * -self.birth_frac)[:, None]
        jac[:-1] += nxt
        idx = np.arange(self.grid.n)
        jac[idx, idx] += 1.0
        jac[idx[:-1], idx[1:]] += self.band[0, 1:]
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
        # the Newton matrix is L (I - F'(p)), so solve against L residual
        rhs = residual.copy()
        rhs[:-1] += stepper.band[0, 1:] * residual[1:]
        dp = lu_solve(lu_factor(stepper.newton_matrix(p), overwrite_a=True,
                                check_finite=False), rhs, check_finite=False)
        p = np.clip(p + dp, 0.0, 1.0)
        size = float(np.max(np.abs(dp)))
        if size < tol:
            return p, steps, size
    return p, max_iter, size


class _Walk:
    """The recursion p_{n+1} = F(p_n) under its one stop rule.

    It has settled once the sup delta of a step and the projected
    geometric tail delta r / (1 - r) are below ``tol``, r the ratio of
    the last two steps, or once r >= 1. Calls to ``to`` keep r.
    """

    def __init__(self, stepper, p, tol):
        self.stepper, self.p, self.tol = stepper, p, tol
        self.generations, self.settled, self._delta = 0, False, np.inf

    def to(self, limit):
        """Step until ``limit`` generations are walked or the walk settles."""
        while self.generations < limit and not self.settled:
            p, self.p = self.p, self.stepper.step(self.p)
            delta = float(np.max(np.abs(self.p - p)))
            self.generations += 1
            if delta < self.tol:
                r = delta / self._delta
                self.settled = r >= 1.0 or delta * r / (1.0 - r) < self.tol
            self._delta = delta


def solve_extinction(model, S, D, grid_n=512, tol=1e-8, max_generations=10000,
                     alpha_nodes=129, start=0.0):
    """Walk the generation recursion from the constant profile ``start``.

    From 0 it rises to the minimal fixed point. The profile is tagged
    ``unconverged`` when ``max_generations`` pass before the walk settles.
    """
    grid = MassGrid(grid_n, model.max_mass)
    walk = _Walk(_Stepper(model, S, D, grid, alpha_nodes),
                 np.full(grid_n, float(start)), tol)
    walk.to(max_generations)
    return ExtinctionProfile(grid=grid, values=walk.p, S=S, D=D,
                             generations=walk.generations,
                             tag="fixed_point" if walk.settled else "unconverged")


def generation_curve(model, S, D, x0, checkpoints, grid_n=512, tol=1e-8,
                     alpha_nodes=129, stop_gap=None):
    """Extinction-within-n-generations probabilities at one starting mass.

    Returns (profile, curve): profile is the minimal fixed point and
    curve maps each checkpoint n to p_n(x0). The walk from p = 0 stops at
    the first checkpoint, or before it once settled, and Newton's method
    starts there. The walk then goes on to each checkpoint in turn until
    it settles or, with ``stop_gap``, until p(x0) - p_n(x0) < ``stop_gap``;
    later checkpoints read the fixed point. A failed Newton iteration
    tags the profile ``unconverged`` and voids ``stop_gap``.

    The gap p(x0) - p_n(x0) is exactly the probability that a lineage
    is still alive at generation n yet dies out later, which is the
    bias committed by a simulation that censors at generation n and
    counts the censored trial as surviving.
    """
    grid = MassGrid(grid_n, model.max_mass)
    stepper = _Stepper(model, S, D, grid, alpha_nodes)
    checkpoints = sorted(int(c) for c in checkpoints)
    walk = _Walk(stepper, np.zeros(grid_n), tol)
    walk.to(checkpoints[0] if checkpoints else 0)
    fixed, steps, size = _newton(stepper, walk.p, tol, NEWTON_MAX_STEPS)
    converged = size < tol
    p_x0 = float(np.interp(x0, grid.x, fixed))
    curve = {}
    for c in checkpoints:
        walk.to(c)
        if walk.settled:
            break
        curve[c] = float(np.interp(x0, grid.x, walk.p))
        if converged and stop_gap is not None and abs(p_x0 - curve[c]) < stop_gap:
            break
    for c in checkpoints:
        curve.setdefault(c, p_x0)
    profile = ExtinctionProfile(grid=grid, values=fixed, S=S, D=D,
                                generations=walk.generations,
                                tag="fixed_point" if converged else "unconverged",
                                newton_steps=steps)
    return profile, curve


def fixed_point_residual(profile, model, S, D, alpha_nodes=129):
    """Sup-norm defect in the stationary transport form of the fixed point.

    The converged profile should satisfy
    g p' + D (1 - p) + b (Phi - p) = 0 with Phi the two-daughter term;
    the derivative is taken by central differences (one-sided at the
    ends), so the defect measures solver plus differencing error.
    """
    grid = profile.grid
    stepper = _Stepper(model, S, D, grid, alpha_nodes)
    p = np.asarray(profile.values, dtype=float)
    g = np.asarray(model.g(S, grid.x), dtype=float)
    dp = np.gradient(p, grid.x)
    phi = stepper.two_daughter_term(p)
    res = g * dp + D * (1.0 - p) + stepper.b * (phi - p)
    return float(np.max(np.abs(res)))
