"""Extinction-probability profiles by generation iteration.

The probability p(x) that a lineage started from mass x dies out solves
a fixed-point equation: integrating along the flow, the first event at
mass y is a death with weight D/g(y) or a division with weight b(y)/g(y),
discounted by the survival factor W(x, y) = exp(-int_x^y (b+D)/g), and a
division requires both daughter lines to die out. Iterating from p = 0
counts lineages extinct within n generations and increases to the
minimal fixed point.

Discretization: midpoint mass grid x_i = (i - 1/2) h with h = M/n. The
per-cell rate exponents c_j = h (b_j + D)/g_j accumulate in log space,
and the outer integral uses the product rule that is exact for piecewise
constant rates: cell j contributes the exact decrement of W across it
times the event split (D + b Phi)/(D + b) at the cell midpoint. A plain
midpoint rule is badly wrong near x = 0 where (b + D)/g has a pole; the
product rule keeps every weight in [0, 1] and telescopes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import support_quadrature_batch


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

    def __eq__(self, other):
        return (isinstance(other, MassGrid)
                and self.n == other.n and self.max_mass == other.max_mass)


@dataclass
class ExtinctionProfile:
    """Tabulated extinction probability with provenance tags.

    ``tag`` is ``generation`` for one more step of the recursion,
    ``fixed_point`` for a converged solve, ``unconverged`` otherwise.
    """

    grid: MassGrid
    values: np.ndarray
    S: float
    D: float
    generations: int
    tag: str
    last_delta: float = float("nan")

    def at(self, x):
        """Interpolate, constant beyond the first and last grid points."""
        out = np.interp(np.asarray(x, dtype=float), self.grid.x, self.values)
        return out if out.shape else float(out)

    def to_csv(self, path, residual=None, extra=None):
        with open(path, "w") as fh:
            fh.write(f"# S={self.S!r} D={self.D!r} generations={self.generations}"
                     f" tag={self.tag}\n")
            if residual is not None:
                fh.write(f"# residual={residual!r}\n")
            if extra:
                for key, val in extra.items():
                    fh.write(f"# {key}={val}\n")
            fh.write("x,p\n")
            for xi, pi in zip(self.grid.x, self.values):
                fh.write(f"{float(xi)!r},{float(pi)!r}\n")


class _Daughters:
    """Division rate and two-daughter quadrature tables, n x k each."""

    def __init__(self, model, S, grid, alpha_nodes=129):
        self.grid = grid
        x = grid.x
        self.b = np.asarray(model.b(S, x), dtype=float)
        self.alpha, self.wq = support_quadrature_batch(
            model.kernel, x, alpha_nodes)
        self._a_lo = self.alpha * x[:, None]
        self._a_hi = (1.0 - self.alpha) * x[:, None]

    def two_daughter_term(self, p):
        """Phi(y_j) = int q(y_j, a) p(a y_j) p((1-a) y_j) da on the grid."""
        x = self.grid.x
        low = np.interp(self._a_lo, x, p)
        high = np.interp(self._a_hi, x, p)
        return (self.wq * low * high).sum(axis=1)


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
        # exponent from x_i (cell midpoint) to the right edge of cell j >= i
        expo = 0.5 * c[:, None] + (cum[None, :] - cum[:, None])
        with np.errstate(over="ignore"):
            W = np.exp(-np.triu(expo))
        W = np.triu(W)
        # The right edge of the last cell is M itself, where g vanishes.
        # With b + D positive there the exponent integral diverges, so the
        # survival factor to M is exactly zero; the truncated cumulative
        # sum would instead leak O(h) event probability out of the domain.
        if float(np.asarray(model.b(S, grid.max_mass))) + D > 0.0:
            W[:, -1] = 0.0
        delta = np.zeros_like(W)
        delta[:, 1:] = W[:, :-1] - W[:, 1:]
        idx = np.arange(grid.n)
        delta[idx, idx] = 1.0 - W[idx, idx]
        self.weights = np.triu(delta)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.death_frac = np.where(rate > 0, D / rate, 0.0)
            self.birth_frac = np.where(rate > 0, self.b / rate, 0.0)

    def step(self, p):
        phi = self.two_daughter_term(p)
        frac = self.death_frac + self.birth_frac * phi
        return np.clip(self.weights @ frac, 0.0, 1.0)


def generation_step(profile, model, S, D, alpha_nodes=129):
    """One generation of the extinction recursion from a given profile."""
    stepper = _Stepper(model, S, D, profile.grid, alpha_nodes)
    values = stepper.step(np.asarray(profile.values, dtype=float))
    delta = float(np.max(np.abs(values - profile.values)))
    return ExtinctionProfile(grid=profile.grid, values=values, S=S, D=D,
                             generations=profile.generations + 1,
                             tag="generation", last_delta=delta)


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
                     max_generations=10000, alpha_nodes=129):
    """Extinction-within-n-generations probabilities at one starting mass.

    Runs the recursion once from p = 0, recording p_n(x0) at each
    checkpoint generation, and returns (profile, curve) where profile
    is the converged solve and curve maps checkpoint -> p_n(x0).
    Checkpoints past the stopping generation reuse the final profile
    (the iteration has stopped moving at tolerance scale by then).

    The gap p(x0) - p_n(x0) is exactly the probability that a lineage
    is still alive at generation n yet dies out later, which is the
    bias committed by a simulation that censors at generation n and
    counts the censored trial as surviving.
    """
    grid = MassGrid(grid_n, model.max_mass)
    stepper = _Stepper(model, S, D, grid, alpha_nodes)
    checkpoints = sorted(int(c) for c in checkpoints)
    p = np.zeros(grid_n)
    curve = {}
    delta = np.inf
    delta_prev = np.inf
    gens = 0
    done = False
    for gens in range(1, max_generations + 1):
        p_next = stepper.step(p)
        delta = float(np.max(np.abs(p_next - p)))
        p = p_next
        if gens in checkpoints:
            curve[gens] = float(np.interp(x0, grid.x, p))
        if delta < tol:
            ratio = delta / delta_prev if delta_prev > 0 else 0.0
            done = ratio >= 1.0 or delta * ratio / (1.0 - ratio) < tol
            if done:
                break
        delta_prev = delta
    final = float(np.interp(x0, grid.x, p))
    for c in checkpoints:
        curve.setdefault(c, final)
    profile = ExtinctionProfile(grid=grid, values=p, S=S, D=D,
                                generations=gens,
                                tag="fixed_point" if done else "unconverged",
                                last_delta=delta)
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


def fixed_point_gap(model, S, D, grid_n=512, tol=1e-8, max_generations=10000,
                    alpha_nodes=129):
    """Distance between the fixed points reached from below and from above.

    The recursion from p = 0 gives the minimal fixed point (extinction);
    from p = 1 it can settle on a larger solution when the equation has
    several. Returns (from_below, from_above, sup_gap) for diagnostics.
    """
    lo = solve_extinction(model, S, D, grid_n, tol, max_generations,
                          alpha_nodes, start=0.0)
    hi = solve_extinction(model, S, D, grid_n, tol, max_generations,
                          alpha_nodes, start=1.0)
    gap = float(np.max(np.abs(lo.values - hi.values)))
    return lo, hi, gap
