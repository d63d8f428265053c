"""Division kernels: mass-fraction laws q(x, alpha) for binary fission.

A kernel assigns to each parent mass x a probability density q(x, .) on
(0, 1) for the fraction alpha kept by one daughter, symmetric about 1/2.
The built-in families put their mass on [l(x), 1 - l(x)] with
l(x) in (0, 1/2), so daughters never take less than a fraction l of the
parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("uniform", "beta_ramp", "equal_mitosis", "asymmetric_debug")

# Composite-Simpson node count used for kernel integrals; odd so the rule
# closes, 129 resolves the built-in densities far below other grid error.
N_ALPHA_NODES = 129


@dataclass(frozen=True)
class DivisionKernel:
    """Mass-fraction law of one daughter at division.

    Parameters
    ----------
    family : str
        One of ``uniform`` (flat on [l, 1-l]), ``beta_ramp`` (power-law
        bump rising from alpha = l, mirrored about 1/2), ``equal_mitosis``
        (point mass at 1/2, no density), ``asymmetric_debug`` (flat on
        (0, 1/2), deliberately violates symmetry, for validation tests).
    l0, l1 : float
        Support margin l(x) = l0 + l1 * x / M. Constant margin is l1 = 0.
    beta : float
        Power-law exponent of ``beta_ramp``; ``uniform`` behaves as beta 0.
    max_mass : float
        Upper end M of the mass interval, used only to scale l(x).
    """

    family: str = "uniform"
    l0: float = 0.25
    l1: float = 0.0
    beta: float = 0.0
    max_mass: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "beta_ramp" and self.beta < 0:
            raise ValueError("beta must be >= 0")

    @property
    def is_degenerate(self):
        return self.family == "equal_mitosis"

    def margin(self, x):
        """Support margin l(x); daughters take fractions in [l, 1-l]."""
        return self.l0 + self.l1 * np.asarray(x, dtype=float) / self.max_mass

    def _margin_checked(self, x):
        l = self.margin(x)
        if np.any(l < 0.0) or np.any(l >= 0.5):
            raise ValueError("margin l(x) left [0, 0.5) on the requested x")
        return l

    def _exponent(self, x):
        if self.family == "uniform":
            return np.zeros_like(np.asarray(x, dtype=float))
        return np.broadcast_to(self.beta, np.shape(np.asarray(x, dtype=float))).astype(float)

    def support(self, x):
        """Interval [l(x), 1 - l(x)] carrying the density."""
        if self.family == "asymmetric_debug":
            scalar = np.isscalar(x)
            z = np.zeros_like(np.asarray(x, dtype=float))
            return (z, z + 0.5) if not scalar else (0.0, 0.5)
        if self.is_degenerate:
            l = self.margin(x)
            half = np.full_like(np.asarray(l, dtype=float), 0.5)
            return half, half
        l = self._margin_checked(x)
        return l, 1.0 - l

    def density(self, x, alpha):
        """q(x, alpha), broadcasting over both arguments."""
        if self.is_degenerate:
            raise ValueError("equal_mitosis has no density")
        a = np.asarray(alpha, dtype=float)
        if self.family == "asymmetric_debug":
            out = np.where((a > 0.0) & (a < 0.5), 2.0, 0.0)
            out = np.broadcast_arrays(out, np.asarray(x, dtype=float))[0]
            return out if out.shape else float(out)
        l = self._margin_checked(x)
        beta = self._exponent(x)
        l, beta, a = np.broadcast_arrays(l, beta, a)
        half_width = 0.5 - l
        norm = 2.0 * half_width ** (beta + 1.0) / (beta + 1.0)
        lower = np.where((a >= l) & (a <= 0.5),
                         np.maximum(a - l, 0.0) ** beta, 0.0)
        upper = np.where((a > 0.5) & (a <= 1.0 - l),
                         np.maximum(1.0 - a - l, 0.0) ** beta, 0.0)
        out = (lower + upper) / norm
        return out if out.shape else float(out)

    def cdf(self, x, u):
        """F_x(u), the probability that the fraction is at most u."""
        if self.is_degenerate:
            raise ValueError("equal_mitosis has no density")
        uu = np.asarray(u, dtype=float)
        if self.family == "asymmetric_debug":
            out = np.clip(2.0 * uu, 0.0, 1.0)
            out = np.broadcast_arrays(out, np.asarray(x, dtype=float))[0]
            return out if out.shape else float(out)
        l = self._margin_checked(x)
        beta = self._exponent(x)
        l, beta, uu = np.broadcast_arrays(l, beta, uu)
        half_width = 0.5 - l
        lo = 0.5 * (np.clip(uu - l, 0.0, None) / half_width) ** (beta + 1.0)
        hi = 1.0 - 0.5 * (np.clip(1.0 - uu - l, 0.0, None) / half_width) ** (beta + 1.0)
        out = np.where(uu <= 0.5, np.where(uu < l, 0.0, lo),
                       np.where(uu > 1.0 - l, 1.0, hi))
        return out if out.shape else float(out)

    def inverse_cdf(self, x, v):
        """Quantile F_x^{-1}(v) for v in (0, 1); exact sampler transform."""
        vv = np.asarray(v, dtype=float)
        if np.any(vv < 0.0) or np.any(vv > 1.0):
            raise ValueError("quantile argument outside [0, 1]")
        if self.is_degenerate:
            out = np.full_like(vv, 0.5)
            return out if out.shape else 0.5
        if self.family == "asymmetric_debug":
            out = np.broadcast_arrays(0.5 * vv, np.asarray(x, dtype=float))[0]
            return out if out.shape else float(out)
        l = self._margin_checked(x)
        beta = self._exponent(x)
        l, beta, vv = np.broadcast_arrays(l, beta, vv)
        half_width = 0.5 - l
        p = 1.0 / (beta + 1.0)
        low = l + half_width * (2.0 * vv) ** p
        high = 1.0 - l - half_width * (2.0 * (1.0 - vv)) ** p
        out = np.where(vv <= 0.5, low, high)
        return out if out.shape else float(out)

    def sample(self, x, rng, size=None):
        """Draw fractions via inverse transform from ``rng.random``."""
        if self.is_degenerate:
            if size is None:
                return 0.5
            return np.full(size, 0.5)
        u = rng.random(size)
        return self.inverse_cdf(x, u)


def support_quadrature_batch(kernel, x, n_nodes=N_ALPHA_NODES):
    """Nodes and weights for integrals of q(x, .) over a 1-d array of masses.

    Returns (alpha, w) of shape (len(x), n_nodes). Row i holds the
    composite-Simpson weights times the density q(x_i, .), rescaled by
    the quadrature's own estimate of the normalization so that it sums
    to 1; integrals of f against q(x_i, .) are then ``w[i] @ f(alpha[i])``.
    The degenerate kernel has a single node at 1/2 with weight 1.
    """
    x = np.asarray(x, dtype=float)
    if kernel.is_degenerate:
        a = np.full((x.size, 1), 0.5)
        return a, np.ones((x.size, 1))
    if n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count")
    lo, hi = kernel.support(x)
    s = np.linspace(0.0, 1.0, n_nodes)
    alpha = lo[:, None] + (hi - lo)[:, None] * s[None, :]
    step = (hi - lo) / (n_nodes - 1)
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    q = kernel.density(x[:, None], alpha)
    wq = (w[None, :] * q) * (step / 3.0)[:, None]
    total = wq.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("kernel density vanished on its own support")
    return alpha, wq / total


def monotone_integral(kernel, f_x, f_vals, x, n_nodes=N_ALPHA_NODES):
    """Evaluate int q(x, a) f(a x) f((1-a) x) da for tabulated f.

    f is given by samples ``f_vals`` at ascending abscissae ``f_x`` and is
    extended as piecewise linear, constant beyond the table ends. For
    non-increasing f in [0, 1] the result is non-increasing in x whenever
    the kernel satisfies the daughter-mass coupling property.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    alpha, w = support_quadrature_batch(kernel, xs, n_nodes)
    left = np.interp(alpha * xs[:, None], f_x, f_vals)
    right = np.interp((1.0 - alpha) * xs[:, None], f_x, f_vals)
    out = (w * left * right).sum(axis=1)
    return float(out[0]) if scalar else out


@dataclass
class CouplingReport:
    """Outcome of the daughter-mass coupling checks.

    ``passed`` follows the two-point mass-level property actually used by
    the monotonicity arguments: for x <= y and every quantile level u,
    x F_x^{-1}(u) <= y F_y^{-1}(u) and x (1 - F_x^{-1}(u)) <= y (1 - F_y^{-1}(u)).
    The differential criterion is evaluated and reported separately.
    """

    passed: bool
    differential_ok: bool
    first_violation: dict | None = None
    notes: list = field(default_factory=list)


def check_coupling(kernel, x_grid=None, u_grid=None, fd_step=1e-6):
    """Check the coupling property of a kernel on a probe grid.

    Parameters
    ----------
    kernel : DivisionKernel
    x_grid : array, optional
        Ascending parent masses; default 256 interior points of (0, M).
    u_grid : array, optional
        Quantile levels in (0, 1); default 101 levels.
    fd_step : float
        Relative step of the central difference in the differential form.
    """
    M = kernel.max_mass
    if x_grid is None:
        x_grid = np.linspace(M / 257, M * 256 / 257, 256)
    else:
        x_grid = np.asarray(x_grid, dtype=float)
    if u_grid is None:
        u_grid = np.linspace(0.005, 0.995, 101)
    else:
        u_grid = np.asarray(u_grid, dtype=float)

    finv = kernel.inverse_cdf(x_grid[:, None], u_grid[None, :])
    finv = np.atleast_2d(finv)
    tol = 1e-12

    def first_bad(values, form):
        # values[i, j] = quantity at (x_i, u_j); needs to be non-decreasing in i
        drop = values[:-1, :] - values[1:, :]
        bad = np.argwhere(drop > tol)
        if bad.size == 0:
            return None
        i, j = bad[0]
        return {
            "form": form,
            "x": float(x_grid[i]),
            "y": float(x_grid[i + 1]),
            "u": float(u_grid[j]),
            "lhs": float(values[i, j]),
            "rhs": float(values[i + 1, j]),
        }

    viol_low = first_bad(x_grid[:, None] * finv, "two_point_low_daughter")
    viol_high = first_bad(x_grid[:, None] * (1.0 - finv), "two_point_high_daughter")

    # differential form: x dF^{-1}/dx must stay within [-F^{-1}, 1 - F^{-1}]
    h = np.maximum(fd_step * M, fd_step * x_grid)
    xm = np.clip(x_grid - h, x_grid[0] * 0.5, None)
    xp = np.clip(x_grid + h, None, M * (1 - 1e-12))
    d = (kernel.inverse_cdf(xp[:, None], u_grid[None, :])
         - kernel.inverse_cdf(xm[:, None], u_grid[None, :])) / (xp - xm)[:, None]
    xd = x_grid[:, None] * np.atleast_2d(d)
    slack = 1e-7
    diff_bad = np.argwhere((xd < -finv - slack) | (xd > 1.0 - finv + slack))
    differential_ok = diff_bad.size == 0

    first = viol_low or viol_high
    if first is None and not differential_ok:
        i, j = diff_bad[0]
        first = {
            "form": "differential",
            "x": float(x_grid[i]),
            "y": float(x_grid[i]),
            "u": float(u_grid[j]),
            "lhs": float(xd[i, j]),
            "rhs": float(1.0 - finv[i, j]),
        }

    notes = []
    if kernel.family in ("uniform", "beta_ramp") and not kernel.is_degenerate:
        # for affine margins the differential form reduces to
        # 0 <= l(x) + x l'(x) <= 1 at the extreme quantiles
        crit = kernel.margin(x_grid) + x_grid * (kernel.l1 / M)
        notes.append(
            f"margin criterion l + x l' in [{crit.min():.6g}, {crit.max():.6g}]")

    return CouplingReport(
        passed=viol_low is None and viol_high is None,
        differential_ok=differential_ok,
        first_violation=first,
        notes=notes,
    )
