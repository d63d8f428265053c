"""Deterministic mass transport between jumps, and event-time sampling.

Growth is separable, g = mu(S) gtilde(x). In the growth coordinate
theta = Theta(x) = int dx / gtilde every flow moves at speed mu(S); Theta
is the logit for gtilde = x (1 - x/M) and a log on each segment of a
piecewise-linear gtilde table. With b = mult(S) base(x) the cumulated
event rate from theta0 is (mult(S) (B(theta) - B(theta0)) + D (theta -
theta0)) / mu(S), where B(theta) = int base(X(theta)) dtheta is in closed
form for a constant or linear-ramp rate under logistic growth and
tabulated once per model otherwise. Masses 0 and M are equilibria: the
flow from M stays at M, and targets y >= M are never reached.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

_EVENT_NEWTON_TOL = 1e-12
_MASS_CEIL = 1.0 - 1e-15   # masses are kept strictly below M by this factor
# A tabulated B spans theta_lo + L [0, 1], the masses max(m_div, _TAIL M) to
# M - _TAIL (M - m_div). Its nodes are at L (k/n)^3, packed toward the kink
# or (x - m_div)^gamma cusp of base at the threshold, at L k/n for the cells
# far from it, and at the kinks of X(theta); k = 0..n.
_B_NODES = 4096
_TAIL = 1e-12


@lru_cache(maxsize=16)
def _coordinate(growth):
    """(Theta, X, theta at the kinks of X, X on arrays) for one growth model.

    On a gtilde segment of slope s, gtilde grows by e^(s dtheta) along the
    flow, so Theta is a log and X an exponential there. The two outer
    segments are written from the zero of gtilde at 0 or M, which keeps
    masses near 0 and M to full precision.
    """
    M = growth.max_mass
    if growth.has_logistic_profile:
        def expit(t):   # M e^t / (1 + e^t), stable on both tails
            if t >= 0.0:
                return M / (1.0 + math.exp(-t)) if t < 35.0 else M * _MASS_CEIL
            e = math.exp(t)
            return M * e / (1.0 + e)

        def expits(t):
            e = np.exp(-np.abs(t))
            return np.where(t < 0.0, M * e / (1.0 + e),
                            np.where(t < 35.0, M / (1.0 + e), M * _MASS_CEIL))

        return lambda x: math.log(x) - math.log(M - x), expit, (), expits
    x, g = np.array(growth.gtilde_table, dtype=float).T
    if x.size < 3 or np.any(g[1:-1] <= 0.0):
        raise ValueError("gtilde must be positive inside (0, M)")
    dx, dg = np.diff(x), np.diff(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(dg == 0.0, dx / g[:-1], dx * np.log1p(dg / g[:-1]) / dg)
    kinks = np.concatenate(([0.0], np.cumsum(step[1:-1]))).tolist()  # x[1:-1]
    s, x, g = (dg / dx).tolist(), x.tolist(), g.tolist()
    # (anchor mass, gtilde and theta, slope, zero of gtilde) per segment
    seg = [(x[1], g[1], 0.0, s[0], 0.0)]
    seg += [(x[k], g[k], kinks[k - 1], s[k], None) for k in range(1, len(s))]
    seg[-1] = seg[-1][:4] + (M,)
    inner = x[1:-1]

    def theta(y):
        xa, ga, ta, s, zero = seg[bisect_right(inner, y)]
        if zero is not None:
            return ta + math.log((y - zero) / (xa - zero)) / s
        u = (y - xa) / ga
        return ta + (math.log1p(s * u) / s if s else u)

    def mass(t):
        xa, ga, ta, s, zero = seg[bisect_right(kinks, t)]
        u = t - ta
        if zero is not None:
            return zero + (xa - zero) * math.exp(s * u)
        return xa + (ga * math.expm1(s * u) / s if s else ga * u)

    cols = np.array([p[:4] + (math.nan if p[4] is None else p[4],)
                     for p in seg])

    def masses(t):
        at = cols[np.searchsorted(kinks, t, side="right")]
        xa, ga, ta, s, zero = np.moveaxis(at, -1, 0)
        u = t - ta
        with np.errstate(all="ignore"):
            outer = zero + (xa - zero) * np.exp(s * u)
            inner = xa + np.where(s != 0.0, ga * np.expm1(s * u) / s, ga * u)
        return np.where(np.isnan(zero), inner, outer)

    return theta, mass, kinks, masses


class _RateTable:
    """B(theta) = int base(X(theta)) dtheta as a cubic Hermite spline.

    Node values come from 4-point Gauss-Legendre quadrature of each cell,
    node slopes are base(X(theta)), just above m_div at the first node.
    Two end cells carry B on linearly, with the limit slope base(M) at the
    top, so a rate that dies out at M keeps a finite total.
    """

    def __init__(self, growth, division):
        theta, _, kinks, mass = _coordinate(growth)
        M, c = division.max_mass, division.m_div
        lo = theta(max(c, _TAIL * M))
        k = np.arange(_B_NODES + 1) / _B_NODES
        t = lo + (theta(M - _TAIL * (M - c)) - lo) * np.union1d(k, k ** 3)
        t = np.union1d(t, [z for z in kinks if t[0] < z < t[-1]])
        gx, gw = np.polynomial.legendre.leggauss(4)
        h = np.diff(t)
        q = t[:-1, None] + 0.5 * h[:, None] * (gx + 1.0)
        B = np.concatenate(([0.0], np.cumsum(0.5 * h * (division.base(mass(q)) @ gw))))
        x = mass(t)
        x[0] = max(x[0], np.nextafter(c, M))
        d = division.base(x)
        d[-1] = division.base(M)
        dB, d0, d1 = np.diff(B), d[:-1] * h, d[1:] * h    # cubic in (theta - t) / h
        self.nodes = t.tolist()
        self.cells = [(self.nodes[0], 1.0, 0.0, float(d[0]), 0.0, 0.0)]
        self.cells += zip(self.nodes, h.tolist(), B.tolist(), d0.tolist(),
                          (3.0 * dB - 2.0 * d0 - d1).tolist(),
                          (d0 + d1 - 2.0 * dB).tolist())
        self.cells.append((self.nodes[-1], 1.0, float(B[-1]), float(d[-1]), 0.0, 0.0))

    def __call__(self, theta):
        """(B(theta), B'(theta))."""
        t, h, b, c1, c2, c3 = self.cells[bisect_right(self.nodes, theta)]
        u = (theta - t) / h
        return b + u * (c1 + u * (c2 + u * c3)), (c1 + u * (2.0 * c2 + 3.0 * u * c3)) / h


_rate_table = lru_cache(maxsize=16)(_RateTable)


def flow(model, S, x, t):
    """Mass after time t of a cell starting at x under resource S.

    X(Theta(x) + mu(S) t), vectorized over ``x`` and ``t``.
    """
    xx = np.asarray(x, dtype=float)
    if np.any(xx < 0) or np.any(xx > model.max_mass):
        raise ValueError("mass outside [0, M]")
    out = np.vectorize(JumpSampler(model, S, 0.0).mass_after,
                       otypes=[float])(xx, t)
    return out if out.shape else float(out)


def hitting_time(model, S, x, y):
    """First time the flow from x reaches y; +inf when y >= M.

    Requires 0 < x <= y <= M; the mass M is only approached
    asymptotically, so any target at or above M returns +inf.
    """
    if not 0.0 < x <= y <= model.max_mass:
        raise ValueError("need 0 < x <= y <= M")
    if y >= model.max_mass:
        return math.inf
    theta = _coordinate(model.growth)[0]
    return (theta(y) - theta(x)) / model.growth.mu(S)


def cumulative_rate(model, S, D, x, t):
    """Integrals of b and of b + D along the flow from x over [0, t].

    Returns the pair (int b(A_u) du, int (b + D)(A_u) du).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if x <= 0.0:
        return 0.0, D * t
    if x >= model.max_mass:
        ib = float(model.b(S, model.max_mass)) * t
        return ib, ib + D * t
    # the growth coordinate advances linearly along the flow, so the
    # division integral never needs the (possibly saturated) mass
    theta, r = _coordinate(model.growth)[0], float(model.growth.mu(S))
    B = _rate_table(model.growth, model.division)
    lo, hi = theta(max(x, model.division.m_div)), theta(x) + r * t
    ib = float(model.division.multiplier(S)) * max(B(hi)[0] - B(lo)[0], 0.0) / r
    return ib, ib + D * t


class JumpSampler:
    """Event-time sampler for one (model, S, D) triple.

    Prepares scalar constants once so that ``event`` costs a handful of
    float operations per call. It inverts the cumulated rate in the growth
    coordinate by Newton's method. Logistic growth with a constant or
    linear-ramp division rate (``fast``) takes B in closed form; every
    other model reads B from a table built once per model, and its Newton
    steps stay inside a bracket.
    """

    def __init__(self, model, S, D):
        self.model = model
        self.S = float(S)
        self.D = float(D)
        growth, div = model.growth, model.division
        self.M = model.max_mass
        mult = float(div.multiplier(S))
        self.fast = bool(
            growth.has_logistic_profile
            and (div.family == "constant"
                 or (div.family == "ramp" and div.gamma == 1.0)))
        self.r = float(growth.mu(S))
        if self.r <= 0:
            raise ValueError("growth speed mu(S) must be positive")
        self.c = div.m_div
        self.b_top = div.b_bar * mult
        self.constant_b = div.family == "constant"
        # linear-ramp slope; rate is slope * (m - c) above the threshold
        self.slope = 0.0 if self.constant_b else self.b_top / (self.M - self.c)
        self._mult = mult
        self._div = div
        self._coord = _coordinate(growth)
        self._table = None if self.fast else _rate_table(growth, div)
        self._theta_c = self._coord[0](self.c) if self.c > 0 else -math.inf
        # closed-form ramp: r val(theta) = slope M softplus(theta) + (D -
        # slope c) theta + const, and its second derivative in theta is
        # slope X'(theta) <= slope M / 4
        self._remainder = self.slope * self.M / (8.0 * self.r)

    def b(self, m):
        """Division rate at mass m, with the arithmetic of ``model.b``.

        The closed-form linear ramp is slope (m - c), which the closed-form
        event inverts.
        """
        c = self.c
        if m <= c:
            return 0.0
        if self.constant_b:
            return self.b_top
        if self.fast:
            return self.slope * (m - c)
        div, M = self._div, self.M
        q = m - c if div.family == "ramp" else M - m
        return self._mult * (div.b_bar * (q / (M - c)) ** div.gamma)

    def mass_after(self, m, dt):
        """Flow endpoint X(Theta(m) + mu(S) dt); masses 0 and M stay put."""
        if m <= 0.0 or m >= self.M:
            return min(max(m, 0.0), self.M)
        return self._coord[1](self._coord[0](m) + self.r * dt)

    def event(self, x, E):
        """Time and mass at which the cumulated event rate first reaches E.

        Solves int_0^T (b + D)(A_u(x)) du = E for a unit-exponential draw
        E. Returns (T, mass at T); (+inf, M) when the total rate mass is
        finite and below E (immortal lineage).
        """
        if E < 0:
            raise ValueError("E must be >= 0")
        if E == 0.0:
            return 0.0, float(x)
        M, D, r = self.M, self.D, self.r
        if x <= 0.0:
            # mass 0 is an equilibrium with b = 0; only death can strike
            return (E / D, 0.0) if D > 0.0 else (math.inf, 0.0)
        if x >= M:
            x = M * _MASS_CEIL
        to_theta, to_mass = self._coord[:2]
        theta_x = to_theta(x)
        elapsed = 0.0
        theta0, m0 = theta_x, x
        c = self.c
        if x < c:
            t_c = (self._theta_c - theta_x) / r
            if D > 0.0 and E <= D * t_c:
                T = E / D
                return T, to_mass(theta_x + r * T)
            E -= D * t_c
            elapsed = t_c
            theta0, m0 = self._theta_c, c
        if self._table is not None:
            theta = self._invert_table(theta0, E)
            if theta == math.inf:
                return math.inf, M
        elif self.constant_b:
            theta = theta0 + r * E / (self.b_top + D)
        else:
            # Newton on the closed form from the root of its second-order
            # Taylor model, r0 s + r1 s^2 / 2 = r E, in s = theta - theta0
            slope = self.slope
            r0 = slope * (m0 - c) + D
            r1 = slope * m0 * (1.0 - m0 / M)
            rE = r * E
            root = math.sqrt(r0 * r0 + 2.0 * r1 * rE)
            theta = theta0 + 2.0 * rE / (r0 + root)
            a, k = slope * M, D - slope * c
            exp, log1p = math.exp, math.log1p
            # softplus ln(1 + e^theta), one exp, stable on both tails
            sp0 = log1p(exp(-abs(theta0))) + (theta0 if theta0 > 0.0 else 0.0)
            tol = _EVENT_NEWTON_TOL * (1.0 + E)
            tol_step = tol / self._remainder
            for _ in range(200):
                e = exp(-abs(theta))
                if theta > 0.0:
                    sp, m = theta + log1p(e), M / (1.0 + e)
                else:
                    sp, m = log1p(e), M * e / (1.0 + e)
                err = (a * (sp - sp0) + k * (theta - theta0)) / r - E
                if abs(err) <= tol:
                    break
                # the step's Newton remainder is below slope M step^2 / (8 r)
                step = -err * r / (slope * (m - c) + D)
                theta += step
                if (step * step <= tol_step
                        or abs(step) <= 1e-15 * max(1.0, abs(theta))):
                    break
        return elapsed + (theta - theta0) / r, min(to_mass(theta), M * _MASS_CEIL)

    def _invert_table(self, theta0, E):
        """theta at which a tabulated cumulated rate from theta0 reaches E.

        Newton from below the root, its steps kept in a bracket [lo, hi]
        and bisecting it where they would leave it; +inf when the whole
        rate along the flow stays below E.
        """
        D, r = self.D, self.r
        table, mult = self._table, self._mult
        theta = theta0 + r * E / (self.b_top + D)
        B0 = table(theta0)[0]
        lo, hi = theta0, math.inf
        top, _, _, d_top = table.cells[-1][:4]
        top = max(top, theta0)
        v_top = (mult * (table(top)[0] - B0) + D * (top - theta0)) / r
        if v_top > E:
            hi = top
        elif mult * d_top + D > 0.0:   # B is linear past the top node
            lo = theta = max(theta, top)
        else:
            return math.inf
        for _ in range(200):
            Bt, dB = table(theta)
            err = (mult * (Bt - B0) + D * (theta - theta0)) / r - E
            if abs(err) <= _EVENT_NEWTON_TOL * (1.0 + E):
                break
            lo, hi = (theta, hi) if err < 0.0 else (lo, theta)
            rate = mult * dB + D
            step = -err * r / rate if rate > 0.0 else math.inf
            if not lo <= theta + step <= hi:
                step = 0.5 * (lo + hi) - theta
            theta += step
            if abs(step) <= 1e-15 * max(1.0, abs(theta)):
                break
        return theta
