"""Deterministic mass transport between jumps, and event-time sampling.

Between division and death events a cell's mass follows dx/dt = g(S, x).
For the logistic profile g = mu(S) x (1 - x/M) the flow, hitting times,
and cumulated rates all have closed forms; other growth models fall back
to adaptive integration. Masses 0 and M are equilibria: the flow started
at M stays at M, and targets y >= M are never reached in finite time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

_EVENT_NEWTON_TOL = 1e-12
_MASS_CEIL = 1.0 - 1e-15   # masses are kept strictly below M by this factor


def _growth_of(model):
    return getattr(model, "growth", model)


def _softplus(t):
    if t > 35.0:
        return t
    if t < -35.0:
        return math.exp(t)
    return math.log1p(math.exp(t))


def _theta(z, M):
    """Logit mass coordinate ln(z / (M - z)); monotone on (0, M)."""
    return math.log(z) - math.log(M - z)


def _mass_from_theta(t, M):
    # m = M e^t / (1 + e^t), stable on both tails
    if t >= 0.0:
        return M / (1.0 + math.exp(-t)) if t < 35.0 else M * _MASS_CEIL
    e = math.exp(t)
    return M * e / (1.0 + e)


def flow(model, S, x, t):
    """Mass after time t of a cell starting at x under resource S.

    Closed form for the logistic growth profile, otherwise an adaptive
    ODE solve. Vectorizes over ``x`` and ``t`` for the closed form.
    """
    growth = _growth_of(model)
    M = growth.max_mass
    if growth.has_logistic_profile:
        r = growth.mu(S)
        xx = np.asarray(x, dtype=float)
        tt = np.asarray(t, dtype=float)
        if np.any(xx < 0) or np.any(xx > M):
            raise ValueError("mass outside [0, M]")
        with np.errstate(divide="ignore", over="ignore"):
            w = (M - xx) / np.where(xx > 0, xx, 1.0)
            out = M / (1.0 + w * np.exp(-r * tt))
        out = np.where(xx > 0, out, 0.0)
        out = np.where(xx >= M, M, out)
        return out if out.shape else float(out)
    if np.ndim(x) or np.ndim(t):
        raise ValueError("array arguments need the logistic profile")
    if x <= 0.0:
        return 0.0
    if x >= M:
        return M
    if t == 0.0:
        return float(x)
    sol = solve_ivp(lambda _, m: growth.g(S, np.clip(m, 0.0, M)),
                    (0.0, t), [x], rtol=1e-10, atol=1e-13 * M)
    return float(min(sol.y[0, -1], M))


def hitting_time(model, S, x, y):
    """First time the flow from x reaches y; +inf when y >= M.

    Requires 0 < x <= y <= M; the mass M is only approached
    asymptotically, so any target at or above M returns +inf.
    """
    growth = _growth_of(model)
    M = growth.max_mass
    if not 0.0 < x <= y <= M:
        raise ValueError("need 0 < x <= y <= M")
    if y >= M:
        return math.inf
    if y == x:
        return 0.0
    if growth.has_logistic_profile:
        r = growth.mu(S)
        return (_theta(y, M) - _theta(x, M)) / r
    val, _ = quad(lambda z: 1.0 / growth.g(S, z), x, y, limit=200)
    return float(val)


def cumulative_rate(model, S, D, x, t):
    """Integrals of b and of b + D along the flow from x over [0, t].

    Returns the pair (int b(A_u) du, int (b + D)(A_u) du). The division
    part uses the mass-variable closed form for built-in families and an
    augmented ODE otherwise.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    sampler = JumpSampler(model, S, D)
    if sampler.fast:
        M = sampler.M
        if x <= 0.0:
            return 0.0, D * t
        if x >= M:
            ib = float(model.b(S, M)) * t
            return ib, ib + D * t
        # the logit coordinate advances linearly along the logistic flow,
        # so the division integral never needs the (possibly saturated) mass
        theta_m = _theta(x, M) + sampler.r * t
        ib = sampler._hb_theta(max(x, sampler.c), theta_m)
        return ib, ib + D * t
    if x <= 0.0:
        return 0.0, D * t
    growth = _growth_of(model)
    M = growth.max_mass

    def rhs(_, state):
        m = min(max(state[0], 0.0), M)
        return [growth.g(S, m), model.b(S, m)]

    sol = solve_ivp(rhs, (0.0, t), [x, 0.0], rtol=1e-10, atol=1e-13)
    ib = float(sol.y[1, -1])
    return ib, ib + D * t


class JumpSampler:
    """Event-time sampler for one (model, S, D) triple.

    Prepares scalar constants once so that ``event`` costs a handful of
    float operations per call; built-in families (logistic growth with a
    constant or linear-ramp division rate) invert the cumulated rate in
    the logit mass coordinate by a monotone Newton iteration. Anything
    else integrates the augmented ODE with a terminal event.
    """

    def __init__(self, model, S, D):
        self.model = model
        self.S = float(S)
        self.D = float(D)
        growth = model.growth
        div = model.division
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
        self._theta_c = _theta(self.c, self.M) if self.c > 0 else -math.inf
        self._log_M = math.log(self.M)

    # fast scalar division rate, mirrors model.b for the built-in families
    def b(self, m):
        if not self.fast:
            return float(self.model.b(self.S, m))
        if m <= self.c:
            return 0.0
        if self.constant_b:
            return self.b_top
        return self.slope * (m - self.c)

    def mass_after(self, m, dt):
        """Flow endpoint, fast path in the logit coordinate."""
        if not self.fast:
            return flow(self.model, self.S, m, dt)
        if m <= 0.0:
            return 0.0
        if m >= self.M:
            return self.M
        return _mass_from_theta(_theta(m, self.M) + self.r * dt, self.M)

    def _hb_theta(self, lo, theta_m):
        """Same integral with the upper end given in the logit coordinate."""
        M = self.M
        theta_lo = _theta(lo, M)
        if theta_m <= theta_lo:
            return 0.0
        if self.constant_b:
            return self.b_top * (theta_m - theta_lo) / self.r
        sp = _softplus(theta_m)
        log_m = self._log_M + theta_m - sp
        log_Mm = self._log_M - sp
        c = self.c
        return (self.slope / self.r) * (
            c * (math.log(lo) - log_m)
            + (M - c) * (math.log(M - lo) - log_Mm))

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
        if not self.fast:
            return self._event_generic(x, E)
        M, D, r = self.M, self.D, self.r
        if x <= 0.0:
            # mass 0 is an equilibrium with b = 0; only death can strike
            return (E / D, 0.0) if D > 0.0 else (math.inf, 0.0)
        if x >= M:
            x = M * _MASS_CEIL
        theta_x = _theta(x, M)
        elapsed = 0.0
        theta0 = theta_x
        if x < self.c:
            t_c = (self._theta_c - theta_x) / r
            if D > 0.0 and E <= D * t_c:
                T = E / D
                return T, _mass_from_theta(theta_x + r * T, M)
            E -= D * t_c
            elapsed = t_c
            theta0 = self._theta_c
        # Newton in the logit coordinate; the cumulated rate is convex and
        # increasing there, and the start below the root keeps every step
        # on the safe side.
        theta = theta0 + r * E / (self.b_top + D)
        target = E
        c, slope = self.c, self.slope
        log_lo = None
        if not self.constant_b:
            lo = max(x, c)
            log_lo = (math.log(lo), math.log(M - lo))
        for _ in range(200):
            sp = _softplus(theta)
            log_m = self._log_M + theta - sp
            log_Mm = self._log_M - sp
            if self.constant_b:
                val = (self.b_top + D) * (theta - theta0) / r
                m = _mass_from_theta(theta, M)
                rate = self.b_top + D
            else:
                val = (slope / r) * (c * (log_lo[0] - log_m)
                                     + (M - c) * (log_lo[1] - log_Mm))
                val += D * (theta - theta0) / r
                m = _mass_from_theta(theta, M)
                rate = slope * (m - c) + D
            err = val - target
            if abs(err) <= _EVENT_NEWTON_TOL * (1.0 + target):
                break
            step = -err * r / rate
            theta += step
            if abs(step) <= 1e-15 * max(1.0, abs(theta)):
                break
        m = min(_mass_from_theta(theta, M), M * _MASS_CEIL)
        T = elapsed + (theta - theta0) / r
        return T, m

    def _event_generic(self, x, E):
        growth = self.model.growth
        M, D, S = self.M, self.D, self.S
        if x <= 0.0:
            if D <= 0.0:
                return math.inf, 0.0
            return E / D, 0.0

        def rhs(_, state):
            m = min(max(state[0], 0.0), M)
            return [growth.g(S, m), self.model.b(S, m) + D]

        def hit(_, state):
            return state[1] - E

        hit.terminal = True
        hit.direction = 1.0
        t0, state = 0.0, [float(x), 0.0]
        span = max(1.0, E / max(D + self.b(x), 1e-12))
        for _ in range(60):
            sol = solve_ivp(rhs, (t0, t0 + span), state, rtol=1e-10,
                            atol=1e-13, events=hit, dense_output=False)
            if sol.t_events[0].size:
                T = float(sol.t_events[0][0])
                m = float(sol.y_events[0][0][0])
                return T, min(m, M * _MASS_CEIL)
            t0 = float(sol.t[-1])
            state = [float(sol.y[0, -1]), float(sol.y[1, -1])]
            # stalled integral with no growth left means no event will come
            if rhs(t0, state)[1] <= 1e-300 and state[0] >= M * (1 - 1e-12):
                break
            if rhs(t0, state)[1] <= 1e-300 and self.D == 0.0:
                bmax = float(np.max(self.model.b(
                    S, np.linspace(state[0], M, 64))))
                if bmax <= 0.0:
                    break
            span *= 2.0
        return math.inf, M
