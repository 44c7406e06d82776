"""Closed-form Poincare half-maps of the canonical system and their displacement.

Both half-plane return maps of the canonical family (with equal left diagonal
entries) admit exact parametric forms in the arc time.  This module evaluates
them, inverts them by bracketed root finding in time, provides closed-form
first and second derivatives, and locates the zeros of the displacement
function D = P_L_inv - P_R, whose convexity bounds the zero count by two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .canonical import CanonicalParams, shear_to_equal_gammas
from .errors import ConditionViolated, DomainError, OutOfRange, PoleUnresolved
from .roots import brentq

_T_RESIDUAL = 1e-12
_ENDPOINT_ZERO_TOL = 1e-9
_ZERO_REFINE_TOL = 1e-10
_Y_CAP = 1e12


@dataclass(frozen=True)
class HalfMapContext:
    """Frozen scaffolding for the two half-maps of one parameter set.

    params always has gamma1 == gamma3: inputs that need it are sheared
    first, and the shear fixes the switching line pointwise, so axis
    quantities need no pullback.
    """

    params: CanonicalParams
    nu: float
    t_hat_minus: float
    t_hat_plus: float
    y_eta: float
    y_star: float


def phi(sign: int, t: float, gamma3: float, nu: float) -> float:
    """Left-map helper 1 - e^(s*g3*t) (cos(nu t) - s*(g3/nu) sin(nu t))."""
    s = 1.0 if sign > 0 else -1.0
    return 1.0 - math.exp(s * gamma3 * t) * (
        math.cos(nu * t) - s * (gamma3 / nu) * math.sin(nu * t)
    )


def psi(sign: int, t: float, alpha: float) -> float:
    """Right-map helper 1 - e^(s*alpha*t) (cos t - s*alpha sin t)."""
    s = 1.0 if sign > 0 else -1.0
    return 1.0 - math.exp(s * alpha * t) * (math.cos(t) - s * alpha * math.sin(t))


def _polished_root(f, fprime, lo: float, hi: float, xtol: float = 1e-14) -> float:
    """Root of f bracketed by [lo, hi]: brentq, then at most two Newton steps,
    each kept only while f' is finite and nonzero and the step stays in
    [lo, hi]."""
    t = brentq(f, lo, hi, xtol=xtol)
    for _ in range(2):
        d = fprime(t)
        if not math.isfinite(d) or d == 0.0:
            break
        t_new = t - f(t) / d
        if not lo <= t_new <= hi:
            break
        t = t_new
    return t


def solve_t_hats(params: CanonicalParams) -> tuple[float, float]:
    """Roots of the half-turn conditions: phi_+ on (pi/nu, 2pi/nu], psi_+ on (pi, 2pi]."""
    if not params.satisfies_addcond():
        raise ConditionViolated("half-map closed forms need the sign conditions")
    a = params.alpha
    g3 = params.gamma3
    nu = params.nu

    t_plus = _polished_root(
        lambda t: psi(+1, t, a),
        lambda t: (1.0 + a * a) * math.exp(a * t) * math.sin(t),
        math.pi,
        2.0 * math.pi,
    )
    t_minus = _polished_root(
        lambda t: phi(+1, t, g3, nu),
        lambda t: (nu + g3 * g3 / nu) * math.exp(g3 * t) * math.sin(nu * t),
        math.pi / nu,
        2.0 * math.pi / nu,
    )
    # residual tolerance has to scale with the exponential prefactor: near
    # t = 2 pi / nu the function value lives on a grid of spacing
    # ~ eps * e^(gamma3 t), which can dwarf any fixed absolute threshold
    scale_p = 1.0 + math.exp(a * t_plus) * (1.0 + a)
    scale_m = 1.0 + math.exp(g3 * t_minus) * (1.0 + g3 / nu)
    if (
        abs(psi(+1, t_plus, a)) >= _T_RESIDUAL * scale_p
        or abs(phi(+1, t_minus, g3, nu)) >= _T_RESIDUAL * scale_m
    ):
        raise ConditionViolated("half-turn residuals failed to converge")
    return t_minus, t_plus


def make_context(params: CanonicalParams) -> HalfMapContext:
    """Build the half-map scaffolding, shearing first when gamma1 != gamma3."""
    p = shear_to_equal_gammas(params) if params.gamma1 != params.gamma3 else params
    t_minus, t_plus = solve_t_hats(p)
    nu = p.nu
    K = nu * (p.rho - p.gamma3 * p.eta) / p.Delta
    y_eta = -p.eta + K * (1.0 + (p.gamma3 / nu) ** 2) * math.exp(
        p.gamma3 * t_minus
    ) * math.sin(nu * t_minus)
    return HalfMapContext(
        params=p,
        nu=nu,
        t_hat_minus=t_minus,
        t_hat_plus=t_plus,
        y_eta=y_eta,
        y_star=max(y_eta, 0.0),
    )


# ---------------------------------------------------------------------------
# Parametric forms


def right_map_param(t_plus: float, ctx: HalfMapContext) -> tuple[float, float]:
    """(y, P_R(y)) swept by the right arc time t_plus in (pi, t_hat_plus]."""
    if not math.pi < t_plus <= ctx.t_hat_plus * (1.0 + 1e-15):
        raise OutOfRange(f"t_plus={t_plus} outside (pi, {ctx.t_hat_plus}]")
    a = ctx.params.alpha
    beta = ctx.params.beta
    c = 1.0 + a * a
    if t_plus == ctx.t_hat_plus:
        # psi_+ vanishes here; psi_-(t) = c sin^2 t at the root
        return 0.0, beta * math.exp(a * t_plus) * math.sin(t_plus)
    s = math.sin(t_plus)
    y = -(beta / c) * math.exp(-a * t_plus) * psi(+1, t_plus, a) / s
    p = (beta / c) * math.exp(a * t_plus) * psi(-1, t_plus, a) / s
    return y, p


def left_map_param(t_minus: float, ctx: HalfMapContext) -> tuple[float, float]:
    """(y, P_L_inv(y)) swept by the left arc time t_minus in (pi/nu, t_hat_minus]."""
    nu = ctx.nu
    if not math.pi / nu < t_minus <= ctx.t_hat_minus * (1.0 + 1e-15):
        raise OutOfRange(f"t_minus={t_minus} outside (pi/nu, {ctx.t_hat_minus}]")
    p = ctx.params
    if t_minus == ctx.t_hat_minus:
        return ctx.y_eta, -p.eta
    K = nu * (p.rho - p.gamma3 * p.eta) / p.Delta
    s = math.sin(nu * t_minus)
    y = -p.eta + K * phi(-1, t_minus, p.gamma3, nu) * math.exp(p.gamma3 * t_minus) / s
    pl = -p.eta - K * phi(+1, t_minus, p.gamma3, nu) * math.exp(-p.gamma3 * t_minus) / s
    return y, pl


def _dy_dt_right(t: float, ctx: HalfMapContext) -> float:
    _, p = right_map_param(t, ctx)
    return -p * math.exp(-ctx.params.alpha * t) / math.sin(t)


def _dy_dt_left(t: float, ctx: HalfMapContext) -> float:
    _, pl = left_map_param(t, ctx)
    g3 = ctx.params.gamma3
    return -ctx.nu * (pl + ctx.params.eta) * math.exp(g3 * t) / math.sin(ctx.nu * t)


def _invert(y: float, param, dy_dt, pole: float, hi: float, ctx: HalfMapContext) -> float:
    """Arc time t in (pole, hi] with param(t)[0] = y; that height falls from
    +inf at the pole to its value at hi."""

    def f(t):
        return param(t, ctx)[0] - y

    floor = math.nextafter(pole, math.inf)
    gap = (hi - pole) / 2.0
    lo = pole + gap
    while f(lo) < 0.0:
        if lo == floor:
            raise PoleUnresolved(f"height {y} needs an arc time closer to {pole} than {floor}")
        gap /= 8.0
        lo = max(pole + gap, floor)
    return _polished_root(f, lambda t: dy_dt(t, ctx), lo, hi)


def _invert_right(y: float, ctx: HalfMapContext) -> float:
    """Arc time t_plus with y(t_plus) = y, for y >= 0."""
    if y == 0.0:
        return ctx.t_hat_plus
    return _invert(y, right_map_param, _dy_dt_right, math.pi, ctx.t_hat_plus, ctx)


def _invert_left(y: float, ctx: HalfMapContext) -> float:
    """Arc time t_minus with y(t_minus) = y, for y >= y_eta."""
    if y == ctx.y_eta:
        return ctx.t_hat_minus
    return _invert(y, left_map_param, _dy_dt_left, math.pi / ctx.nu, ctx.t_hat_minus, ctx)


def P_R(y: float, ctx: HalfMapContext) -> float:
    """Right return map: lands the forward right arc from (0, y), y >= 0."""
    if y < -1e-12:
        raise DomainError(f"P_R needs y >= 0, got {y}")
    y = max(y, 0.0)
    return right_map_param(_invert_right(y, ctx), ctx)[1]


def P_L_inv(y: float, ctx: HalfMapContext) -> float:
    """Inverse left map: the point at or below -eta feeding (0, y), y >= y_eta."""
    if y < ctx.y_eta - 1e-12 * (1.0 + abs(ctx.y_eta)):
        raise DomainError(f"P_L_inv needs y >= {ctx.y_eta}, got {y}")
    y = max(y, ctx.y_eta)
    return left_map_param(_invert_left(y, ctx), ctx)[1]


# ---------------------------------------------------------------------------
# Derivatives and the displacement function


@dataclass(frozen=True)
class DerivativeRecord:
    dPR: float
    dPLinv: float
    d2PR: float
    d2PLinv: float


def derivatives(y: float, ctx: HalfMapContext) -> DerivativeRecord:
    """Closed-form first and second derivatives of both maps at y >= y_star."""
    if y < ctx.y_star - 1e-12 * (1.0 + abs(ctx.y_star)):
        raise DomainError(f"derivatives need y >= {ctx.y_star}, got {y}")
    p = ctx.params
    a, beta, g3, nu = p.alpha, p.beta, p.gamma3, ctx.nu

    t_p = _invert_right(max(y, 0.0), ctx)
    pr = right_map_param(t_p, ctx)[1]
    dPR = (y / pr) * math.exp(2.0 * a * t_p)
    d2PR = (
        (2.0 * beta * beta / (1.0 + a * a))
        * (math.sinh(a * t_p) - a * math.sin(t_p))
        * math.exp(3.0 * a * t_p)
        / pr**3
    )

    t_m = _invert_left(max(y, ctx.y_eta), ctx)
    pl = left_map_param(t_m, ctx)[1]
    gap = pl + p.eta
    if gap == 0.0:
        dPLinv = -math.inf
        d2PLinv = math.inf
    else:
        dPLinv = ((y + p.eta) / gap) * math.exp(-2.0 * g3 * t_m)
        d2PLinv = (
            -(2.0 * (p.rho - g3 * p.eta) ** 2 / p.Delta)
            * (math.sinh(g3 * t_m) - (g3 / nu) * math.sin(nu * t_m))
            * math.exp(-3.0 * g3 * t_m)
            / gap**3
        )
    return DerivativeRecord(dPR=dPR, dPLinv=dPLinv, d2PR=d2PR, d2PLinv=d2PLinv)


def displacement(y: float, ctx: HalfMapContext) -> float:
    """D(y) = P_L_inv(y) - P_R(y); its zeros mark crossing periodic orbits."""
    if y < ctx.y_star - 1e-12 * (1.0 + abs(ctx.y_star)):
        raise DomainError(f"displacement needs y >= {ctx.y_star}, got {y}")
    return P_L_inv(y, ctx) - P_R(y, ctx)


@dataclass(frozen=True)
class DisplacementZero:
    y_zero: float
    D_prime_sign: int  # +1 rising, -1 falling, 0 tangential


def zeros_of_D(ctx: HalfMapContext) -> list[DisplacementZero]:
    """All zeros of D on [y_star, inf), at most two by convexity.

    The search grows the horizon geometrically until both D and D' are
    positive (guaranteed by the asymptotic slope), capped at 1e12.
    """

    def D_prime(y: float) -> float:
        rec = derivatives(y, ctx)
        return rec.dPLinv - rec.dPR

    def zero_in(lo: float, hi: float, sign: int) -> DisplacementZero:
        y = _polished_root(lambda v: displacement(v, ctx), D_prime, lo, hi, xtol=1e-15)
        return DisplacementZero(y, sign)

    y0 = ctx.y_star
    D0 = displacement(y0, ctx)
    zeros: list[DisplacementZero] = []
    probe = y0 + 1e-9 * (1.0 + abs(y0))

    if abs(D0) <= _ENDPOINT_ZERO_TOL:
        # the parametric endpoint itself is a zero; D always dips after it
        zeros.append(DisplacementZero(y_zero=y0, D_prime_sign=-1))

    Y = y0 + 1.0
    while Y < _Y_CAP and not (displacement(Y, ctx) > 0.0 and D_prime(Y) > 0.0):
        Y = y0 + (Y - y0) * 2.0

    if abs(D0) <= _ENDPOINT_ZERO_TOL or D0 > 0.0:
        slope0 = D_prime(probe)
        if slope0 < 0.0:
            y_min = brentq(D_prime, probe, Y, xtol=1e-13)
            D_min = displacement(y_min, ctx)
            if abs(D0) <= _ENDPOINT_ZERO_TOL:
                if D_min < -_ZERO_REFINE_TOL:
                    zeros.append(zero_in(y_min, Y, 1))
            elif D_min < -_ZERO_REFINE_TOL:
                zeros.append(zero_in(probe, y_min, -1))
                zeros.append(zero_in(y_min, Y, 1))
            elif abs(D_min) <= _ZERO_REFINE_TOL:
                zeros.append(DisplacementZero(y_zero=y_min, D_prime_sign=0))
        # slope nonnegative from the start: D increasing, no further zeros
    else:
        # D starts negative: convexity leaves exactly one rising zero
        zeros.append(zero_in(y0, Y, 1))
    return zeros
